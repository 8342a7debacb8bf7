"""Correlated-noise synthesis and spectral bookkeeping.

A noise model is its spectrum: a parametric one-sided power spectral
density (white plus an arbitrary sum of ``c / f**alpha`` flicker terms),
or a tabulated spectrum, which :meth:`TabulatedPsd.read` reads from a
two-column text file and its constructor alone checks.  The channel a
model drives is named by the key it is filed under in a scenario's
``noise`` mapping, not by the model.  Traces are
synthesized by shaping white Gaussian noise in the frequency domain with
a Hermitian-symmetric spectrum and exact variance scaling, so a trace's
periodogram fluctuates around the model density and its total variance
matches the band integral of the model.  A process read at one or two
offsets per sample spacing, averaged over a window (the laser noise of
the two integration windows), is drawn on the read grid from the
spectrum of the finer trace folded onto it, through the closed 2x2
factor of the two reads' covariance.  A synthesis holds the white
spectra of its rows, its output and the temporaries of one block of
``_BLOCK_BINS`` frequency bins, which it folds and shapes at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

#: rFFT bins that :func:`synthesize_trace` folds and shapes at once
_BLOCK_BINS = 1 << 15


@dataclass(frozen=True)
class PsdModel:
    """One-sided parametric PSD: white level plus flicker components.

    ``flicker`` holds ``(amplitude, exponent)`` pairs contributing
    ``amplitude / f**exponent``; the density is truncated to the band
    ``[f_min, f_max]``.  Units are (channel unit)^2 / Hz.
    """

    white: float = 0.0
    flicker: tuple[tuple[float, float], ...] = ()
    f_min: float = 0.0
    f_max: float = math.inf

    def __post_init__(self):
        if not math.isfinite(self.white) or self.white < 0:
            raise ValueError("white PSD level must be finite and non-negative")
        for amp, alpha in self.flicker:
            if not math.isfinite(amp) or amp < 0:
                raise ValueError("flicker amplitude must be finite and "
                                 "non-negative")
            if not 0.0 <= alpha <= 2.0:
                raise ValueError("flicker exponent must lie in [0, 2]")
        if not self.f_min < self.f_max:
            raise ValueError("f_min must be below f_max")
        object.__setattr__(self, "flicker", tuple(tuple(c) for c in self.flicker))

    def density(self, freqs) -> np.ndarray:
        """Evaluate the PSD on an array of frequencies (Hz)."""
        f = np.atleast_1d(np.asarray(freqs, dtype=float))
        out = np.full(f.shape, self.white, dtype=float)
        term = np.empty_like(out)
        for amp, alpha in self.flicker:
            np.maximum(f, 1e-150, out=term)
            term **= alpha
            np.divide(amp, term, out=term)
            out += term
        # one mask zeroes every f <= 0, where the flicker terms are
        # finite or +inf, and the frequencies outside the band
        outside = f <= 0.0
        outside |= f < self.f_min
        outside |= f > self.f_max
        np.copyto(out, 0.0, where=outside)
        if np.isscalar(freqs):
            return float(out[0])
        return out

    @property
    def band(self) -> tuple[float, float]:
        """Frequencies outside ``[lo, hi]`` have exactly zero density."""
        return self.f_min, self.f_max

    @property
    def is_zero(self) -> bool:
        return self.white == 0.0 and all(a == 0.0 for a, _ in self.flicker)


@dataclass(frozen=True)
class TabulatedPsd:
    """Measured spectrum given on a frequency grid; interpolated linearly.

    Two or more finite entries, frequencies increasing and densities
    non-negative; :meth:`read` reads one from a file."""

    freqs: tuple
    values: tuple

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if f.ndim != 1 or f.shape != v.shape or f.size < 2:
            raise ValueError("tabulated PSD needs matching 1-d frequency "
                             "and value arrays of two entries or more")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(v))):
            raise ValueError("tabulated PSD entries must be finite")
        if np.any(np.diff(f) <= 0):
            raise ValueError("tabulated PSD frequencies must increase")
        if np.any(v < 0):
            raise ValueError("spectral density must be non-negative")
        object.__setattr__(self, "freqs", tuple(float(x) for x in f))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    @classmethod
    def read(cls, path) -> TabulatedPsd:
        """The spectrum of a two-column (frequency_Hz, density) text file,
        comma or whitespace delimited; '#' comments and one header row are
        allowed.  ``ValueError`` with the file's name in front unless the
        file parses to two columns that the constructor accepts."""
        data = None
        with warnings.catch_warnings():
            # numpy warns of a file without rows, which is refused below
            warnings.simplefilter("ignore")
            # a header row is tried last, so a one-row file reads as one
            for skip, delimiter in ((0, ","), (0, None), (1, ","), (1, None)):
                try:
                    data = np.loadtxt(path, delimiter=delimiter,
                                      skiprows=skip, ndmin=2)
                    break
                except ValueError:
                    continue
        try:
            if data is None or data.shape[1] != 2:
                raise ValueError("expected two columns (frequency, density)")
            return cls(data[:, 0], data[:, 1])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def density(self, freqs) -> np.ndarray:
        f = np.asarray(freqs, dtype=float)
        out = np.interp(f, self.freqs, self.values, left=0.0, right=0.0)
        if np.isscalar(freqs):
            return float(out)
        return out

    @property
    def band(self) -> tuple[float, float]:
        """Frequencies outside ``[lo, hi]`` have exactly zero density."""
        return self.freqs[0], self.freqs[-1]

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)


@dataclass
class NoiseTrace:
    """A sampled noise realization, one row per read offset, sampled
    every ``dt``."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))


def synthesize_trace(model, duration: float, dt: float, seed,
                     offsets=(0.0,), window: float = 0.0) -> NoiseTrace:
    """Draw a stationary Gaussian process whose PSD follows ``model``,
    read every ``dt`` at one or two ``offsets``.

    Row ``i`` of the result holds the process at ``j * dt + offsets[i]``
    for ``n = duration / dt`` reads ``j``, averaged over ``window``
    centred there.  The process is the circular trace that shaping white
    noise in the frequency domain gives on a fine grid of ``M`` samples
    per ``dt`` (two per window, ``M = 1`` without one; offsets round to
    the fine grid): fine rFFT bin ``k`` at frequency ``f_k`` carries the
    two-sided power ``P_k = S(f_k) / (2 h)`` of the fine spacing
    ``h = dt / M``, times ``sinc^2(f_k window)`` for the window average,
    so the variance of a read is the filtered density integrated over
    ``[1/duration, 1/(2 h)]``.  The fine DC bin is zeroed.

    The fine trace is never formed.  Its reads form a stationary process
    on the ``n``-point grid whose spectrum in bin ``r`` folds the ``M``
    aliases ``k = r + n m``: each read has the power ``P = mean_m P_k``,
    and two reads at fine offsets ``a``, ``b`` the cross-spectrum::

        C[r] = exp(2 pi i r (b - a) / (n M))
               * mean_m P_k exp(2 pi i m (b - a) / M)

    Independent white draws of length ``n``, one per read, are shaped
    per bin by the factor of ``[[P, conj(C)], [C, P]] = L L^H``,
    ``l00 = sqrt(P)``, ``l10 = C / l00``, ``l11 = sqrt(P - |l10|^2)``
    (zeros in a bin without power).

    The fold skips every alias ``m >= 1`` with no bin inside
    ``model.band``, whose density is exactly zero: its terms would add
    zeros to sums that start at ``+0.0``, so no bit changes.  Work is
    O(n) per alias that overlaps the band.  The fold and the shaping go
    one block of ``_BLOCK_BINS`` bins at a time, in place, so the
    transient memory is the white spectra of the rows, the output and
    one block's temporaries.  The window factor is ``np.sinc``'s
    ``sin(pi x) / (pi x)`` written out in one array per alias and block,
    with the same bits.
    """
    if len(offsets) not in (1, 2):
        raise ValueError("need one or two read offsets")
    if dt <= 0:
        raise ValueError("sample spacing must be positive")
    if duration < 2 * dt:
        raise ValueError("duration must cover at least two samples")
    if not (math.isfinite(window) and window >= 0):
        raise ValueError("averaging window must be finite and non-negative")
    two = len(offsets) == 2
    n = int(round(duration / dt))
    aliases = max(1, round(2.0 * dt / window)) if window else 1
    h = dt / aliases
    lag = round(offsets[-1] / h) - round(offsets[0] / h)
    n_fine = n * aliases
    n_bins = n // 2 + 1
    rng = np.random.default_rng(seed)
    # one white row at a time gives the stream of one (rows, n) draw
    spectra = [np.fft.rfft(rng.standard_normal(n)) for _ in offsets]

    # bin numbers are floats, exact below 2**53, so freq converts none
    def freq(k):
        return np.minimum(k, n_fine - k) * (1.0 / (n_fine * h))

    # each alias block's frequencies are monotonic, so its end bins
    # bound them
    lo, hi = model.band
    ends = freq(np.arange(aliases, dtype=float)[:, None] * n
                + [0, n_bins - 1])
    in_band = (ends.max(axis=1) >= lo) & (ends.min(axis=1) <= hi)
    folded = [m for m in range(aliases) if m == 0 or in_band[m]]

    def shape(block):
        # fold the bins of ``block``, then shape both white spectra there
        # in place; row 1 reads row 0's white spectrum, so it goes first
        bins = np.arange(block.start, block.stop, dtype=float)
        power = np.zeros(bins.size)
        if two:
            cross = np.zeros(bins.size, dtype=complex)
        for m in folded:
            f = freq(bins + n * m)
            p = model.density(f)
            p /= 2.0 * h
            if window:
                # np.sinc(f * window) without its temporaries; only the
                # DC bin of alias 0 is 0, where sinc is 1.  y is freed
                # here, not when the next alias rebinds it
                y = f * window
                y[y == 0] = 1e-20
                y *= math.pi
                avg = np.sin(y)
                avg /= y
                del y
                avg *= avg
                p *= avg
            if m == 0 and block.start == 0:
                p[0] = 0.0
            power += p
            if two:
                cross += p * np.exp(2j * math.pi * m * lag / aliases)
        power /= aliases

        l00 = np.sqrt(np.maximum(power, 0.0))
        if two:
            c = cross / aliases * np.exp(2j * math.pi * bins * lag / n_fine)
            l10 = np.divide(c, l00, out=np.zeros_like(c), where=l00 > 0)
            l11 = np.sqrt(np.maximum(power - np.abs(l10) ** 2, 0.0))
            s1 = spectra[1][block]
            s1 *= l11
            s1 += spectra[0][block] * l10
        spectra[0][block] *= l00

    # the block's temporaries are freed before the next one is folded
    for start in range(0, n_bins, _BLOCK_BINS):
        shape(slice(start, min(start + _BLOCK_BINS, n_bins)))

    samples = np.empty((len(offsets), n))
    for row, spectrum in enumerate(spectra):
        np.fft.irfft(spectrum, n, out=samples[row])
    return NoiseTrace(samples, dt)


def cumulative_rss_descending(freqs, density, f_high: float) -> np.ndarray:
    """Cumulative noise integrated downward: ``sqrt(int_f^f_high S)``.

    This is the budget convention used for per-channel noise summaries:
    the value at each grid frequency collects everything between it and
    the top of the band.
    """
    freqs = np.asarray(freqs, dtype=float)
    density = np.asarray(density, dtype=float)
    out = np.zeros(freqs.shape)
    mask = freqs <= f_high
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return out
    grid = np.concatenate((freqs[idx], [f_high]))
    vals = np.interp(grid, freqs, density)
    segments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
    out[idx] = np.sqrt(np.maximum(np.cumsum(segments[::-1])[::-1], 0.0))
    return out
