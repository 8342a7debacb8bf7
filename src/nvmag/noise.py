"""Correlated-noise synthesis and spectral bookkeeping.

Noise channels are described by parametric one-sided power spectral
densities (white plus an arbitrary sum of ``c / f**alpha`` flicker terms)
or by tabulated spectra read from two-column text files.  Traces are
synthesized by shaping white Gaussian noise in the frequency domain with
a Hermitian-symmetric spectrum and exact variance scaling, so a trace's
periodogram fluctuates around the model density and its total variance
matches the band integral of the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHANNELS = ("laser_intensity", "mw_amplitude", "mw_frequency")


@dataclass(frozen=True)
class PsdModel:
    """One-sided parametric PSD: white level plus flicker components.

    ``flicker`` holds ``(amplitude, exponent)`` pairs contributing
    ``amplitude / f**exponent``; the density is truncated to the band
    ``[f_min, f_max]``.  Units are (channel unit)^2 / Hz.
    """

    channel: str
    white: float = 0.0
    flicker: tuple[tuple[float, float], ...] = ()
    f_min: float = 0.0
    f_max: float = math.inf

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown noise channel {self.channel!r}")
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
            term[f <= 0] = 0.0
            out += term
        out[(f < self.f_min) | (f > self.f_max) | (f <= 0.0)] = 0.0
        if np.isscalar(freqs):
            return float(out[0])
        return out

    @property
    def is_zero(self) -> bool:
        return self.white == 0.0 and all(a == 0.0 for a, _ in self.flicker)


@dataclass(frozen=True)
class TabulatedPsd:
    """Measured spectrum given on a frequency grid; interpolated linearly."""

    channel: str
    freqs: tuple
    values: tuple

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if f.ndim != 1 or f.shape != v.shape or f.size < 2:
            raise ValueError("tabulated PSD needs matching 1-d frequency/value arrays")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(v))):
            raise ValueError("tabulated PSD entries must be finite")
        if np.any(np.diff(f) <= 0):
            raise ValueError("tabulated PSD frequencies must increase")
        if np.any(v < 0):
            raise ValueError("spectral density must be non-negative")
        object.__setattr__(self, "freqs", tuple(float(x) for x in f))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def density(self, freqs) -> np.ndarray:
        f = np.asarray(freqs, dtype=float)
        out = np.interp(f, self.freqs, self.values, left=0.0, right=0.0)
        if np.isscalar(freqs):
            return float(out)
        return out

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)


@dataclass
class NoiseTrace:
    """A sampled noise realization; zero-mean by construction."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)

    def value_at(self, times) -> np.ndarray:
        """Nearest-sample lookup; raises ``ValueError`` when a time's
        nearest sample lies outside the trace."""
        pos = np.round(np.asarray(times, dtype=float) / self.dt)
        # written so that a NaN time fails the check as well
        if pos.size and not (pos.min() >= 0
                             and pos.max() <= self.samples.size - 1):
            raise ValueError("times outside the trace extent")
        return self.samples[pos.astype(np.int64)]


def synthesize_trace(model, duration: float, dt: float, seed) -> NoiseTrace:
    """Draw a stationary Gaussian trace whose PSD follows ``model``.

    White Gaussian noise is shaped in the frequency domain: rFFT bin ``k``
    at frequency ``f_k`` is scaled by ``sqrt(S(f_k) / (2 dt))`` so that the
    expected sample variance equals the density integrated over the
    resolvable band ``[1/duration, 1/(2 dt)]``.  The DC bin is zeroed, so
    flicker components are cut off below ``1/duration`` and the trace has
    zero mean.
    """
    if dt <= 0:
        raise ValueError("sample spacing must be positive")
    if duration < 2 * dt:
        raise ValueError("duration must cover at least two samples")
    n = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    # in place throughout: the white draw, the frequency grid and the
    # scale are freed as soon as they are used, which bounds peak memory
    # on long traces without changing a bit of the result
    spectrum = np.fft.rfft(rng.standard_normal(n))
    scale = model.density(np.fft.rfftfreq(n, dt))
    scale /= 2.0 * dt
    np.sqrt(scale, out=scale)
    scale[0] = 0.0
    spectrum *= scale
    del scale
    samples = np.fft.irfft(spectrum, n)
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
