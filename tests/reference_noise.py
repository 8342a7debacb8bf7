"""Spectral oracles for the trace synthesis of :mod:`nvmag.noise`.

The package shapes white noise to a model density
(:func:`nvmag.noise.synthesize_trace`) but never estimates a spectrum or
integrates one in closed form; the tests do both, with the functions
here.  The point-sampled reads of a fine trace, which the package
replaced by window averages synthesized on the read grid, are kept here
as a reference too, and so is the synthesis that folds every alias,
in band or not.
"""

from __future__ import annotations

import math

import numpy as np

from nvmag.noise import synthesize_trace


def band_variance(model, f_lo: float, f_hi: float) -> float:
    """Closed-form integral of a parametric density between two
    frequencies, within the model's band ``[f_min, f_max]``."""
    lo = max(f_lo, model.f_min)
    hi = min(f_hi, model.f_max)
    if hi <= lo:
        return 0.0
    var = model.white * (hi - lo)
    for amp, alpha in model.flicker:
        if alpha == 1.0:
            var += amp * math.log(hi / lo)
        else:
            var += amp * (hi ** (1 - alpha) - lo ** (1 - alpha)) / (1 - alpha)
    return var


def estimate_psd(trace, segment_length: int):
    """Averaged (Welch, Hann-windowed, non-overlapping) periodogram.

    Each full segment has its mean removed and is tapered by a periodic
    Hann window; a trailing partial segment is dropped.  Returns
    ``(freqs, density)`` with the one-sided convention of
    :class:`nvmag.noise.PsdModel`: interior bins are doubled, DC and (for
    an even ``segment_length``) Nyquist are not.
    """
    n = segment_length
    x, = trace.samples
    if x.size < 2 * n:
        raise ValueError("trace must cover at least two segments")
    segments = x[:x.size // n * n].reshape(-1, n)
    segments = segments - segments.mean(axis=1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    power = np.abs(np.fft.rfft(segments * window, axis=1)) ** 2
    density = power.mean(axis=0) * trace.dt / np.sum(window ** 2)
    density[1:(n + 1) // 2] *= 2.0
    return np.fft.rfftfreq(n, trace.dt), density


def value_at(trace, times) -> np.ndarray:
    """Nearest-sample lookup in a one-row trace; raises ``ValueError``
    when a time's nearest sample lies outside the trace."""
    x, = trace.samples
    pos = np.round(np.asarray(times, dtype=float) / trace.dt)
    # written so that a NaN time fails the check as well
    if pos.size and not (pos.min() >= 0 and pos.max() <= x.size - 1):
        raise ValueError("times outside the trace extent")
    return x[pos.astype(np.int64)]


def point_sampled_window_noise(model, n: int, sequence_time: float,
                               centres, window: float, seed):
    """Laser noise read as point samples at the window centres of ``n``
    sequences from one trace at half-window spacing, without averaging
    over the window."""
    trace = synthesize_trace(model, n * sequence_time, window / 2.0, seed)
    starts = np.arange(n) * sequence_time
    return tuple(value_at(trace, starts + c) for c in centres)


def fine_grid_covariance(model, n: int, sequence_time: float, aliases: int,
                         lag: int, window: float = 0.0) -> float:
    """Exact covariance at ``lag`` fine samples of the circular trace of
    ``n * aliases`` samples that :func:`nvmag.noise.synthesize_trace`
    models, averaged over ``window`` when one is given; summed over
    every fine frequency bin."""
    n_fine = n * aliases
    h = sequence_time / aliases
    k = np.arange(n_fine)
    f = np.minimum(k, n_fine - k) / (n_fine * h)
    power = model.density(f) / (2.0 * h) * np.sinc(f * window) ** 2
    power[0] = 0.0
    return float(np.sum(power * np.cos(2.0 * math.pi * k * lag / n_fine))
                 / n_fine)


def full_fold_trace(model, duration: float, dt: float, seed,
                    offsets=(0.0,), window: float = 0.0):
    """:func:`nvmag.noise.synthesize_trace` folding all ``M`` aliases
    ``0..M-1``, including those wholly outside the model's band; returns
    the ``(len(offsets), n)`` samples."""
    two = len(offsets) == 2
    n = int(round(duration / dt))
    aliases = max(1, round(2.0 * dt / window)) if window else 1
    h = dt / aliases
    lag = round(offsets[-1] / h) - round(offsets[0] / h)
    n_fine = n * aliases
    bins = np.arange(n // 2 + 1)
    white = np.random.default_rng(seed).standard_normal((len(offsets), n))

    power = np.zeros(bins.size)
    cross = np.zeros(bins.size, dtype=complex)
    for m in range(aliases):
        k = bins + n * m
        f = np.minimum(k, n_fine - k) * (1.0 / (n_fine * h))
        p = model.density(f)
        p /= 2.0 * h
        if window:
            avg = np.sinc(f * window)
            avg *= avg
            p *= avg
        if m == 0:
            p[0] = 0.0
        power += p
        cross += p * np.exp(2j * math.pi * m * lag / aliases)
    power /= aliases

    spectra = [np.fft.rfft(w) for w in white]
    samples = np.empty((len(offsets), n))
    l00 = np.sqrt(np.maximum(power, 0.0))
    samples[0] = np.fft.irfft(spectra[0] * l00, n)
    if two:
        c = cross / aliases * np.exp(2j * math.pi * bins * lag / n_fine)
        l10 = np.divide(c, l00, out=np.zeros_like(c), where=l00 > 0)
        l11 = np.sqrt(np.maximum(power - np.abs(l10) ** 2, 0.0))
        shaped = spectra[0] * l10
        shaped += spectra[1] * l11
        samples[1] = np.fft.irfft(shaped, n)
    return samples
