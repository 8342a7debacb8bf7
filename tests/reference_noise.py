"""Spectral oracles for the trace synthesis of :mod:`nvmag.noise`.

The package shapes white noise to a model density
(:func:`nvmag.noise.synthesize_trace`) but never estimates a spectrum or
integrates one in closed form; the tests do both, with the functions
here.
"""

from __future__ import annotations

import math

import numpy as np


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
    if trace.samples.size < 2 * n:
        raise ValueError("trace must cover at least two segments")
    segments = trace.samples[:trace.samples.size // n * n].reshape(-1, n)
    segments = segments - segments.mean(axis=1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    power = np.abs(np.fft.rfft(segments * window, axis=1)) ** 2
    density = power.mean(axis=0) * trace.dt / np.sum(window ** 2)
    density[1:(n + 1) // 2] *= 2.0
    return np.fft.rfftfreq(n, trace.dt), density
