"""Integration-window filter functions of the discrete readout schemes.

Each way of taking the signal (schemes A-D) corresponds to a piecewise
+-1 integration window ``C(t)`` spanning one or two readout sequences.
The magnitude of its Fourier transform, ``X(w) = |int e^{iwt} C(t) dt|``,
is the measurement's intrinsic transfer function for slow noise: windows
with zero net weight reject DC, and differencing two consecutive
sequences adds another ``2 |sin(w T_seq / 2)|`` suppression factor.

Scheme mapping
--------------
* A: one window at the start of the laser pulse (no referencing).
* B: start-of-pulse window minus end-of-pulse window (optical referencing
  within one laser pulse).
* C: scheme-A windows of two consecutive sequences, subtracted.
* D: scheme-B windows of two consecutive sequences, subtracted.

Noise entering through the spin preparation (microwave channels) only
affects the first window of each laser pulse, so a scheme-D measurement
applies filter D to optical noise but filter C to microwave noise; see
:func:`filter_scheme_for_channel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import cumulative_rss_descending

SCHEMES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class IntegrationWindow:
    """Ordered, non-overlapping ``(t_start, t_end, weight)`` segments.

    ``gain`` is the signal-band normalization (the length of the primary
    signal window) used when comparing filtered noise budgets against
    per-sequence signal deviations.
    """

    segments: tuple[tuple[float, float, float], ...]
    gain: float

    def __post_init__(self):
        prev_end = -math.inf
        for start, end, weight in self.segments:
            if end <= start:
                raise ValueError("window segment must have positive length")
            if start < prev_end - 1e-15:
                raise ValueError("window segments must be ordered and disjoint")
            if weight not in (+1.0, -1.0):
                raise ValueError("segment weight must be +1 or -1")
            prev_end = end
        if self.gain <= 0:
            raise ValueError("gain must be positive")


def window_for_signal(scheme: str, laser_time: float, window_time: float,
                      sequence_time: float) -> IntegrationWindow:
    """Integration window of one readout scheme.

    ``window_time`` is the integration time at the start (and, for B/D,
    the end) of a laser pulse of length ``laser_time``; schemes C and D
    extend over two sequences separated by ``sequence_time``.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not window_time < laser_time:
        raise ValueError("integration time must be shorter than the laser pulse")
    if scheme in ("B", "D") and window_time > laser_time / 2:
        raise ValueError("start and end windows would overlap")
    if not laser_time <= sequence_time:
        raise ValueError("laser pulse must fit in the sequence")

    single = {
        "A": ((0.0, window_time, +1.0),),
        "B": ((0.0, window_time, +1.0),
              (laser_time - window_time, laser_time, -1.0)),
    }
    if scheme in single:
        segments = single[scheme]
    else:
        base = single["A" if scheme == "C" else "B"]
        shifted = tuple((s + sequence_time, e + sequence_time, -w)
                        for s, e, w in base)
        segments = base + shifted
    return IntegrationWindow(segments=segments, gain=window_time)


def filter_transmission_numeric(window: IntegrationWindow, omega) -> np.ndarray:
    """``|int e^{iwt} C(t) dt|`` from exact per-segment integrals.

    Each segment contributes ``w (e^{iwb} - e^{iwa}) / (iw)``; the zero
    frequency limit is the net signed area.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(w < 0):
        raise ValueError("angular frequency must be non-negative")
    total = np.zeros(w.shape, dtype=complex)
    safe = np.where(w > 0, w, 1.0)
    for start, end, weight in window.segments:
        # (e^{iwb} - e^{iwa})/(iw) = e^{iw(a+b)/2} * 2 sin(w(b-a)/2) / w,
        # which stays accurate when w*(b - a) is tiny
        seg = np.exp(1j * safe * (start + end) / 2) \
            * 2.0 * np.sin(safe * (end - start) / 2) / safe
        total += weight * np.where(w > 0, seg, end - start)
    out = np.abs(total)
    if np.isscalar(omega):
        return float(out[0])
    return out


def filter_transmission_analytic_b(omega, laser_time: float,
                                   window_time: float) -> np.ndarray:
    """Closed form of the scheme-B filter transmission.

    ``X_B = sqrt(|2/w^2 [2 - 2 cos(w dt) + cos(w (tL - 2 dt)) + cos(w tL)
    - 2 cos(w (tL - dt))]|)`` with laser pulse length ``tL`` and
    integration time ``dt``; requires ``w > 0``.

    The cosine bracket factors exactly as
    ``8 sin^2(w dt / 2) sin^2(w (tL - dt) / 2)``, which is the form
    evaluated here: the raw bracket loses all significant digits for
    ``w * tL << 1`` where the terms cancel to ``O((w tL)^4)``.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(w <= 0):
        raise ValueError("closed form requires positive angular frequency")
    t_l, d_t = laser_time, window_time
    out = 4.0 / w * np.abs(np.sin(w * d_t / 2) * np.sin(w * (t_l - d_t) / 2))
    if np.isscalar(omega):
        return float(out[0])
    return out


def filter_scheme_for_channel(scheme: str, channel: str) -> str:
    """Filter seen by a noise channel under a given measurement scheme.

    Microwave noise only enters through the state preparation, i.e. the
    first window of each laser pulse, so within one sequence it is never
    referenced: scheme B behaves like A, and scheme D like C.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if channel == "laser_intensity":
        return scheme
    return {"A": "A", "B": "A", "C": "C", "D": "C"}[scheme]


def filtered_cumulative_noise_descending(freqs, density,
                                         window: IntegrationWindow,
                                         f_high: float) -> np.ndarray:
    """Cumulative filtered noise ``sqrt(int_f^f_high S(f') Xhat(2 pi f')^2 df')``.

    The filter is normalized by the window gain so the curve shares units
    with the raw cumulative noise of the channel
    (:func:`nvmag.noise.cumulative_rss_descending`).  Returned on the
    input grid, zero above ``f_high``.
    """
    freqs = np.asarray(freqs, dtype=float)
    density = np.asarray(density, dtype=float)
    x_hat = filter_transmission_numeric(window, 2.0 * math.pi * freqs) / window.gain
    return cumulative_rss_descending(freqs, density * x_hat**2, f_high)
