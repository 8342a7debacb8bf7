"""Segment-list model of the readout schemes' integration windows.

The reference the closed forms of :mod:`nvmag.filters` are checked
against: each scheme's window is an explicit list of ``(t_start, t_end,
weight)`` segments, its transmission the magnitude of a sum of exact
per-segment Fourier integrals, and the window constructor rejects
timings whose segments would be empty or overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
