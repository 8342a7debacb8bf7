"""Closed-form filter functions of the discrete readout schemes.

Each way of taking the signal (schemes A-D) integrates the detector over a
piecewise +-1 window ``C(t)`` spanning one or two readout sequences.  The
magnitude of its Fourier transform, ``X(w) = |int e^{iwt} C(t) dt|``, is
the measurement's intrinsic transfer function for slow noise.  Every
window is a start-of-pulse window of length ``dt``, referenced against
the end window of the same laser pulse ``tL`` in schemes B and D, and
differenced against the next sequence ``T_seq`` later in schemes C and
D, so the transform factors exactly::

    X = 2 |sin(w dt / 2)| / w             (the start window, A)
        * 2 |sin(w (tL - dt) / 2)|        (referenced: B, D)
        * 2 |sin(w T_seq / 2)|            (paired: C, D)

Each extra factor rejects DC.  The segment-integral model these factors
are checked against is kept in ``tests/reference_filters.py``.

Noise entering through the spin preparation (microwave channels) only
affects the first window of each laser pulse, so a scheme-D measurement
applies filter D to optical noise but filter C to microwave noise; see
:func:`filter_scheme_for_channel`.
"""

from __future__ import annotations

import math

import numpy as np

from .noise import cumulative_rss_descending
from .readout import REFERENCED_SCHEMES, SCHEME_SEQUENCES


def check_windows(laser_time: float, window_time: float,
                  sequence_time: float) -> None:
    """Raise ``ValueError`` unless every scheme's windows are resolvable.

    In time order the windows of scheme D are ``[0, dt]``,
    ``[tL - dt, tL]``, ``[T, T + dt]`` and ``[T + (tL - dt), T + tL]``;
    each must have positive length in floating point, and the start and
    end windows of one pulse may touch but not overlap.  The other
    schemes use a subset of these windows.
    """
    t_l, d_t, t_seq = laser_time, window_time, sequence_time
    if not (0.0 < d_t <= t_l - d_t < t_l <= t_seq < t_seq + d_t
            <= t_seq + (t_l - d_t) < t_seq + t_l):
        raise ValueError("integration windows must have positive length, "
                         "the start and end windows must not overlap, and "
                         "the laser pulse must fit in the sequence")


def filter_transmission(scheme: str, omega, laser_time: float,
                        window_time: float, sequence_time: float):
    """``X(w)`` of one readout scheme, exact at ``w = 0``; see the module
    docstring for the factors."""
    if scheme not in SCHEME_SEQUENCES:
        raise ValueError(f"unknown scheme {scheme!r}")
    w = np.asarray(omega, dtype=float)
    out = window_time * np.abs(np.sinc(w * window_time / (2.0 * math.pi)))
    if scheme in REFERENCED_SCHEMES:
        out = out * 2.0 * np.abs(np.sin(w * (laser_time - window_time) / 2))
    if SCHEME_SEQUENCES[scheme] == 2:
        out = out * 2.0 * np.abs(np.sin(w * sequence_time / 2))
    return out


def filter_scheme_for_channel(scheme: str, channel: str) -> str:
    """Filter seen by a noise channel under a given measurement scheme.

    Microwave noise only enters through the state preparation, i.e. the
    first window of each laser pulse, so within one sequence it is never
    referenced: scheme B behaves like A, and scheme D like C.
    """
    if scheme not in SCHEME_SEQUENCES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if channel == "laser_intensity":
        return scheme
    return "C" if SCHEME_SEQUENCES[scheme] == 2 else "A"


def filtered_cumulative_noise_descending(freqs, density, scheme: str,
                                         laser_time: float,
                                         window_time: float,
                                         sequence_time: float,
                                         f_high: float) -> np.ndarray:
    """Cumulative filtered noise ``sqrt(int_f^f_high S(f') Xhat(2 pi f')^2 df')``.

    The filter is normalized by the window length, the scheme's
    signal-band gain, so the curve shares units with the raw cumulative
    noise of the channel (:func:`nvmag.noise.cumulative_rss_descending`).
    Returned on the input grid, zero above ``f_high``.
    """
    freqs = np.asarray(freqs, dtype=float)
    density = np.asarray(density, dtype=float)
    x_hat = filter_transmission(scheme, 2.0 * math.pi * freqs, laser_time,
                                window_time, sequence_time) / window_time
    return cumulative_rss_descending(freqs, density * x_hat**2, f_high)
