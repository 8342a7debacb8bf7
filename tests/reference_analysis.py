"""The power-law fit that checks the scaling curves of
:mod:`nvmag.analysis`.

The package estimates deviations against averaging time but never fits
their slope; the tests and the acceptance criteria read a curve's
log-log slope, with the function here.
"""

from __future__ import annotations

import numpy as np


def fit_log_slope(curve, t_min: float, t_max: float):
    """Least-squares power-law fit in log-log coordinates.

    Returns ``(slope, intercept)`` over curve points with
    ``t_min <= t <= t_max``; needs at least three strictly positive
    values in range.
    """
    mask = (curve.times >= t_min) & (curve.times <= t_max)
    t = curve.times[mask]
    v = curve.values[mask]
    if t.size < 3:
        raise ValueError("need at least 3 points in the fit range")
    if np.any(v <= 0):
        raise ValueError("fit range contains non-positive values")
    slope, intercept = np.polyfit(np.log10(t), np.log10(v), 1)
    return float(slope), float(intercept)
