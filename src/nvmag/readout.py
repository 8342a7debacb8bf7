"""Photon-level readout: shot noise, laser noise, referencing, extraction.

Fluorescence during a laser pulse starts at a spin-dependent level and
repolarizes exponentially toward the steady-state rate, so the spin
signal lives in the first integration window while the window at the end
of the pulse provides an optical reference.  A reference photodetector
channel fed by part of the excitation beam carries the same relative
laser fluctuations and is subtracted with a balance ratio matched to the
expected signal level, which cancels correlated laser noise to first
order at the price of sqrt(2) extra uncorrelated noise.

Scheme extraction (per :mod:`nvmag.filters`): ``S_A`` is the first
window; ``S_B`` the first minus the last window of one pulse; ``S_C`` and
``S_D`` difference the scheme A/B signals of two consecutive sequences.
All signals are normalized by ``photon_rate * window_time``.  Counts are
drawn per integration window; the per-bin model they integrate is kept
as the reference in ``tests/reference_readout.py``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sequences import analytic_echo_phase

#: evaluations per extracted value: the paired schemes C/D difference two
#: sequences at opposite final phases, which also doubles their response
SCHEME_SEQUENCES = {"A": 1, "B": 1, "C": 2, "D": 2}
#: schemes that subtract the end window of the laser pulse
REFERENCED_SCHEMES = ("B", "D")

#: above this expected count the exact generator is replaced by its
#: Gaussian limit: numpy's transformed-rejection sampler loses a few
#: percent of variance beyond ~1e13 in float64, while at 1e12 counts the
#: Poisson skewness is already only 1e-6
GAUSSIAN_COUNT_THRESHOLD = 1e12


def poisson_counts(rng: np.random.Generator, mean) -> np.ndarray:
    """Poisson draws, switching to the rounded Gaussian limit for means
    above :data:`GAUSSIAN_COUNT_THRESHOLD`.  Counts are returned as
    floats, which hold every count below 2**53 exactly and cannot wrap
    around the way an integer cast of a huge mean does."""
    mean = np.asarray(mean, dtype=float)
    out = np.empty(mean.shape)
    small = mean < GAUSSIAN_COUNT_THRESHOLD
    if small.any():
        out[small] = rng.poisson(mean[small])
    big = ~small
    if big.any():
        m = mean[big]
        out[big] = np.round(m + np.sqrt(m) * rng.standard_normal(m.shape))
    return out


@dataclass(frozen=True)
class ReadoutConfig:
    """Detector and timing configuration of one readout."""

    photon_rate: float              # steady-state rate R0, counts/s
    contrast: float = 0.04          # relative fluorescence dip of m_S=+-1
    repolarization_time: float = 1e-6  # s
    reference_ratio: float = 1.0    # reference beam rate / R0
    laser_time: float = 100e-6      # s
    window_time: float = 10e-6      # s
    reference_enabled: bool = True

    def __post_init__(self):
        values = (self.photon_rate, self.contrast, self.repolarization_time,
                  self.reference_ratio, self.laser_time, self.window_time)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("readout parameters must be finite")
        if self.photon_rate <= 0:
            raise ValueError("photon rate must be positive")
        if not 0.0 < self.contrast < 1.0:
            raise ValueError("contrast must lie in (0, 1)")
        if not 0.0 < self.window_time < self.laser_time:
            raise ValueError("need 0 < window_time < laser_time")
        if self.repolarization_time <= 0:
            raise ValueError("repolarization time must be positive")
        if not (self.reference_ratio > 0.0
                and math.isfinite(self.window_counts * self.reference_ratio)):
            raise ValueError("reference ratio must be positive and keep the "
                             "reference counts finite")

    @property
    def window_counts(self) -> float:
        """Mean steady-state counts per integration window."""
        return self.photon_rate * self.window_time


@dataclass
class ReadoutSeries:
    """Extracted per-evaluation scalars for one scheme."""

    values: np.ndarray
    spacing: float    # s between consecutive values
    scheme: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.spacing


# ---------------------------------------------------------------------------
# window-integrated model
# ---------------------------------------------------------------------------

def window_dip_fraction(cfg: ReadoutConfig, window: int) -> float:
    """Mean of ``exp(-t/tau)`` over the first (0) or last (1) window.

    Written as ``exp(-lo/tau) (1 - exp(-w/tau)) tau / w`` with ``expm1``,
    which keeps every digit when ``tau`` is much longer than the window
    (the difference of two exponentials would cancel to 0)."""
    tau, w = cfg.repolarization_time, cfg.window_time
    lo = 0.0 if window == 0 else cfg.laser_time - w
    return math.exp(-lo / tau) * -math.expm1(-w / tau) * tau / w


def expected_window_counts(p, cfg: ReadoutConfig, window: int):
    """Expected signal-channel counts in one integration window."""
    p = np.asarray(p, dtype=float)
    frac = window_dip_fraction(cfg, window)
    return cfg.window_counts * (1.0 - cfg.contrast * (1.0 - p) * frac)


def sequence_signals(populations, cfg: ReadoutConfig, rng,
                     laser_eps=0.0,
                     balance_population: float = 0.5):
    """Window-level sampled ``(S_A, S_B)`` for a batch of sequences.

    Counts are drawn per integration window (the window sum of an
    inhomogeneous Poisson process is Poisson with the integrated mean, so
    no per-bin sampling is needed).  ``laser_eps`` is the relative laser
    noise at the two window positions of every sequence, anything that
    broadcasts to ``(2, n)``.
    """
    p = np.asarray(populations, dtype=float)
    # relative laser intensity at the two windows, shared by both channels
    gains = np.broadcast_to(1.0 + np.asarray(laser_eps, dtype=float),
                            (2,) + p.shape)
    if np.any(gains < 0):
        warnings.warn("laser noise drove the photon rate negative; clipping",
                      RuntimeWarning, stacklevel=2)
        gains = np.clip(gains, 0.0, None)
    n1 = poisson_counts(rng, expected_window_counts(p, cfg, 0) * gains[0])
    n2 = poisson_counts(rng, expected_window_counts(p, cfg, 1) * gains[1])

    if cfg.reference_enabled:
        ref_mean = cfg.window_counts * cfg.reference_ratio
        r1 = expected_window_counts(balance_population, cfg, 0) / ref_mean
        r2 = expected_window_counts(balance_population, cfg, 1) / ref_mean
        nr1 = poisson_counts(rng, ref_mean * gains[0])
        nr2 = poisson_counts(rng, ref_mean * gains[1])
        n1 = n1 - r1 * nr1
        n2 = n2 - r2 * nr2

    norm = cfg.window_counts
    s_a = n1 / norm
    s_b = (n1 - n2) / norm
    return s_a, s_b


def shot_variance(cfg: ReadoutConfig, population):
    """Exact variances of ``(S_A, S_B)`` of one noise-free sequence whose
    population is also the reference's balance population.

    The windows' signal and reference counts are independent Poisson
    draws, so ``Var S_A = (mu1 + r1^2 rho) / W^2`` and ``Var S_B = (mu1 +
    mu2 + (r1^2 + r2^2) rho) / W^2`` with ``muk`` the window means, ``rho``
    the reference mean, ``rk = muk / rho`` and ``W`` the window counts;
    the ``rho`` terms drop with the reference off.  In the Gaussian count
    limit the rounding adds at most ``1/12`` count^2 per draw, omitted.
    """
    # in units of W counts, so that a bright scenario's W^2 cannot overflow
    norm = cfg.window_counts
    e1 = expected_window_counts(population, cfg, 0) / norm
    e2 = expected_window_counts(population, cfg, 1) / norm
    var1, var2 = e1, e2
    if cfg.reference_enabled:
        var1 = var1 + e1 * e1 / cfg.reference_ratio
        var2 = var2 + e2 * e2 / cfg.reference_ratio
    return var1 / norm, (var1 + var2) / norm


def pair_difference(values: np.ndarray) -> np.ndarray:
    """Consecutive-pair differences ``x[0]-x[1], x[2]-x[3], ...``."""
    values = np.asarray(values)
    if values.size % 2:
        raise ValueError("need an even number of sequences for paired schemes")
    return values[0::2] - values[1::2]


def signal_slope_per_population(cfg: ReadoutConfig, scheme: str) -> float:
    """``dS/dp`` of one sequence's signal: contrast times the first
    window's repolarization weight, less the last window's for the
    referenced schemes B and D."""
    dip = window_dip_fraction(cfg, 0)
    if scheme in REFERENCED_SCHEMES:
        dip -= window_dip_fraction(cfg, 1)
    return cfg.contrast * dip


def signal_response_per_tesla(cfg: ReadoutConfig, phase_time: float,
                              gamma_e: float, decay_envelope: float,
                              scheme: str) -> float:
    """Small-signal response ``|dS/dB|`` of a scheme at the working point.

    Combines the echo phase per tesla
    (:func:`nvmag.sequences.analytic_echo_phase` of 1 T), the population
    slope ``envelope / 2`` at the equal-population point, the
    per-population signal slope, and the number of sequences the scheme
    differences.
    """
    phase_per_tesla = analytic_echo_phase(1.0, phase_time, gamma_e)
    pop_per_phase = decay_envelope / 2.0
    return (SCHEME_SEQUENCES[scheme] * signal_slope_per_population(cfg, scheme)
            * pop_per_phase * phase_per_tesla)
