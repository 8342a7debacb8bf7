"""Statistical estimators and closed-form sensitivity limits.

The scaling estimators operate on evenly spaced readout series: the
non-overlapping Allan deviation (two-sample deviation of consecutive
block means) distinguishes white noise, which averages down as
``tau**-1/2``, from drifting noise, which does not; the plain standard
deviation of block means is the direct sensitivity-versus-averaging-time
measure.

The closed-form limits give the spin-projection bound of an ``N``-spin
ensemble after ``n = t / T_seq`` evaluations with coherence decay
``exp(-delta(T))``; for an exponential decay the optimum free-evolution
time is half the coherence time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class ScalingCurve:
    """Deviation versus averaging time."""

    times: np.ndarray        # s, strictly increasing, multiples of spacing
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("deviations must be non-negative")


def _block_count(t_prime: float, tau: float) -> int:
    m = tau / t_prime
    m_int = int(round(m))
    if m_int < 1 or abs(m - m_int) > 1e-9 * max(1.0, m):
        raise ValueError(f"tau={tau} is not a positive multiple of the "
                         f"sample spacing {t_prime}")
    return m_int


def block_means(samples: np.ndarray, m: int) -> np.ndarray:
    """Means of consecutive length-``m`` blocks; trailing partial dropped.

    Below 8 values numpy sums a row in sequence from ``+0.0``, so for
    short blocks the column sums below give the bits of the row mean
    (a NaN's sign aside), faster."""
    samples = np.asarray(samples, dtype=float)
    blocks = samples.size // m
    rows = samples[:blocks * m].reshape(blocks, m)
    if m >= 8:
        return rows.mean(axis=1)
    out = rows[:, 0] + 0.0
    for j in range(1, m):
        out += rows[:, j]
    out /= m
    return out


def _block_curve(samples, t_prime: float, times, label: str,
                 statistic) -> ScalingCurve:
    """``statistic`` of the block means at each block length ``times``
    (as times), which must leave at least 2 blocks."""
    samples = np.asarray(samples, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.empty(times.shape)
    for k, t in enumerate(times):
        x = block_means(samples, _block_count(t_prime, t))
        if x.size < 2:
            raise ValueError(f"fewer than 2 blocks at {label}={t}")
        values[k] = statistic(x)
    return ScalingCurve(times, values)


def allan_deviation(samples, t_prime: float, taus) -> ScalingCurve:
    """Non-overlapping Allan deviation over the given averaging times.

    For each ``tau = m * t_prime`` the samples are cut into consecutive
    blocks of ``m``, and the deviation is
    ``sqrt(mean((x_{i+1} - x_i)**2) / 2)`` over adjacent block means.
    """
    # ** 2 squares each difference as d * d does, bit for bit
    return _block_curve(samples, t_prime, taus, "tau",
                        lambda x: np.sqrt(0.5 * np.mean(np.diff(x) ** 2)))


def std_vs_time(samples, t_prime: float, times) -> ScalingCurve:
    """Standard deviation of block means versus block length."""
    return _block_curve(samples, t_prime, times, "t",
                        lambda x: np.std(x, ddof=1))


def default_time_grid(n_samples: int, t_prime: float,
                      points_per_decade: int = 8,
                      min_blocks: int = 2) -> np.ndarray:
    """Log-spaced block lengths (as times) with at least ``min_blocks``."""
    m_max = n_samples // max(min_blocks, 2)
    if m_max < 1:
        raise ValueError("series too short for any block")
    decades = math.log10(m_max)
    n_pts = max(2, int(decades * points_per_decade) + 1)
    m = np.unique(np.round(np.logspace(0, decades, n_pts)).astype(int))
    m = m[(m >= 1) & (m <= m_max)]
    return m * t_prime


def projection_limit_eq2(n_centres: float, evaluations: float,
                         phase_time: float, envelope: float,
                         gamma_e: float) -> float:
    """Spin-projection-limited field resolution of an ``N``-spin ensemble.

    ``B = 1 / (gamma_rad sqrt(N) sqrt(evaluations) T_phi envelope)``,
    with the echo contrast ``envelope = exp(-(T_phi / t2)**k)``.
    """
    return 1.0 / (TWO_PI * gamma_e * math.sqrt(n_centres)
                  * math.sqrt(evaluations) * phase_time * envelope)


def projection_limit_simplified(n_centres: float, total_time: float,
                                t2: float, gamma_e: float = 28.7e9) -> float:
    """Optimal-time projection limit ``sqrt(2 e) / (gamma sqrt(N t T2))``.

    This is :func:`projection_limit_eq2` in the back-to-back limit
    (``sequence_time -> phase_time``) with exponential decay, evaluated
    at the optimal ``phase_time = T2 / 2``.
    """
    gamma_rad = TWO_PI * gamma_e
    return math.sqrt(2.0 * math.e) / (gamma_rad
                                      * math.sqrt(n_centres * total_time * t2))


def optimal_phase_time(t2: float, decay_exponent: float = 1.0) -> float:
    """Free-evolution time minimizing the projection limit.

    In the back-to-back limit the bound scales as
    ``exp((T/t2)**k) / sqrt(T)``, whose log-derivative
    ``k T**(k-1) / t2**k - 1/(2T)`` vanishes at ``T = t2 (2k)**(-1/k)``:
    exactly ``t2 / 2`` for ``k = 1``.
    """
    if t2 <= 0:
        raise ValueError("coherence time must be positive")
    if decay_exponent <= 0:
        raise ValueError("decay exponent must be positive")
    return t2 * (2.0 * decay_exponent) ** (-1.0 / decay_exponent)

