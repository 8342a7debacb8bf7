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
All signals are normalized by ``photon_rate * window_time``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

#: shot-noise seed stream per scheme group: A and B are read from one
#: record drawn on B's stream, C and D from one drawn on D's
SCHEME_STREAMS = {"B": 11, "D": 13}
#: per-scheme spin-response multiplier relative to one scheme-B window pair
SCHEME_RESPONSE = {"A": 1.0, "B": 1.0, "C": 2.0, "D": 2.0}
#: evaluations per extracted value (C/D consume two sequences)
SCHEME_SEQUENCES = {"A": 1, "B": 1, "C": 2, "D": 2}

#: above this expected count the exact generator is replaced by its
#: Gaussian limit: numpy's transformed-rejection sampler loses a few
#: percent of variance beyond ~1e13 in float64, while at 1e12 counts the
#: Poisson skewness is already only 1e-6
GAUSSIAN_COUNT_THRESHOLD = 1e12


def poisson_counts(rng: np.random.Generator, mean) -> np.ndarray:
    """Poisson draws, switching to the rounded Gaussian limit for means
    above :data:`GAUSSIAN_COUNT_THRESHOLD`."""
    mean = np.asarray(mean, dtype=float)
    out = np.empty(mean.shape, dtype=np.int64)
    small = mean < GAUSSIAN_COUNT_THRESHOLD
    if small.any():
        out[small] = rng.poisson(mean[small])
    big = ~small
    if big.any():
        m = mean[big]
        out[big] = np.round(m + np.sqrt(m)
                            * rng.standard_normal(m.shape)).astype(np.int64)
    return out


@dataclass(frozen=True)
class ReadoutConfig:
    """Detector and timing configuration of one readout."""

    photon_rate: float              # steady-state rate R0, counts/s
    contrast: float = 0.04          # relative fluorescence dip of m_S=+-1
    repolarization_time: float = 1e-6  # s
    bin_width: float = 1e-6         # s
    reference_ratio: float = 1.0    # reference beam rate / R0
    laser_time: float = 100e-6      # s
    window_time: float = 10e-6      # s
    sequence_time: float = 160e-6   # s
    reference_enabled: bool = True

    def __post_init__(self):
        values = (self.photon_rate, self.contrast, self.repolarization_time,
                  self.bin_width, self.reference_ratio, self.laser_time,
                  self.window_time, self.sequence_time)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("readout parameters must be finite")
        if self.photon_rate <= 0:
            raise ValueError("photon rate must be positive")
        if not 0.0 < self.contrast < 1.0:
            raise ValueError("contrast must lie in (0, 1)")
        if not self.window_time < self.laser_time <= self.sequence_time:
            raise ValueError("need window_time < laser_time <= sequence_time")
        if self.repolarization_time <= 0 or self.bin_width <= 0:
            raise ValueError("time constants must be positive")
        if self.reference_ratio <= 0:
            raise ValueError("reference ratio must be positive")

    @property
    def window_counts(self) -> float:
        """Mean steady-state counts per integration window."""
        return self.photon_rate * self.window_time

    def window_bins(self) -> int:
        n = self.window_time / self.bin_width
        if abs(n - round(n)) > 1e-9:
            raise ValueError("window_time must be a multiple of bin_width")
        return int(round(n))

    def laser_bins(self) -> int:
        n = self.laser_time / self.bin_width
        if abs(n - round(n)) > 1e-9:
            raise ValueError("laser_time must be a multiple of bin_width")
        return int(round(n))


@dataclass
class ReadoutRecord:
    """Per-bin counts over the laser window(s) of one or two sequences."""

    signal: np.ndarray            # int counts, shape (n_sequences, n_bins)
    reference: np.ndarray | None  # same shape, or None
    bin_width: float
    sequence_index: int = 0
    timestamp: float = 0.0

    def __post_init__(self):
        self.signal = np.atleast_2d(np.asarray(self.signal))
        if np.any(self.signal < 0):
            raise ValueError("photon counts must be non-negative")
        if self.reference is not None:
            self.reference = np.atleast_2d(np.asarray(self.reference))
            if self.reference.shape != self.signal.shape:
                raise ValueError("signal and reference bin grids differ")


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


def fluorescence_expectation(p_signal: float, cfg: ReadoutConfig, t):
    """Fluorescence rate (counts/s) at time ``t`` into the laser pulse.

    ``rate = R0 * (1 - contrast * (1 - p_signal) * exp(-t / tau))``: the
    dip below the steady state is proportional to the ``m_S = +-1``
    population and decays as the spins repolarize.
    """
    if not 0.0 <= p_signal <= 1.0:
        raise ValueError("population must lie in [0, 1]")
    t = np.asarray(t, dtype=float)
    dip = cfg.contrast * (1.0 - p_signal) * np.exp(-t / cfg.repolarization_time)
    return cfg.photon_rate * (1.0 - dip)


def sample_counts(rates, laser_noise, bin_width: float, seed) -> np.ndarray:
    """Poisson counts per bin with multiplicative laser modulation.

    ``counts_k ~ Poisson(rates_k * (1 + laser_noise_k) * bin_width)``.
    Negative modulated rates are clipped to zero with a warning.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    noise = 0.0 if laser_noise is None else np.asarray(laser_noise, dtype=float)
    mean = rates * (1.0 + noise) * bin_width
    if np.any(mean < 0):
        warnings.warn("laser noise drove the photon rate negative; clipping",
                      RuntimeWarning, stacklevel=2)
        mean = np.clip(mean, 0.0, None)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return poisson_counts(rng, mean)


def difference_detector(signal, reference, ratio):
    """Per-bin balanced subtraction ``signal - ratio * reference``.

    ``ratio`` may be a scalar or a per-bin array; matching it to the
    expected signal/reference level ratio nulls correlated multiplicative
    noise in the window-integrated output.
    """
    signal = np.asarray(signal, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if signal.shape != reference.shape:
        raise ValueError("signal and reference bin grids differ")
    return signal - np.asarray(ratio, dtype=float) * reference


# ---------------------------------------------------------------------------
# window-integrated model (used by both record extraction and Monte Carlo)
# ---------------------------------------------------------------------------

def window_dip_fraction(cfg: ReadoutConfig, window: int) -> float:
    """Mean of ``exp(-t/tau)`` over the first (0) or last (1) window."""
    tau = cfg.repolarization_time
    if window == 0:
        lo, hi = 0.0, cfg.window_time
    else:
        lo, hi = cfg.laser_time - cfg.window_time, cfg.laser_time
    return tau * (math.exp(-lo / tau) - math.exp(-hi / tau)) / cfg.window_time


def expected_window_counts(p, cfg: ReadoutConfig, window: int):
    """Expected signal-channel counts in one integration window."""
    p = np.asarray(p, dtype=float)
    frac = window_dip_fraction(cfg, window)
    return cfg.window_counts * (1.0 - cfg.contrast * (1.0 - p) * frac)


def simulate_record(populations, cfg: ReadoutConfig, seed,
                    laser_noise=None, sequence_index: int = 0) -> ReadoutRecord:
    """Sample a per-bin record for one or two sequences.

    ``populations`` holds the ``m_S = 0`` population entering each laser
    pulse; ``laser_noise`` is an optional per-(sequence, bin) relative
    intensity array applied to both detector channels.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    populations = np.atleast_1d(np.asarray(populations, dtype=float))
    n_bins = cfg.laser_bins()
    t = (np.arange(n_bins) + 0.5) * cfg.bin_width
    signal = np.empty((populations.size, n_bins), dtype=np.int64)
    reference = None
    if cfg.reference_enabled:
        reference = np.empty_like(signal)
    for k, p in enumerate(populations):
        eps = None if laser_noise is None else np.asarray(laser_noise)[k]
        rates = fluorescence_expectation(p, cfg, t)
        signal[k] = sample_counts(rates, eps, cfg.bin_width, rng)
        if reference is not None:
            ref_rates = np.full(n_bins, cfg.photon_rate * cfg.reference_ratio)
            reference[k] = sample_counts(ref_rates, eps, cfg.bin_width, rng)
    return ReadoutRecord(signal, reference, cfg.bin_width,
                         sequence_index=sequence_index)


def _window_slices(cfg: ReadoutConfig):
    wb = cfg.window_bins()
    lb = cfg.laser_bins()
    return slice(0, wb), slice(lb - wb, lb)


def _record_window_sums(record: ReadoutRecord, cfg: ReadoutConfig,
                        balance_population: float):
    """Window sums per sequence after balanced reference subtraction."""
    w1, w2 = _window_slices(cfg)
    sums = []
    for k in range(record.signal.shape[0]):
        sig = record.signal[k].astype(float)
        if record.reference is not None and cfg.reference_enabled:
            t = (np.arange(sig.size) + 0.5) * cfg.bin_width
            expected = fluorescence_expectation(balance_population, cfg, t)
            ratio = expected / (cfg.photon_rate * cfg.reference_ratio)
            net = difference_detector(sig, record.reference[k], ratio)
        else:
            net = sig
        sums.append((net[w1].sum(), net[w2].sum()))
    return sums


def extract_signal(record: ReadoutRecord, scheme: str, cfg: ReadoutConfig,
                   balance_population: float = 0.5) -> float:
    """Window-weighted scalar signal of one scheme, normalized by
    ``photon_rate * window_time``."""
    if scheme not in SCHEME_SEQUENCES:
        raise ValueError(f"unknown scheme {scheme!r}")
    need = SCHEME_SEQUENCES[scheme]
    if record.signal.shape[0] < need:
        raise ValueError(f"scheme {scheme} needs {need} sequence(s) per record")
    sums = _record_window_sums(record, cfg, balance_population)
    norm = cfg.window_counts
    s_a = [w1 / norm for w1, _ in sums]
    s_b = [(w1 - w2) / norm for w1, w2 in sums]
    if scheme == "A":
        return float(s_a[0])
    if scheme == "B":
        return float(s_b[0])
    if scheme == "C":
        return float(s_a[0] - s_a[1])
    return float(s_b[0] - s_b[1])


# ---------------------------------------------------------------------------
# vectorized Monte Carlo path
# ---------------------------------------------------------------------------

def sequence_signals(populations, cfg: ReadoutConfig, rng,
                     laser_eps=(None, None),
                     balance_population: float = 0.5):
    """Window-level sampled ``(S_A, S_B)`` for a batch of sequences.

    Counts are drawn per integration window (the window sum of an
    inhomogeneous Poisson process is Poisson with the integrated mean, so
    no per-bin sampling is needed).  ``laser_eps`` optionally holds the
    relative laser noise at the two window positions of every sequence.
    """
    p = np.asarray(populations, dtype=float)
    eps1 = np.zeros(p.shape) if laser_eps[0] is None else np.asarray(laser_eps[0])
    eps2 = np.zeros(p.shape) if laser_eps[1] is None else np.asarray(laser_eps[1])

    mean1 = expected_window_counts(p, cfg, 0) * (1.0 + eps1)
    mean2 = expected_window_counts(p, cfg, 1) * (1.0 + eps2)
    if np.any(mean1 < 0) or np.any(mean2 < 0):
        warnings.warn("laser noise drove the photon rate negative; clipping",
                      RuntimeWarning, stacklevel=2)
        mean1 = np.clip(mean1, 0.0, None)
        mean2 = np.clip(mean2, 0.0, None)
    n1 = poisson_counts(rng, mean1).astype(float)
    n2 = poisson_counts(rng, mean2).astype(float)

    if cfg.reference_enabled:
        ref_mean = cfg.window_counts * cfg.reference_ratio
        r1 = expected_window_counts(balance_population, cfg, 0) / ref_mean
        r2 = expected_window_counts(balance_population, cfg, 1) / ref_mean
        nr1 = poisson_counts(rng, np.full(p.shape, ref_mean)
                             * (1.0 + eps1)).astype(float)
        nr2 = poisson_counts(rng, np.full(p.shape, ref_mean)
                             * (1.0 + eps2)).astype(float)
        n1 = n1 - r1 * nr1
        n2 = n2 - r2 * nr2

    norm = cfg.window_counts
    s_a = n1 / norm
    s_b = (n1 - n2) / norm
    return s_a, s_b


def pair_difference(values: np.ndarray) -> np.ndarray:
    """Consecutive-pair differences ``x[0]-x[1], x[2]-x[3], ...``."""
    values = np.asarray(values)
    if values.size % 2:
        raise ValueError("need an even number of sequences for paired schemes")
    return values[0::2] - values[1::2]


def signal_slope_per_population(cfg: ReadoutConfig) -> float:
    """``dS/dp`` of the scheme A/B signals: contrast times the first-window
    repolarization weight."""
    return cfg.contrast * window_dip_fraction(cfg, 0)


def signal_response_per_tesla(cfg: ReadoutConfig, phase_time: float,
                              gamma_e: float, decay_envelope: float,
                              scheme: str) -> float:
    """Small-signal response ``|dS/dB|`` of a scheme at the working point.

    Combines the echo phase per tesla ``4 gamma_e phase_time``, the
    population slope ``envelope / 2`` at the equal-population point, the
    per-population signal slope, and the scheme multiplier.
    """
    phase_per_tesla = 4.0 * gamma_e * phase_time
    pop_per_phase = decay_envelope / 2.0
    return (SCHEME_RESPONSE[scheme] * signal_slope_per_population(cfg)
            * pop_per_phase * phase_per_tesla)
