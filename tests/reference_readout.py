"""Per-bin readout model: the reference for the window-level sampler.

The package draws photon counts once per integration window
(:func:`nvmag.readout.sequence_signals`), which is exact because the
window sum of an inhomogeneous Poisson process is Poisson with the
integrated mean.  This module keeps the slower, literal model it
replaces: fluorescence sampled on a grid of ``bin_width`` bins across the
whole laser pulse, Poisson counts per bin on the signal and reference
channels, per-bin balanced subtraction, and window sums taken from the
record.  Tests compare the two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from nvmag.readout import SCHEME_SEQUENCES, ReadoutConfig, poisson_counts


@dataclass
class ReadoutRecord:
    """Per-bin counts over the laser pulses of consecutive sequences."""

    signal: np.ndarray            # int counts, shape (n_sequences, n_bins)
    reference: np.ndarray | None  # same shape, or None
    bin_width: float

    def __post_init__(self):
        self.signal = np.atleast_2d(np.asarray(self.signal))
        if np.any(self.signal < 0):
            raise ValueError("photon counts must be non-negative")
        if self.reference is not None:
            self.reference = np.atleast_2d(np.asarray(self.reference))
            if self.reference.shape != self.signal.shape:
                raise ValueError("signal and reference bin grids differ")


def bin_count(duration: float, bin_width: float) -> int:
    """Bins in ``duration``; it must be a whole multiple of ``bin_width``."""
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    n = duration / bin_width
    if abs(n - round(n)) > 1e-9:
        raise ValueError("duration must be a multiple of bin_width")
    return int(round(n))


def bin_centres(cfg: ReadoutConfig, bin_width: float) -> np.ndarray:
    return (np.arange(bin_count(cfg.laser_time, bin_width)) + 0.5) * bin_width


def fluorescence_expectation(p_signal, cfg: ReadoutConfig, t):
    """Fluorescence rate (counts/s) at time ``t`` into the laser pulse.

    ``rate = R0 * (1 - contrast * (1 - p_signal) * exp(-t / tau))``: the
    dip below the steady state is proportional to the ``m_S = +-1``
    population and decays as the spins repolarize.  ``p_signal`` and
    ``t`` broadcast against each other.
    """
    p_signal = np.asarray(p_signal, dtype=float)
    if not np.all((p_signal >= 0.0) & (p_signal <= 1.0)):
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


def simulate_record(populations, cfg: ReadoutConfig, seed, bin_width: float,
                    laser_noise=None) -> ReadoutRecord:
    """Sample a per-bin record, one row per sequence.

    ``populations`` holds the ``m_S = 0`` population entering each laser
    pulse; ``laser_noise`` is an optional per-(sequence, bin) relative
    intensity array applied to both detector channels.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    populations = np.atleast_1d(np.asarray(populations, dtype=float))
    t = bin_centres(cfg, bin_width)
    rates = fluorescence_expectation(populations[:, None], cfg, t)
    signal = sample_counts(rates, laser_noise, bin_width, rng)
    reference = None
    if cfg.reference_enabled:
        ref_rates = np.full(rates.shape, cfg.photon_rate * cfg.reference_ratio)
        reference = sample_counts(ref_rates, laser_noise, bin_width, rng)
    return ReadoutRecord(signal, reference, bin_width)


def window_sums(record: ReadoutRecord, cfg: ReadoutConfig,
                balance_population=0.5):
    """First- and last-window sums per sequence after balanced reference
    subtraction; ``balance_population`` is a scalar or one per sequence."""
    net = record.signal.astype(float)
    t = bin_centres(cfg, record.bin_width)
    if record.reference is not None and cfg.reference_enabled:
        balance = np.asarray(balance_population, dtype=float).reshape(-1, 1)
        expected = fluorescence_expectation(balance, cfg, t)
        ratio = expected / (cfg.photon_rate * cfg.reference_ratio)
        net = difference_detector(net, record.reference, ratio)
    wb = bin_count(cfg.window_time, record.bin_width)
    return net[:, :wb].sum(axis=1), net[:, t.size - wb:].sum(axis=1)


def extract_signal(record: ReadoutRecord, scheme: str, cfg: ReadoutConfig,
                   balance_population=0.5) -> np.ndarray:
    """Scheme signal of every sequence (A, B) or consecutive pair (C, D),
    normalized by ``photon_rate * window_time``."""
    if scheme not in SCHEME_SEQUENCES:
        raise ValueError(f"unknown scheme {scheme!r}")
    need = SCHEME_SEQUENCES[scheme]
    if record.signal.shape[0] % need or record.signal.shape[0] < need:
        raise ValueError(f"scheme {scheme} needs whole groups of {need} "
                         "sequence(s)")
    first, last = window_sums(record, cfg, balance_population)
    norm = cfg.window_counts
    single = first / norm if scheme in ("A", "C") else (first - last) / norm
    if need == 1:
        return single
    return single[0::2] - single[1::2]
