"""Scenario runners wiring spin simulation, noise, readout and analysis.

Every runner is deterministic given (scenario, master seed): one noise
record of plain arrays (:func:`_noise_record`) is synthesized up front
from fixed per-channel seed streams, and the rest of a window record is
evaluated in chunks of ``CHUNK_SIZE`` sequences.  Each chunk gets its
echo populations, its photon draw (from the chunk's own seed) and its
window signals in one step, so no population array spans the run.  The
draws depend on that fixed chunk size, and so do the last bits of the
populations: numpy's vectorized kernels may round the tail of an array
differently from its body, so chunks always start at multiples of
``CHUNK_SIZE``.

Schemes are computed per group: A and B share one window record (echo
populations at the constant final phase and one photon draw, on one
shot-noise stream), and C and D share one (alternating final phases, on
another; see :data:`SCHEME_GROUPS`).  Requesting A or C next to B or D
costs only the extraction.  The two groups differ only in the echo's
final pulse and in the photon draw, so one echo call per chunk serves
both: the pulses before the final one are computed once for the chunk,
and the final pulse's axis once per distinct final phase (the chunk
passes the two phases and each sequence's index into them).  C and D
are pair-differenced chunk by chunk, so no full-length window record is
kept.  The noise-free working point that balances the reference is
evaluated once per run, not once per record.

All numpy work stays in the calling process.  The scaling run's
``series_<scheme>.csv`` tables are formatted by an
:class:`nvmag.io.SeriesStream`, which :func:`run_scaling_experiment`
makes before the noise record, publishes each chunk's rows to, and
joins when it writes its tables, which travel as their values alone
(:class:`nvmag.io.SeriesColumns`).  A and B share one length and
spacing, and so do C and D, so each block of a pair's index and time
text is formatted once, as bytes, and filled with each member's values.
With more than one usable CPU the stream forks formatters, which format
the templates while the noise record is synthesized (they depend on no
value) and the published rows while the later chunks are computed; with
one, the join formats every block from the same templates.  No other
table forks.  The bytes of every table do not depend on the number of
CPUs.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import (analysis, filters, io as _io, noise as _noise, readout,
               sequences)
from .readout import ReadoutSeries, SCHEME_SEQUENCES
from .scenario import Scenario, CHUNK_SIZE, utc_now, write_run

#: schemes extracted from one window record, keyed by the record's
#: shot-noise stream; the first member reads ``S_A``, the second ``S_B``
#: (pair-differenced when the group is paired)
SCHEME_GROUPS = {11: ("A", "B"), 13: ("C", "D")}
#: frequency points of the noise budgets
BUDGET_GRID_POINTS = 400
#: scheme whose integration windows filter the budgets
BUDGET_SCHEME = "D"


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _noise_record(scenario: Scenario, n: int):
    """Drive errors ``(dg, df)`` of every sequence and the relative laser
    noise ``eps`` of its two integration windows, shape ``(2, n)``.

    Microwave noise with correlation times longer than one sequence is
    constant within it, so its traces are read once per sequence; laser
    noise is the average over each window, read at the window centres.
    An absent or zero channel reads as zeros.
    """
    cfg, s = scenario.readout, scenario.sequence
    # the laser pulse starts when the echo ends
    centres = (s.echo_time + cfg.window_time / 2.0,
               s.echo_time + cfg.laser_time - cfg.window_time / 2.0)
    reads = {"mw_amplitude": ((0.0,), 0.0), "mw_frequency": ((0.0,), 0.0),
             "laser_intensity": (centres, cfg.window_time)}
    record = []
    for channel, (offsets, window) in reads.items():
        model = scenario.noise.get(channel)
        if model is None or model.is_zero:
            record.append(np.zeros((len(offsets), n)))
        else:
            record.append(_noise.synthesize_trace(
                model, n * s.sequence_time, s.sequence_time,
                scenario.channel_seed(channel), offsets, window).samples)
    (dg,), (df,), eps = record
    return dg, df, eps


def _balance_populations(scenario: Scenario) -> np.ndarray:
    """Noise-free working-point populations at the two final phases: the
    reference's balance points and the budget's shot-only operating
    points."""
    s = scenario.sequence
    out = []
    for phase in (s.final_phase, -s.final_phase):
        p = sequences.echo_populations(
            s.phase_time, s.rabi, scenario.hamiltonian, 0.0, 0.0,
            decay=scenario.decay, final_phase=phase,
            m_i_values=s.m_i_values())
        out.append(float(p[0]))
    return np.asarray(out)


def _scheme_series(scenario: Scenario, dg, df, eps, balance,
                   stream_offset: int = 0, field_amplitude=0.0,
                   tables=None) -> dict:
    """Readout series of every requested scheme, keyed in scenario order.

    Each scheme group is drawn once: one window record (populations and
    shot noise) per group, on the group's stream plus ``stream_offset``.
    A and B are the ``S_A`` and ``S_B`` of one constant-final-phase
    record; C and D pair-difference those of one record alternating
    between ``final_phase`` and ``-final_phase``.  B and D therefore
    never depend on whether A or C are requested.

    Sequence ``k`` of a group has drive errors ``dg[k]``, ``df[k]`` and
    window laser noise ``eps[:, k]``.  The records are evaluated one
    chunk at a time: one echo call per chunk gives every group's
    populations (the groups differ only in the final pulse), then each
    group draws its photons from the chunk's own seed on its stream, and
    C and D are pair-differenced chunk by chunk.  Given an
    :class:`nvmag.io.SeriesStream` keyed by scheme as ``tables``, the
    series are its values, and each chunk's rows are published to it.
    ``balance`` is the scenario's :func:`_balance_populations`, which a
    runner computes once however many records it draws.
    """
    s = scenario.sequence
    n = len(dg)
    # (stream, members, paired) of every requested group
    groups = [(stream, members, SCHEME_SEQUENCES[members[0]] == 2)
              for stream, members in SCHEME_GROUPS.items()
              if any(m in scenario.schemes for m in members)]
    phases = np.array([s.final_phase, -s.final_phase])
    values = {scheme: np.empty(n // SCHEME_SEQUENCES[scheme])
              if tables is None else tables.values(scheme)
              for scheme in scenario.schemes}
    for index in range((n + CHUNK_SIZE - 1) // CHUNK_SIZE):
        sl = slice(index * CHUNK_SIZE, min((index + 1) * CHUNK_SIZE, n))
        # index into (final_phase, -final_phase) per sequence and group
        alternating = np.arange(sl.start, sl.stop) % 2
        parity = np.stack([alternating if paired else
                           np.zeros_like(alternating)
                           for _, _, paired in groups])
        populations = sequences.echo_populations(
            s.phase_time, s.rabi, scenario.hamiltonian, dg[sl], df[sl],
            field_amplitude=field_amplitude, decay=scenario.decay,
            final_phase=phases, phase_index=parity,
            m_i_values=s.m_i_values())
        for g, (stream, members, paired) in enumerate(groups):
            rng = np.random.default_rng(
                scenario.shot_seed(stream + stream_offset, index))
            signals = readout.sequence_signals(
                populations[g], scenario.readout, rng, eps[:, sl],
                balance[parity[g]])
            rows = slice(sl.start // 2, sl.stop // 2) if paired else sl
            for scheme, signal in zip(members, signals):
                if scheme in values:
                    values[scheme][rows] = (readout.pair_difference(signal)
                                            if paired else signal)
                    if tables is not None:
                        tables.publish(scheme, rows.stop)

    return {scheme: ReadoutSeries(
        v, SCHEME_SEQUENCES[scheme] * s.sequence_time, scheme)
        for scheme, v in values.items()}


def error_conversion_slopes(scenario: Scenario, dg=3e-4, df=30.0):
    """Small-error population slopes (per relative amplitude, per Hz)."""
    s = scenario.sequence
    dz_g, dz_f = sequences.pulse_error_response(
        [dg, 0.0], [0.0, df], phase_time=s.phase_time, rabi=s.rabi,
        params=scenario.hamiltonian, final_phase=s.final_phase,
        m_i_values=s.m_i_values())
    return dz_g / dg, dz_f / df


def shot_noise_limit(scenario: Scenario):
    """Shot-only deviation ``sigma1`` per evaluation and shot-noise-limited
    sensitivity ``eta`` (T/sqrt(Hz)) of every requested scheme, as two
    dicts keyed in scenario order.

    ``sigma1`` is the exact Poisson deviation of the noise-free working
    point (:func:`nvmag.readout.shot_variance`); the paired schemes
    difference one sequence at each final phase.  A scheme evaluates the
    field once per ``k`` sequences (:data:`SCHEME_SEQUENCES`), so white
    shot noise averages to ``eta = sigma1 sqrt(k T_seq) / |dS/dB|`` with
    the scheme's :meth:`~nvmag.scenario.Scenario.field_response`.
    """
    var_a, var_b = readout.shot_variance(scenario.readout,
                                         _balance_populations(scenario))
    sigma1 = {}
    for members in SCHEME_GROUPS.values():
        n_phases = SCHEME_SEQUENCES[members[0]]
        for scheme, var in zip(members, (var_a, var_b)):
            sigma1[scheme] = float(np.sqrt(var[:n_phases].sum()))
    sigma1 = {scheme: sigma1[scheme] for scheme in scenario.schemes}
    t_seq = scenario.sequence.sequence_time
    eta = {scheme: s1 * math.sqrt(SCHEME_SEQUENCES[scheme] * t_seq)
           / scenario.field_response(scheme) for scheme, s1 in sigma1.items()}
    return sigma1, eta


# ---------------------------------------------------------------------------
# experiment: AC amplitude sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    amplitudes: np.ndarray
    means: dict                    # scheme -> mean signal per amplitude
    response_amplitude: dict       # scheme -> fitted modulation amplitude
    outputs: list = field(default_factory=list)


def run_ac_sweep(scenario: Scenario, amplitudes, out_dir=None) -> SweepResult:
    """Mean extracted signal versus test-field amplitude.

    The test field is phase-locked to the echo (period equal to the
    free-evolution time, zero crossing on the refocusing pulse); the mean
    response of each scheme is sinusoidal in the accumulated phase, and
    the fit returns its modulation amplitude.
    """
    started = utc_now()
    amplitudes = np.asarray(amplitudes, dtype=float)
    n = scenario.n_sequences
    n_total = n * amplitudes.size
    dg_all, df_all, eps_all = _noise_record(scenario, n_total)

    phase_time = scenario.sequence.phase_time
    gamma_e = scenario.hamiltonian.gamma_e
    means = {scheme: np.empty(amplitudes.size) for scheme in scenario.schemes}
    # the working point does not depend on the test field
    balance = _balance_populations(scenario)

    for k, amp in enumerate(amplitudes):
        sl = slice(k * n, (k + 1) * n)
        series = _scheme_series(
            scenario, dg_all[sl], df_all[sl], eps_all[:, sl], balance,
            stream_offset=1000 * (k + 1), field_amplitude=amp)
        for scheme, s in series.items():
            means[scheme][k] = s.values.mean()

    # fit mean = offset + A * sin(phi(B)) per scheme
    phi = sequences.analytic_echo_phase(amplitudes, phase_time, gamma_e)
    response = {}
    basis = np.column_stack([np.ones_like(phi), np.sin(phi)])
    for scheme in scenario.schemes:
        coef, *_ = np.linalg.lstsq(basis, means[scheme], rcond=None)
        response[scheme] = float(abs(coef[1]))

    result = SweepResult(amplitudes, means, response)
    if out_dir is not None:
        schemes = scenario.schemes
        result.outputs = write_run(scenario, out_dir, started, {
            "sweep.csv": (["b_ac_T"] + [f"mean_signal_{s}" for s in schemes],
                          [amplitudes] + [means[s] for s in schemes]),
            "sweep_response.csv": (
                [f"response_amplitude_{s}" for s in schemes],
                [np.array([response[s]]) for s in schemes])})
    return result


# ---------------------------------------------------------------------------
# experiment: scaling of deviation with averaging time
# ---------------------------------------------------------------------------

@dataclass
class SchemeScaling:
    series: ReadoutSeries
    allan: analysis.ScalingCurve
    std: analysis.ScalingCurve
    response_per_tesla: float


@dataclass
class ScalingResult:
    schemes: dict                  # scheme -> SchemeScaling
    outputs: list = field(default_factory=list)


def run_scaling_experiment(scenario: Scenario, out_dir=None) -> ScalingResult:
    """Consecutive field evaluations at the working point, with scaling
    curves (Allan deviation and standard deviation of block means).

    The test field is off: the run probes how the per-evaluation
    deviation averages down, with correlated microwave and laser noise
    sampled across sequences from the scenario's spectral models.

    With ``out_dir``, the ``series_<scheme>.csv`` tables are formatted by
    an :class:`nvmag.io.SeriesStream` (on the spare CPUs while the series
    and the estimators are computed here, where there are any), and
    written with the rest.
    """
    started = utc_now()
    n = scenario.n_sequences
    t_seq = scenario.sequence.sequence_time
    series_tables = contextlib.nullcontext() if out_dir is None else \
        _io.SeriesStream({scheme: (
            Path(out_dir) / f"series_{scheme}.csv",
            n // SCHEME_SEQUENCES[scheme], SCHEME_SEQUENCES[scheme] * t_seq)
            for scheme in scenario.schemes})
    with series_tables as stream:
        out = {}
        # the noise record is freed once the series are drawn
        for scheme, series in _scheme_series(
                scenario, *_noise_record(scenario, n),
                _balance_populations(scenario), tables=stream).items():
            grid = analysis.default_time_grid(series.values.size,
                                              series.spacing)
            out[scheme] = SchemeScaling(
                series=series,
                allan=analysis.allan_deviation(series.values, series.spacing,
                                               grid),
                std=analysis.std_vs_time(series.values, series.spacing, grid),
                response_per_tesla=scenario.field_response(scheme),
            )
        result = ScalingResult(out)
        if out_dir is not None:
            series = {scheme: _io.SeriesColumns(stream, scheme)
                      for scheme in out}
            result.outputs = write_run(scenario, out_dir, started,
                                       _scaling_tables(out, series))
    return result


def _scaling_tables(schemes: dict, series: dict) -> dict:
    """The series, Allan and std tables of every scheme, for
    :func:`nvmag.scenario.write_run`; ``series`` holds the columns of
    each series table."""
    tables = {}
    for scheme, sc in schemes.items():
        tables[f"series_{scheme}.csv"] = (["index", "time_s", "value"],
                                          series[scheme])
        for curve, tag in ((sc.allan, "allan"), (sc.std, "std")):
            tables[f"{tag}_{scheme}.csv"] = (
                ["tau_s", "deviation", "deviation_T"],
                [curve.times, curve.values,
                 curve.values / sc.response_per_tesla])
    return tables


# ---------------------------------------------------------------------------
# experiment: pulse-error scaling
# ---------------------------------------------------------------------------

@dataclass
class ErrorScalingResult:
    amplitude_errors: np.ndarray
    amplitude_response: np.ndarray
    frequency_errors: np.ndarray
    frequency_response: np.ndarray
    outputs: list = field(default_factory=list)


def run_error_scaling(scenario: Scenario, amplitude_errors=None,
                      frequency_errors=None, out_dir=None) -> ErrorScalingResult:
    """Population error versus drive amplitude / frequency error.

    Emits the two limiting scans (one error at a time) of the population
    error at the working point.
    """
    started = utc_now()
    if amplitude_errors is None:
        amplitude_errors = np.logspace(-4, -1, 25)
    if frequency_errors is None:
        frequency_errors = np.logspace(1, 5, 25)
    amplitude_errors = np.asarray(amplitude_errors, dtype=float)
    frequency_errors = np.asarray(frequency_errors, dtype=float)
    s = scenario.sequence
    kwargs = dict(phase_time=s.phase_time, rabi=s.rabi,
                  params=scenario.hamiltonian, final_phase=s.final_phase,
                  m_i_values=s.m_i_values())
    dz_g = sequences.pulse_error_response(amplitude_errors, 0.0, **kwargs)
    dz_f = sequences.pulse_error_response(0.0, frequency_errors, **kwargs)
    result = ErrorScalingResult(amplitude_errors, dz_g, frequency_errors, dz_f)
    if out_dir is not None:
        result.outputs = write_run(scenario, out_dir, started, {
            "error_scaling_amplitude.csv": (["delta_g", "delta_z"],
                                            [amplitude_errors, dz_g]),
            "error_scaling_frequency.csv": (["delta_f_Hz", "delta_z"],
                                            [frequency_errors, dz_f])})
    return result


# ---------------------------------------------------------------------------
# experiment: cumulative noise budgets
# ---------------------------------------------------------------------------

@dataclass
class BudgetResult:
    freqs: np.ndarray
    raw: dict            # channel -> cumulative curve, signal units
    filtered: dict       # channel -> window-filtered curve, signal units
    sigma1: dict         # scheme -> shot-only per-evaluation deviation
    slopes: dict         # channel -> conversion slope to signal units
    outputs: list = field(default_factory=list)


def run_noise_budget(scenario: Scenario, out_dir=None) -> BudgetResult:
    """Cumulative noise budgets, raw and filtered, in signal units.

    Every channel's spectral density is integrated downward from the
    inverse sequence length ``1/T_seq`` and converted to per-evaluation
    signal units through its linear error slope, so the curves compare
    directly against the shot-noise-only per-evaluation deviation, the
    exact Poisson deviation of the noise-free working point (see
    :func:`shot_noise_limit`).  Microwave noise converts
    through the signal slope of :data:`BUDGET_SCHEME`.  Filtered budgets
    apply the integration-window transmission of :data:`BUDGET_SCHEME`
    (microwave channels see the unreferenced-within-sequence variant,
    see :func:`nvmag.filters.filter_scheme_for_channel`).

    Two differences from the Monte Carlo runners.  They sample microwave
    noise once per sequence, so they resolve it only up to
    ``1/(2 T_seq)``, and the budget's top octave has no counterpart
    there.  And :func:`error_conversion_slopes` takes the slopes of the
    undecayed echo, while the runners scale the echo by the decay
    envelope: on the baseline the budget's microwave slopes are
    ``exp(1/2)`` times those the runners sample.  The baseline's
    amplitude flicker level is calibrated against these slopes.
    """
    started = utc_now()
    cfg, t_seq = scenario.readout, scenario.sequence.sequence_time
    f_top = 1.0 / t_seq
    f_floor = 1.0 / (scenario.n_sequences * t_seq)
    freqs = np.logspace(math.log10(f_floor), math.log10(f_top),
                        BUDGET_GRID_POINTS)

    slope_g, slope_f = error_conversion_slopes(scenario)
    ds_dp = readout.signal_slope_per_population(cfg, BUDGET_SCHEME)
    level = 1.0 - cfg.contrast * 0.5 * readout.window_dip_fraction(cfg, 0)
    slopes = {
        "laser_intensity": level,
        "mw_amplitude": slope_g * ds_dp,
        "mw_frequency": slope_f * ds_dp,
    }

    raw, filtered = {}, {}
    for channel, model in scenario.noise.items():
        density = model.density(freqs)
        raw[channel] = slopes[channel] * _noise.cumulative_rss_descending(
            freqs, density, f_top)
        filtered[channel] = slopes[channel] * \
            filters.filtered_cumulative_noise_descending(
                freqs, density,
                filters.filter_scheme_for_channel(BUDGET_SCHEME, channel),
                cfg.laser_time, cfg.window_time, t_seq, f_top)

    sigma1, _ = shot_noise_limit(scenario)

    result = BudgetResult(freqs, raw, filtered, sigma1, slopes)
    if out_dir is not None:
        tables = {}
        for channel in scenario.noise:
            tables[f"budget_raw_{channel}.csv"] = (
                ["f_Hz", "cumulative_value"], [freqs, raw[channel]])
            tables[f"budget_filtered_{BUDGET_SCHEME}_{channel}.csv"] = (
                ["f_Hz", "cumulative_value"], [freqs, filtered[channel]])
        schemes = sorted(sigma1)
        tables["sigma1.csv"] = ([f"sigma1_{s}" for s in schemes],
                                [np.array([sigma1[s]]) for s in schemes])
        result.outputs = write_run(scenario, out_dir, started, tables)
    return result
