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
both: the pulses before the final one are computed once for the chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, filters, noise as _noise, readout, sequences
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


def _scheme_series(scenario: Scenario, dg, df, eps,
                   stream_offset: int = 0, field_amplitude=0.0) -> dict:
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
    group draws its photons from the chunk's own seed on its stream.
    """
    s = scenario.sequence
    n = len(dg)
    # (stream, members, paired) of every requested group
    groups = [(stream, members, SCHEME_SEQUENCES[members[0]] == 2)
              for stream, members in SCHEME_GROUPS.items()
              if any(m in scenario.schemes for m in members)]
    phases = np.array([s.final_phase, -s.final_phase])
    balance = _balance_populations(scenario)
    # (S_A, S_B) per group
    records = [(np.empty(n), np.empty(n)) for _ in groups]
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
            final_phase=phases[parity], m_i_values=s.m_i_values())
        for g, (stream, _, _) in enumerate(groups):
            rng = np.random.default_rng(
                scenario.shot_seed(stream + stream_offset, index))
            records[g][0][sl], records[g][1][sl] = readout.sequence_signals(
                populations[g], scenario.readout, rng, eps[:, sl],
                balance[parity[g]])

    series = {}
    for (_, members, paired), record in zip(groups, records):
        spacing = (2 if paired else 1) * s.sequence_time
        for scheme, values in zip(members, record):
            if scheme in scenario.schemes:
                if paired:
                    values = readout.pair_difference(values)
                series[scheme] = ReadoutSeries(values, spacing, scheme)
    return {scheme: series[scheme] for scheme in scenario.schemes}


def error_conversion_slopes(scenario: Scenario, dg=3e-4, df=30.0):
    """Small-error population slopes (per relative amplitude, per Hz)."""
    s = scenario.sequence
    dz_g, dz_f = sequences.pulse_error_response(
        [dg, 0.0], [0.0, df], phase_time=s.phase_time, rabi=s.rabi,
        params=scenario.hamiltonian, final_phase=s.final_phase,
        m_i_values=s.m_i_values())
    return dz_g / dg, dz_f / df


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
    response of each scheme is sinusoidal in the accumulated phase and
    its fitted modulation amplitude is the signal amplitude entering the
    closed-form sensitivity.
    """
    started = utc_now()
    amplitudes = np.asarray(amplitudes, dtype=float)
    n = scenario.n_sequences
    n_total = n * amplitudes.size
    dg_all, df_all, eps_all = _noise_record(scenario, n_total)

    phase_time = scenario.sequence.phase_time
    gamma_e = scenario.hamiltonian.gamma_e
    means = {scheme: np.empty(amplitudes.size) for scheme in scenario.schemes}

    for k, amp in enumerate(amplitudes):
        sl = slice(k * n, (k + 1) * n)
        series = _scheme_series(
            scenario, dg_all[sl], df_all[sl], eps_all[:, sl],
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
    """
    started = utc_now()
    n = scenario.n_sequences
    dg, df, eps = _noise_record(scenario, n)
    out = {}
    for scheme, series in _scheme_series(scenario, dg, df, eps).items():
        grid = analysis.default_time_grid(series.values.size, series.spacing)
        out[scheme] = SchemeScaling(
            series=series,
            allan=analysis.allan_deviation(series.values, series.spacing, grid),
            std=analysis.std_vs_time(series.values, series.spacing, grid),
            response_per_tesla=scenario.field_response(scheme),
        )

    result = ScalingResult(out)
    if out_dir is not None:
        tables = {}
        for scheme, sc in out.items():
            tables[f"series_{scheme}.csv"] = (
                ["index", "time_s", "value"],
                [np.arange(sc.series.values.size), sc.series.times(),
                 sc.series.values])
            for curve, tag in ((sc.allan, "allan"), (sc.std, "std")):
                tables[f"{tag}_{scheme}.csv"] = (
                    ["tau_s", "deviation", "deviation_T"],
                    [curve.times, curve.values,
                     curve.values / sc.response_per_tesla])
        result.outputs = write_run(scenario, out_dir, started, tables)
    return result


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
    :func:`nvmag.readout.shot_variance`).  Microwave noise converts
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

    # shot-noise-only deviation per evaluation at the two final phases;
    # the paired schemes difference one sequence at each
    var_a, var_b = readout.shot_variance(cfg, _balance_populations(scenario))
    sigma1 = {}
    for members in SCHEME_GROUPS.values():
        n_phases = SCHEME_SEQUENCES[members[0]]
        for scheme, var in zip(members, (var_a, var_b)):
            sigma1[scheme] = float(np.sqrt(var[:n_phases].sum()))
    sigma1 = {scheme: sigma1[scheme] for scheme in scenario.schemes}

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
