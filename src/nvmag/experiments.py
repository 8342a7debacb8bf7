"""Scenario runners wiring spin simulation, noise, readout and analysis.

Every runner is deterministic given (scenario, master seed): noise traces
are synthesized up front from fixed per-channel seed streams, and photon
shot noise is drawn in chunks of ``CHUNK_SIZE`` sequences, each from its
own seed, so the draws depend on that fixed chunk size.

Schemes are computed per group: A and B share one window record (echo
populations at the constant final phase and one photon draw, on B's
shot-noise stream), and C and D share one (alternating final phases, on
D's stream).  Requesting A or C next to B or D costs only the extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, filters, io as _io, noise as _noise, readout, sequences
from .readout import ReadoutSeries, SCHEME_STREAMS, SCHEME_SEQUENCES
from .scenario import Scenario, RunManifest, CHUNK_SIZE

#: seed-stream offset separating the short shot-only reference run
SIGMA1_STREAM_OFFSET = 100
#: schemes extracted from one window record, keyed by the scheme whose
#: shot-noise stream the record draws on; the first member reads ``S_A``,
#: the second ``S_B`` (pair-differenced when the group is paired)
SCHEME_GROUPS = {"B": ("A", "B"), "D": ("C", "D")}
#: frequency points of the noise budgets
BUDGET_GRID_POINTS = 400
#: scheme whose integration windows filter the budgets
BUDGET_SCHEME = "D"


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _evaluation_sequence(scenario: Scenario) -> sequences.PulseSequence:
    s = scenario.sequence
    return sequences.field_evaluation(
        s.phase_time, s.rabi, s.final_phase,
        scenario.readout.laser_time, s.sequence_time)


def _mw_error_samples(scenario: Scenario, n: int):
    """Per-sequence (amplitude error, frequency error) noise samples.

    One sample per sequence: microwave noise with correlation times
    longer than one sequence is constant within it, so traces are
    synthesized directly at the sequence spacing.
    """
    t_seq = scenario.sequence.sequence_time
    out = {}
    for channel in ("mw_amplitude", "mw_frequency"):
        model = scenario.noise_model(channel)
        if model is None or model.is_zero or n < 2:
            out[channel] = np.zeros(n)
            continue
        trace = _noise.synthesize_trace(model, n * t_seq, t_seq,
                                        scenario.channel_seed(channel))
        out[channel] = trace.samples[:n]
    return out["mw_amplitude"], out["mw_frequency"]


def _laser_window_noise(scenario: Scenario, n: int):
    """Relative laser noise at the two window centres of each sequence."""
    model = scenario.noise_model("laser_intensity")
    if model is None or model.is_zero:
        return (None, None)
    cfg = scenario.readout
    seq = _evaluation_sequence(scenario)
    mw_time = scenario.sequence.phase_time + seq.pulse_times()
    dt = cfg.window_time / 2.0
    trace = _noise.synthesize_trace(model, n * cfg.sequence_time, dt,
                                    scenario.channel_seed("laser_intensity"))
    starts = np.arange(n) * cfg.sequence_time + mw_time
    t1 = starts + cfg.window_time / 2.0
    t2 = starts + cfg.laser_time - cfg.window_time / 2.0
    return trace.value_at(t1), trace.value_at(t2)


def _balance_populations(scenario: Scenario) -> np.ndarray:
    """Noise-free working-point populations at the two final phases, used
    to balance the reference."""
    seq = _evaluation_sequence(scenario)
    s = scenario.sequence
    out = []
    for phase in (s.final_phase, s.alternate_final_phase):
        p = sequences.echo_populations(
            seq, scenario.hamiltonian, 0.0, 0.0,
            field=scenario.ac_field, decay=scenario.decay, final_phase=phase,
            m_i_values=s.m_i_values())
        out.append(float(p[0]))
    return np.asarray(out)


def _sample_window_record(scenario: Scenario, populations, eps_pair,
                          balance, stream: int):
    """Chunk-seeded window-level ``(S_A, S_B)`` of every sequence."""
    n = populations.size
    parts = []
    for index in range((n + CHUNK_SIZE - 1) // CHUNK_SIZE):
        sl = slice(index * CHUNK_SIZE, min((index + 1) * CHUNK_SIZE, n))
        rng = np.random.default_rng(scenario.shot_seed(stream, index))
        eps = (None if eps_pair[0] is None else eps_pair[0][sl],
               None if eps_pair[1] is None else eps_pair[1][sl])
        parts.append(readout.sequence_signals(populations[sl],
                                              scenario.readout, rng, eps,
                                              balance[sl]))
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def _scheme_series(scenario: Scenario, dg, df, eps_pair,
                   stream_offset: int = 0, ac_field=None) -> dict:
    """Readout series of every requested scheme, keyed in scenario order.

    Each scheme group is drawn once: one window record (populations and
    shot noise) per group, on the stream of the group's referenced scheme
    plus ``stream_offset``.  A and B are the ``S_A`` and ``S_B`` of one
    constant-final-phase record; C and D pair-difference those of one
    alternating-final-phase record.  B and D therefore never depend on
    whether A or C are requested.
    """
    s = scenario.sequence
    n = len(dg)
    series = {}
    for stream_scheme, members in SCHEME_GROUPS.items():
        if not any(m in scenario.schemes for m in members):
            continue
        paired = SCHEME_SEQUENCES[stream_scheme] == 2
        # index into (final_phase, alternate_final_phase) per sequence
        parity = np.arange(n) % 2 if paired else np.zeros(n, dtype=np.int64)
        populations = sequences.echo_populations(
            _evaluation_sequence(scenario), scenario.hamiltonian, dg, df,
            field=ac_field if ac_field is not None else scenario.ac_field,
            decay=scenario.decay,
            final_phase=np.array([s.final_phase,
                                  s.alternate_final_phase])[parity],
            m_i_values=s.m_i_values())
        balance = _balance_populations(scenario)[parity]
        s_a, s_b = _sample_window_record(
            scenario, populations, eps_pair, balance,
            SCHEME_STREAMS[stream_scheme] + stream_offset)
        spacing = (2 if paired else 1) * scenario.readout.sequence_time
        for scheme, values in zip(members, (s_a, s_b)):
            if scheme in scenario.schemes:
                if paired:
                    values = readout.pair_difference(values)
                series[scheme] = ReadoutSeries(values, spacing, scheme)
    return {scheme: series[scheme] for scheme in scenario.schemes}


def field_response(scenario: Scenario, scheme: str) -> float:
    """Analytic small-signal response ``|dS/dB|`` (1/T) of a scheme."""
    env = 1.0
    if scenario.decay is not None:
        env = scenario.decay.envelope(scenario.sequence.phase_time)
    return readout.signal_response_per_tesla(
        scenario.readout, scenario.sequence.phase_time,
        scenario.hamiltonian.gamma_e, env, scheme)


def error_conversion_slopes(scenario: Scenario, dg=3e-4, df=30.0):
    """Small-error population slopes (per relative amplitude, per Hz)."""
    s = scenario.sequence
    dz_g = sequences.pulse_error_response(
        [dg], [0.0], phase_time=s.phase_time, rabi=s.rabi,
        params=scenario.hamiltonian, final_phase=s.final_phase,
        m_i_values=s.m_i_values())[0, 0]
    dz_f = sequences.pulse_error_response(
        [0.0], [df], phase_time=s.phase_time, rabi=s.rabi,
        params=scenario.hamiltonian, final_phase=s.final_phase,
        m_i_values=s.m_i_values())[0, 0]
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
    amplitudes = np.asarray(amplitudes, dtype=float)
    n = scenario.n_sequences
    n_total = n * amplitudes.size
    dg_all, df_all = _mw_error_samples(scenario, n_total)
    eps_all = _laser_window_noise(scenario, n_total)

    phase_time = scenario.sequence.phase_time
    gamma_e = scenario.hamiltonian.gamma_e
    means = {scheme: np.empty(amplitudes.size) for scheme in scenario.schemes}

    for k, amp in enumerate(amplitudes):
        sl = slice(k * n, (k + 1) * n)
        eps = tuple(None if e is None else e[sl] for e in eps_all)
        series = _scheme_series(
            scenario, dg_all[sl], df_all[sl], eps,
            stream_offset=1000 * (k + 1),
            ac_field=sequences.locked_field(amp, phase_time))
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
        manifest = RunManifest.start(scenario)
        header = ["b_ac_T"] + [f"mean_signal_{s}" for s in scenario.schemes]
        cols = [amplitudes] + [means[s] for s in scenario.schemes]
        result.outputs.append(_io.write_table(
            f"{out_dir}/sweep.csv", header, cols))
        result.outputs.append(_io.write_table(
            f"{out_dir}/sweep_response.csv",
            [f"response_amplitude_{s}" for s in scenario.schemes],
            [np.array([response[s]]) for s in scenario.schemes]))
        _finalize(manifest, result.outputs, out_dir)
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
    n = scenario.n_sequences
    dg, df = _mw_error_samples(scenario, n)
    eps = _laser_window_noise(scenario, n)
    out = {}
    for scheme, series in _scheme_series(scenario, dg, df, eps).items():
        grid = analysis.default_time_grid(series.values.size, series.spacing)
        out[scheme] = SchemeScaling(
            series=series,
            allan=analysis.allan_deviation(series.values, series.spacing, grid),
            std=analysis.std_vs_time(series.values, series.spacing, grid),
            response_per_tesla=field_response(scenario, scheme),
        )

    result = ScalingResult(out)
    if out_dir is not None:
        manifest = RunManifest.start(scenario)
        for scheme, sc in out.items():
            result.outputs.append(_io.write_table(
                f"{out_dir}/series_{scheme}.csv",
                ["index", "time_s", "value"],
                [np.arange(sc.series.values.size), sc.series.times(),
                 sc.series.values]))
            for curve, tag in ((sc.allan, "allan"), (sc.std, "std")):
                result.outputs.append(_io.write_table(
                    f"{out_dir}/{tag}_{scheme}.csv",
                    ["tau_s", "deviation", "deviation_T"],
                    [curve.times, curve.values,
                     curve.values / sc.response_per_tesla]))
        _finalize(manifest, result.outputs, out_dir)
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
    dz_g = sequences.pulse_error_response(amplitude_errors, [0.0], **kwargs)[:, 0]
    dz_f = sequences.pulse_error_response([0.0], frequency_errors, **kwargs)[0, :]
    result = ErrorScalingResult(amplitude_errors, dz_g, frequency_errors, dz_f)
    if out_dir is not None:
        manifest = RunManifest.start(scenario)
        result.outputs.append(_io.write_table(
            f"{out_dir}/error_scaling_amplitude.csv",
            ["delta_g", "delta_z"], [amplitude_errors, dz_g]))
        result.outputs.append(_io.write_table(
            f"{out_dir}/error_scaling_frequency.csv",
            ["delta_f_Hz", "delta_z"], [frequency_errors, dz_f]))
        _finalize(manifest, result.outputs, out_dir)
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


def run_noise_budget(scenario: Scenario, out_dir=None,
                     n_reference: int = 4096) -> BudgetResult:
    """Cumulative noise budgets, raw and filtered, in signal units.

    Every channel's spectral density is integrated downward from the
    inverse sequence length and converted to per-evaluation signal units
    through its linear error slope, so the curves compare directly
    against the shot-noise-only per-evaluation deviation measured from a
    short reference run.  Filtered budgets apply the integration-window
    transmission of :data:`BUDGET_SCHEME` (microwave channels see the
    unreferenced-within-sequence variant, see
    :func:`nvmag.filters.filter_scheme_for_channel`).
    """
    cfg = scenario.readout
    f_top = 1.0 / cfg.sequence_time
    f_floor = 1.0 / (scenario.n_sequences * cfg.sequence_time)
    freqs = np.logspace(math.log10(f_floor), math.log10(f_top),
                        BUDGET_GRID_POINTS)

    slope_g, slope_f = error_conversion_slopes(scenario)
    ds_dp = readout.signal_slope_per_population(cfg)
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
        window = filters.window_for_signal(
            filters.filter_scheme_for_channel(BUDGET_SCHEME, channel),
            cfg.laser_time, cfg.window_time, cfg.sequence_time)
        filtered[channel] = slopes[channel] * \
            filters.filtered_cumulative_noise_descending(freqs, density,
                                                         window, f_top)

    # shot-noise-only reference deviation per evaluation
    n_ref = n_reference + (n_reference % 2)
    series = _scheme_series(scenario, np.zeros(n_ref), np.zeros(n_ref),
                            (None, None), stream_offset=SIGMA1_STREAM_OFFSET)
    sigma1 = {scheme: float(s.values.std(ddof=1))
              for scheme, s in series.items()}

    result = BudgetResult(freqs, raw, filtered, sigma1, slopes)
    if out_dir is not None:
        manifest = RunManifest.start(scenario)
        for channel in scenario.noise:
            result.outputs.append(_io.write_table(
                f"{out_dir}/budget_raw_{channel}.csv",
                ["f_Hz", "cumulative_value"], [freqs, raw[channel]]))
            result.outputs.append(_io.write_table(
                f"{out_dir}/budget_filtered_{BUDGET_SCHEME}_{channel}.csv",
                ["f_Hz", "cumulative_value"], [freqs, filtered[channel]]))
        schemes = sorted(sigma1)
        result.outputs.append(_io.write_table(
            f"{out_dir}/sigma1.csv",
            [f"sigma1_{s}" for s in schemes],
            [np.array([sigma1[s]]) for s in schemes]))
        _finalize(manifest, result.outputs, out_dir)
    return result


def _finalize(manifest: RunManifest, outputs, out_dir) -> None:
    for path in outputs:
        manifest.add_output(path)
    manifest.finish(out_dir)
