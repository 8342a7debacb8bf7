"""Scenario runners wiring spin simulation, noise, readout and analysis.

Every runner is deterministic given (scenario, master seed): the noise
record of plain arrays (:func:`_noise_record`) is synthesized from fixed
per-channel seed streams, each channel whole before its first chunk is
read, and the rest of a window record is evaluated in chunks of
``CHUNK_SIZE`` sequences.  Each chunk gets its echo populations, its
photon draw (from the chunk's own seed) and its window signals in one
step, so no population array spans the run.  The draws depend on that
fixed chunk size, and so do the last bits of the
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

The two halves of a record meet only in the photon draws: the
microwave drive errors feed only the echo, and the laser noise only the
draws.  Where a helper has a CPU of its own
(:func:`nvmag.io._spare_cpu`: more than one usable CPU), a forked
producer (:class:`_Echo`) synthesizes the drive errors and evaluates
the echo chunk by chunk into shared memory, while the calling process
synthesizes the laser noise and draws each chunk's photons.  It is
forked beside the series stream's one formatter (below) by the same
rule, so there a scaling run with outputs runs three processes, and
the caller, whose CPU time sets the run's wall time, leaves the
microwave synthesis and the echo to the producer.  One class,
:class:`nvmag.io._Helper`, forks, pipes and ends both helpers: the
caller waits for a helper where it succeeds and kills it where it
fails.  The caller never waits for a chunk: one the producer has not
announced when its draws start, the caller evaluates itself.  With one
usable CPU, or where it cannot fork, each chunk's echo is evaluated in
the calling process right before its draws.  A sweep hands all its
amplitudes to one record, so the producer works across them.

The scaling run's ``series_<scheme>.csv`` tables are written through
an :class:`nvmag.io.SeriesStream`, which :func:`run_scaling_experiment`
makes before the noise record and publishes each chunk's rows to; the
tables travel to :func:`nvmag.io.write_table` as their values alone
(:class:`nvmag.io.SeriesColumns`).  The stream forks at most one
formatter, by the same rule as the producer; :mod:`nvmag.io` describes
how it formats the tables.  No other table forks.  The bytes of every
table depend neither on the number of CPUs nor on which process
evaluated which chunk.
"""

from __future__ import annotations

import contextlib
import math
# loaded by nvmag.io already, so importing them here costs nothing
import mmap
import os
import select
import struct
from dataclasses import dataclass, field

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

#: the noise channels that drive the echo, and the one read by the photons
_DRIVE, _LASER = ("mw_amplitude", "mw_frequency"), ("laser_intensity",)
#: one announcement of an echo producer (see :class:`_Echo`)
_ANNOUNCE = struct.Struct("=i")


def _noise_record(scenario: Scenario, n: int, channels) -> list:
    """The traces of ``channels`` over ``n`` sequences, one array each:
    the drive errors ``dg`` and ``df`` of every sequence, shape ``(1, n)``,
    and the relative laser noise ``eps`` of its two integration windows,
    shape ``(2, n)``.

    Microwave noise with correlation times longer than one sequence is
    constant within it, so its traces are read once per sequence; laser
    noise is the average over each window, read at the window centres.
    An absent or zero channel reads as zeros.  Each channel has its own
    seed stream, so which process synthesizes which channel changes no
    bit.
    """
    cfg, s = scenario.readout, scenario.sequence
    # the laser pulse starts when the echo ends
    centres = (s.echo_time + cfg.window_time / 2.0,
               s.echo_time + cfg.laser_time - cfg.window_time / 2.0)
    reads = {"mw_amplitude": ((0.0,), 0.0), "mw_frequency": ((0.0,), 0.0),
             "laser_intensity": (centres, cfg.window_time)}
    record = []
    for channel in channels:
        offsets, window = reads[channel]
        model = scenario.noise.get(channel)
        if model is None or model.is_zero:
            record.append(np.zeros((len(offsets), n)))
        else:
            record.append(_noise.synthesize_trace(
                model, n * s.sequence_time, s.sequence_time,
                scenario.channel_seed(channel), offsets, window).samples)
    return record


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


class _Echo:
    """The echo populations of a record's chunks, one row per scheme
    group, and the drive errors they are evaluated from.

    ``chunks`` holds each chunk's ``(slice of the record, field
    amplitude)``; ``parity`` indexes ``(final_phase, -final_phase)`` per
    group and sequence of a chunk (every chunk starts at an even
    sequence).  Unless :func:`nvmag.io._spare_cpu` holds, the drive
    errors are synthesized here, and :meth:`populations` evaluates a
    chunk's echo when it is asked for.

    Where it holds (more than one usable CPU, whatever else the caller
    has forked), one producer, an :class:`nvmag.io._Helper`, is forked.
    It synthesizes the drive errors into memory shared with the caller
    (``io._shared``) and announces 0 on the helper's pipe; then it
    evaluates the chunks in order, each into its own shared slot,
    announcing ``i + 1`` after chunk ``i``.  The caller never waits for
    a chunk: one not announced when it is asked for is evaluated here,
    from the shared drive errors (waiting for those alone;
    ``RuntimeError`` if the producer ends without them), and the
    shared ``taken`` count makes the producer skip the chunks the
    caller took that it has not started (one it has started it
    finishes, and the caller never reads it).  So a chunk below the last
    announcement that the caller did not take is ready.  Leaving the
    ``with`` block ends the producer: a block that returns waits for it,
    ``RuntimeError`` if it failed; a block that raises kills it.  If the
    caller is killed, the producer ends at its next announcement
    (``EPIPE``: the caller held the pipe's only read end).
    """

    def __init__(self, scenario: Scenario, chunks: list, parity):
        self.scenario, self.chunks, self.parity = scenario, chunks, parity
        self.helper = None  # the producer
        n = chunks[-1][0].stop
        if not _io._spare_cpu():
            (self.dg,), (self.df,) = _noise_record(scenario, n, _DRIVE)
            return
        self.dg, self.df = _io._shared(n), _io._shared(n)
        # one slot of whole pages per chunk, so that the caller can drop
        # a chunk's pages once its photons are drawn: they would
        # otherwise count in its resident memory until the run ends
        flat = _io._shared(len(chunks) * len(parity) * CHUNK_SIZE)
        self._map = flat.base.obj
        self._shared = flat.reshape(len(chunks), len(parity), CHUNK_SIZE)
        # one past the last chunk the caller took
        self._taken = _io._shared(1, np.int64)
        self._ready = -1  # the last announcement; -1: none yet
        self.helper = _io._Helper("echo producer", self._produce,
                                  writes=True)
        os.set_blocking(self.helper.fd, False)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if self.helper is not None:
            self.helper.reap(ok=exc_type is None)

    def _produce(self, write: int) -> None:
        dg, df = _noise_record(self.scenario, len(self.dg), _DRIVE)
        self.dg[:], self.df[:] = dg[0], df[0]
        del dg, df
        os.write(write, _ANNOUNCE.pack(0))
        done = 0
        while True:
            done = max(done, int(self._taken[0]))
            if done >= len(self.chunks):
                return
            populations = self._evaluate(done)
            self._shared[done, :, :populations.shape[1]] = populations
            done += 1
            os.write(write, _ANNOUNCE.pack(done))

    def populations(self, i: int) -> np.ndarray:
        """Chunk ``i``'s populations, shape ``(groups, chunk length)``."""
        if self.helper is not None:
            if i:  # the caller is done with the chunk before
                slot = self._shared[0].nbytes
                self._map.madvise(mmap.MADV_DONTNEED, (i - 1) * slot, slot)
            self._poll()
            while self._ready < 0:  # the drive errors are not out yet
                select.select([self.helper.fd], [], [])
                if not self._poll():
                    raise RuntimeError(f"echo producer {self.helper.pid} "
                                       "ended before its drive errors")
            if self._ready > i:
                rows = self.chunks[i][0]
                return self._shared[i, :, :rows.stop - rows.start]
            self._taken[0] = i + 1
        return self._evaluate(i)

    def _poll(self) -> bool:
        """Read the announcements so far; False once the producer has
        closed the pipe."""
        try:
            # the pipe's default capacity, so every announcement written
            data = os.read(self.helper.fd, 1 << 16)
        except BlockingIOError:
            return True
        if data:
            self._ready, = _ANNOUNCE.unpack_from(data,
                                                 len(data) - _ANNOUNCE.size)
        return bool(data)

    def _evaluate(self, i: int) -> np.ndarray:
        rows, field_amplitude = self.chunks[i]
        s = self.scenario.sequence
        return sequences.echo_populations(
            s.phase_time, s.rabi, self.scenario.hamiltonian, self.dg[rows],
            self.df[rows], field_amplitude=field_amplitude,
            decay=self.scenario.decay,
            final_phase=np.array([s.final_phase, -s.final_phase]),
            phase_index=self.parity[:, :rows.stop - rows.start],
            m_i_values=s.m_i_values())


def _scheme_series(scenario: Scenario, segments, tables=None):
    """Readout series of every requested scheme for each segment of a
    record in turn, one dict per segment keyed in scenario order.

    Each segment is ``scenario.n_sequences`` sequences long and given as
    ``(field_amplitude, stream_offset)``: its test-field amplitude, and
    the offset of its shot-noise streams.  Within a segment each scheme
    group is drawn once: one window record (populations and shot noise)
    per group, on the group's stream plus the segment's offset.  A and B
    are the ``S_A`` and ``S_B`` of one constant-final-phase record; C and
    D pair-difference those of one record alternating between
    ``final_phase`` and ``-final_phase``.  B and D therefore never depend
    on whether A or C are requested.

    Sequence ``k`` of the record has drive errors ``dg[k]``, ``df[k]`` and
    window laser noise ``eps[:, k]`` (:func:`_noise_record` over the whole
    record).  The record is evaluated one chunk at a time, each chunk
    starting at a multiple of ``CHUNK_SIZE`` in its segment: one echo
    call per chunk gives every group's populations (the groups differ
    only in the final pulse), then each group draws its photons from the
    chunk's own seed on its stream, and C and D are pair-differenced
    chunk by chunk.  The echo and its drive errors come from an
    :class:`_Echo`, whose producer is forked wherever more than one CPU
    is usable, as is the formatter of ``tables``; each is an
    :class:`nvmag.io._Helper`, which a failing caller kills.  This
    process synthesizes the laser noise meanwhile and draws the photons.
    Given an :class:`nvmag.io.SeriesStream` keyed by scheme as
    ``tables`` (one segment), the series are its values, and each
    chunk's rows are published to it; otherwise a segment's series are
    dropped by the caller before the next is drawn, so the values of one
    segment at a time are held.  The working point
    (:func:`_balance_populations`) is evaluated once per record, and
    every runner draws one record.
    """
    s = scenario.sequence
    n = scenario.n_sequences
    # (stream, members, paired) of every requested group
    groups = [(stream, members, SCHEME_SEQUENCES[members[0]] == 2)
              for stream, members in SCHEME_GROUPS.items()
              if any(m in scenario.schemes for m in members)]
    # index into (final_phase, -final_phase) per group and sequence of a
    # chunk, which starts at an even sequence
    alternating = np.arange(min(CHUNK_SIZE, n)) % 2
    parity = np.stack([alternating if paired else np.zeros_like(alternating)
                       for _, _, paired in groups])
    # the reference's balance population per group and sequence of a chunk
    balance = _balance_populations(scenario)[parity]
    # (slice of the record, field amplitude) of every chunk
    starts = range(0, n, CHUNK_SIZE)
    chunks = [(slice(k * n + lo, k * n + min(lo + CHUNK_SIZE, n)), field)
              for k, (field, _) in enumerate(segments) for lo in starts]
    with _Echo(scenario, chunks, parity) as echo:
        eps, = _noise_record(scenario, n * len(segments), _LASER)
        for k, (_, stream_offset) in enumerate(segments):
            values = {scheme: np.empty(n // SCHEME_SEQUENCES[scheme])
                      if tables is None else tables.values(scheme)
                      for scheme in scenario.schemes}
            for index, lo in enumerate(starts):
                i = k * len(starts) + index
                sl = chunks[i][0]
                hi = lo + sl.stop - sl.start
                populations = echo.populations(i)
                for g, (stream, members, paired) in enumerate(groups):
                    rng = np.random.default_rng(
                        scenario.shot_seed(stream + stream_offset, index))
                    signals = readout.sequence_signals(
                        populations[g], scenario.readout, rng, eps[:, sl],
                        balance[g, :hi - lo])
                    rows = slice(lo // 2, hi // 2) if paired \
                        else slice(lo, hi)
                    for scheme, signal in zip(members, signals):
                        if scheme in values:
                            values[scheme][rows] = (
                                readout.pair_difference(signal) if paired
                                else signal)
                            if tables is not None:
                                tables.publish(scheme, rows.stop)
            yield {scheme: ReadoutSeries(
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
    if not amplitudes.size:
        raise ValueError("need at least one test-field amplitude")
    phase_time = scenario.sequence.phase_time
    gamma_e = scenario.hamiltonian.gamma_e
    means = {scheme: np.empty(amplitudes.size) for scheme in scenario.schemes}
    # one record of every amplitude, each on its own shot-noise streams;
    # the working point does not depend on the test field
    for k, series in enumerate(_scheme_series(
            scenario, [(amp, 1000 * (k + 1))
                       for k, amp in enumerate(amplitudes)])):
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

    With ``out_dir``, the series tables are formatted by an
    :class:`nvmag.io.SeriesStream` whose parts lie in ``out_dir`` (by one
    formatter while the series and the estimators are computed here,
    where a second CPU is usable), and written with the rest, each
    freeing its part once written; :func:`_scaling_tables` names them
    ``series_<scheme>.csv``.
    """
    started = utc_now()
    n = scenario.n_sequences
    t_seq = scenario.sequence.sequence_time
    series_tables = contextlib.nullcontext() if out_dir is None else \
        _io.SeriesStream(out_dir, {scheme: (
            n // SCHEME_SEQUENCES[scheme], SCHEME_SEQUENCES[scheme] * t_seq)
            for scheme in scenario.schemes})
    with series_tables as stream:
        out = {}
        # unpacking draws the record to its end, which frees the noise
        # record and reaps any echo producer before the estimators run
        record, = _scheme_series(scenario, [(0.0, 0)], tables=stream)
        for scheme, series in record.items():
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
