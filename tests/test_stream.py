"""The scaling run's series tables, formatted by a
:class:`nvmag.io.SeriesStream` from one template per block of each group
of tables that share a length and a spacing, by forked workers while the
run computes them or, on one CPU, by the caller when it writes them: the
same bytes as a serial ``write_table`` of the finished run, on any number
of CPUs.  Each process writes its blocks into its own part, a nameless
file, so no worker or part is left when the run fails or is killed."""

import os
import signal
import time

import numpy as np
import pytest

from nvmag import analysis, experiments, io as _io, readout, scenario as sc
from nvmag.readout import SCHEME_SEQUENCES
from nvmag.scenario import CHUNK_SIZE

from test_experiments import NOISY, make_scenario
from test_io import (SERIES_HEADER, _assert_nothing_left, _count_forks,
                     _stream_series, _use_cpus)

STARTED = "2026-01-01T00:00:00Z"
#: one chunk, two, three with a short last one, and five
N_SEQUENCES = [CHUNK_SIZE, CHUNK_SIZE + 2, 2 * CHUNK_SIZE + 4096,
               5 * CHUNK_SIZE - 2]
SCHEME_SETS = [["B"], ["C", "D"], ["A", "B", "C", "D"]]

#: (n, schemes) -> {file name: bytes} of the serial run
_SERIAL = {}


def _scenario(n, schemes):
    return make_scenario(n_sequences=n, schemes=schemes, noise=NOISY)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture
def fixed_clock(monkeypatch):
    # manifest.json records when the run started and finished
    monkeypatch.setattr(experiments, "utc_now", lambda: STARTED)
    monkeypatch.setattr(sc, "utc_now", lambda: STARTED)


def _serial(n, schemes, directory, monkeypatch):
    """The tables of the finished run, written on one CPU without a
    stream: the series tables from index and time columns built here."""
    key = (n, tuple(schemes))
    if key not in _SERIAL:
        _use_cpus(monkeypatch, 1)
        s = _scenario(n, schemes)
        result = experiments.run_scaling_experiment(s)
        series = {}
        for scheme, scaling in result.schemes.items():
            n_rows = scaling.series.values.size
            series[scheme] = [np.arange(n_rows),
                              np.arange(n_rows) * scaling.series.spacing,
                              scaling.series.values]
        sc.write_run(s, directory, STARTED,
                     experiments._scaling_tables(result.schemes, series))
        _SERIAL[key] = _files(directory)
    return _SERIAL[key]


@pytest.mark.parametrize("schemes", SCHEME_SETS)
@pytest.mark.parametrize("n", N_SEQUENCES)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tables_equal_a_serial_write(cpus, n, schemes, tmp_path,
                                     monkeypatch, fixed_clock):
    want = _serial(n, schemes, tmp_path / "serial", monkeypatch)
    _use_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    out = tmp_path / "stream"
    experiments.run_scaling_experiment(_scenario(n, schemes), out_dir=out)
    got = _files(out)
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name
    # the stream's workers and, with a second CPU, the echo producer; the
    # Allan and std tables are one block each
    assert len(forks) == cpus - 1 + (cpus > 1)
    _assert_nothing_left(out)


def test_series_values_survive_the_stream(tmp_path, monkeypatch):
    # the returned series live in the memory shared with the workers
    _use_cpus(monkeypatch, 2)
    s = _scenario(CHUNK_SIZE + 2, ["A", "B", "C", "D"])
    streamed = experiments.run_scaling_experiment(s, out_dir=tmp_path)
    alone = experiments.run_scaling_experiment(s)
    for scheme, want in alone.schemes.items():
        got = streamed.schemes[scheme]
        assert got.series.values.tobytes() == want.series.values.tobytes()
        assert got.allan.values.tobytes() == want.allan.values.tobytes()


@pytest.mark.parametrize("cpus", [2, 3])
def test_failing_worker_raises(cpus, tmp_path, monkeypatch):
    _use_cpus(monkeypatch, cpus)
    real_take = _io.SeriesStream.take
    parent = os.getpid()

    def failing_take(queue, taker, limit=None):
        if os.getpid() != parent:
            raise OSError("injected")
        real_take(queue, taker, limit)

    monkeypatch.setattr(_io.SeriesStream, "take", failing_take)
    s = _scenario(2 * CHUNK_SIZE, ["A", "B", "C", "D"])
    with pytest.raises(RuntimeError, match="table worker"):
        experiments.run_scaling_experiment(s, out_dir=tmp_path)
    _assert_nothing_left(tmp_path)


@pytest.mark.parametrize("stage", ["chunk loop", "estimators"])
def test_failing_run_leaves_nothing(stage, tmp_path, monkeypatch):
    # the third call: the second chunk's first group, after the first
    # chunk's rows were queued; the estimators of the third scheme
    _use_cpus(monkeypatch, 2)
    module, name = ((readout, "sequence_signals") if stage == "chunk loop"
                    else (analysis, "std_vs_time"))
    original = getattr(module, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    s = _scenario(2 * CHUNK_SIZE, ["A", "B", "C", "D"])
    with pytest.raises(ValueError, match="injected"):
        experiments.run_scaling_experiment(s, out_dir=tmp_path)
    assert len(calls) == 3
    _assert_nothing_left(tmp_path)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_killed_run_leaves_nothing(cpus, tmp_path, monkeypatch):
    # the run is killed as it splices its first table, after the join has
    # reaped the workers: the parts had no names, so the output directory
    # holds nothing
    _use_cpus(monkeypatch, cpus)

    def killed(stream, name, head):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(_io.SeriesStream, "splice", killed)
    s = _scenario(2 * CHUNK_SIZE + 4096, ["A", "B", "C", "D"])
    pid = os.fork()
    if pid == 0:  # never returns into pytest
        try:
            experiments.run_scaling_experiment(s, out_dir=tmp_path)
        finally:
            os._exit(1)
    status = os.waitpid(pid, 0)[1]
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert not list(tmp_path.iterdir())


def _serial_bytes(directory, columns):
    """``{name: bytes}`` of series tables ``{name: columns}`` written
    without a stream."""
    return {name: _io.write_table(directory / f"{name}.csv", SERIES_HEADER,
                                  cols).read_bytes()
            for name, cols in columns.items()}


def _scheme_series(schemes, n):
    """``{scheme: (values, spacing)}`` of the scaling run's series at ``n``
    sequences: A/B and C/D are groups of one length and spacing."""
    rng = np.random.default_rng(n)
    t_seq = make_scenario().sequence.sequence_time
    return {s: (rng.standard_normal(n // SCHEME_SEQUENCES[s]),
                SCHEME_SEQUENCES[s] * t_seq) for s in schemes}


def _chunks(n):
    """The sequences drawn by the end of each chunk of the scaling run."""
    return [min(stop, n) for stop in range(CHUNK_SIZE, n + CHUNK_SIZE,
                                           CHUNK_SIZE)]


def _publish_by_chunk(schemes, n):
    """``publish(stream)``: each chunk's rows, scheme by scheme, as the
    scaling run publishes them."""
    def publish(stream):
        for stop in _chunks(n):
            for s in schemes:
                stream.publish(s, stop // SCHEME_SEQUENCES[s])
    return publish


#: two groups of two, and two groups of one
GROUPINGS = [["A", "B", "C", "D"], ["A", "C"]]


@pytest.mark.parametrize("schemes", GROUPINGS)
@pytest.mark.parametrize("n", [2 * CHUNK_SIZE, 2 * CHUNK_SIZE + 8198],
                         ids=["whole-blocks", "short-last-block"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_group_templates_equal_a_serial_write(cpus, n, schemes, tmp_path,
                                              monkeypatch):
    # the baseline scenario's spacings; on one CPU the stream forks
    # nothing and opens no pipe, and its join formats every block from
    # the group templates
    _use_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    if cpus == 1:
        def no_pipe():
            raise AssertionError("a stream without workers opened a pipe")

        monkeypatch.setattr(_io.os, "pipe", no_pipe)
    got = _stream_series(tmp_path / "stream", _scheme_series(schemes, n),
                         _publish_by_chunk(schemes, n))
    assert len(forks) == cpus - 1
    _assert_nothing_left(tmp_path / "stream")
    want = _serial_bytes(tmp_path, {s: cols for s, (_, cols) in got.items()})
    for s in schemes:
        assert got[s][0] == want[s], s


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_group_waits_for_its_slowest_member(cpus, tmp_path, monkeypatch):
    # A is published to the end before B publishes a row: no block of
    # the A/B group is handed to the queue until B has published it too
    # (on one CPU the queue takes nothing, and the join formats them)
    _use_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    queued = []  # blocks queued per put, in order
    real_put = _io.SeriesStream.put

    def put(queue, g, first, stop):
        if stop > first:
            queued.append((g, first, stop))
        real_put(queue, g, first, stop)

    monkeypatch.setattr(_io.SeriesStream, "put", put)
    n = 5 * CHUNK_SIZE - 2

    def publish(stream):
        for stop in _chunks(n):
            stream.publish("A", stop)
        assert not queued
        for stop in _chunks(n):
            stream.publish("B", stop)
            assert queued[-1][2] == (_io._blocks(n) if stop == n
                                     else stop // _io._BLOCK_ROWS)
        assert sum(stop - first for _, first, stop in queued) == \
            _io._blocks(n)

    got = _stream_series(tmp_path / "stream", _scheme_series("AB", n),
                         publish)
    assert len(forks) == cpus - 1
    _assert_nothing_left(tmp_path / "stream")
    want = _serial_bytes(tmp_path, {s: cols for s, (_, cols) in got.items()})
    for s in "AB":
        assert got[s][0] == want[s], s


#: A-D with a short last block: 11 blocks of the A/B group, 6 of C/D
TEMPLATE_N = 2 * CHUNK_SIZE + 8198


def _trace_templates(monkeypatch, log, idle=()):
    """Log each template a process formats to the file ``log``, one
    ``taker phase group block`` line each: phase ``prepare`` within a
    worker's ``_prepare``, ``take`` otherwise (taker 0, the caller, only
    takes); a worker appends ``ready taker`` once it has prepared, or
    ``failed taker`` if preparing raised.  A worker whose taker is in
    ``idle`` takes no block."""
    parent = os.getpid()
    state = {"phase": "take", "taker": 0}
    real_template = _io._Group.template
    real_prepare = _io.SeriesStream._prepare
    real_take = _io.SeriesStream.take

    def write(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def template(group, block):
        write(f"{state['taker']} {state['phase']} {group.names[0]} {block}")
        return real_template(group, block)

    def prepare(queue, taker):
        state.update(phase="prepare", taker=taker)
        try:
            real_prepare(queue, taker)
        except BaseException:
            write(f"failed {taker}")
            raise
        state["phase"] = "take"
        write(f"ready {taker}")

    def take(queue, taker, limit=None):
        if os.getpid() != parent and taker in idle:
            return
        real_take(queue, taker, limit)

    monkeypatch.setattr(_io._Group, "template", template)
    monkeypatch.setattr(_io.SeriesStream, "_prepare", prepare)
    monkeypatch.setattr(_io.SeriesStream, "take", take)


def _log_lines(log):
    return log.read_text().splitlines() if log.exists() else []


def _wait_for(log, word, n_workers):
    """Wait until ``n_workers`` lines of the log start with ``word``."""
    deadline = time.monotonic() + 60
    while sum(line.startswith(word) for line in _log_lines(log)) < n_workers:
        assert time.monotonic() < deadline, f"workers not {word}"
        time.sleep(0.001)


def _stream_templates(tmp_path, monkeypatch, cpus, idle=()):
    """A-D through a series stream on ``cpus`` CPUs, every row published
    once each worker has prepared its templates.  Returns the prepared
    ``{taker: [(group, block)]}``, the templates formatted while taking
    ``{taker: [(group, block)]}``, and the taker of every ``(group,
    block)``, after checking the bytes against a serial write."""
    _use_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    log = tmp_path / "templates.log"
    _trace_templates(monkeypatch, log, idle)
    streams = []

    def publish(stream):
        streams.append(stream)
        _wait_for(log, "ready", cpus - 1)
        _publish_by_chunk("ABCD", TEMPLATE_N)(stream)

    got = _stream_series(tmp_path / "stream",
                         _scheme_series("ABCD", TEMPLATE_N), publish)
    assert len(forks) == cpus - 1
    _assert_nothing_left(tmp_path / "stream")
    want = _serial_bytes(tmp_path, {s: cols for s, (_, cols) in got.items()})
    for s in "ABCD":
        assert got[s][0] == want[s], s
    prepared, formatted = {}, {}
    for line in _log_lines(log):
        if not line.startswith(("ready", "failed")):
            taker, phase, group, block = line.split()
            into = prepared if phase == "prepare" else formatted
            into.setdefault(int(taker), []).append((group, int(block)))
    stream = streams[0]
    takers = {
        (group.names[0], block): int(stream.blocks[
            stream.spans[group.names[0]].start + block][0]) - 1
        for group in stream.groups for block in range(_io._blocks(
            group.n_rows))}
    return prepared, formatted, takers


def _start_order():
    """``(group, block)`` of A-D by start time, the order they are
    queued in; the A/B group first at equal times."""
    t_seq = make_scenario().sequence.sequence_time
    pairs = [(block * _io._BLOCK_ROWS * SCHEME_SEQUENCES[group] * t_seq,
              g, group, block)
             for g, group in enumerate("AC")
             for block in range(_io._blocks(
                 TEMPLATE_N // SCHEME_SEQUENCES[group]))]
    return [(group, block) for _, _, group, block in sorted(pairs)]


def _assert_cache_used(prepared, formatted, takers):
    """A block's taker formats its template unless it prepared it."""
    want = {}
    for pair, taker in takers.items():
        if pair not in prepared.get(taker, []):
            want.setdefault(taker, []).append(pair)
    assert {t: sorted(p) for t, p in formatted.items()} == want


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_templates_are_prepared_before_the_first_block(cpus, tmp_path,
                                                       monkeypatch):
    # each worker prepares every (cpus - 1)-th template in queue order
    # while nothing is queued, and fills its own when it takes the block
    prepared, formatted, takers = _stream_templates(tmp_path, monkeypatch,
                                                    cpus)
    order = _start_order()
    n_workers = cpus - 1
    assert prepared == {taker: order[taker - 1::n_workers]
                        for taker in range(1, n_workers + 1)}
    assert sorted(takers) == sorted(order)
    _assert_cache_used(prepared, formatted, takers)
    if cpus == 1:
        # no worker: the caller formats every template when it joins, in
        # row order group by group
        assert formatted == {0: sorted(order)}
    if cpus == 2:
        # the one worker prepared every template: it formats none while
        # it takes, and the caller formats only what it takes itself
        assert 1 not in formatted


@pytest.mark.parametrize("cpus, idle", [(1, ()), (2, (1,)), (3, (1, 2)),
                                        (3, (2,))],
                         ids=["1-cpu", "2-cpus", "3-cpus", "3-cpus-one-idle"])
def test_cached_templates_taken_by_another_process(cpus, idle, tmp_path,
                                                   monkeypatch):
    # idle workers prepare and then take nothing: the caller takes every
    # block at join, formatting each template anew, or the other worker
    # takes them and never uses the idle one's templates
    prepared, formatted, takers = _stream_templates(tmp_path, monkeypatch,
                                                    cpus, idle)
    order = _start_order()
    assert sorted(pair for pairs in prepared.values()
                  for pair in pairs) == (sorted(order) if cpus > 1 else [])
    assert not set(takers.values()) & set(idle)
    _assert_cache_used(prepared, formatted, takers)
    for taker in idle:
        # every template an idle worker prepared was formatted again by
        # the process that took its block
        for pair in prepared[taker]:
            assert pair in formatted[takers[pair]]
    if len(idle) == cpus - 1 > 0:
        assert sorted(formatted[0]) == sorted(order)


def test_preparing_stops_once_a_block_is_queued(tmp_path, monkeypatch):
    # the worker's first template is done only once every block is
    # queued: it prepares no other, and takes every block it can
    _use_cpus(monkeypatch, 2)
    log = tmp_path / "templates.log"
    published = tmp_path / "published"
    parent = os.getpid()
    real_template = _io._Group.template

    def held_template(group, block):
        deadline = time.monotonic() + 60
        while os.getpid() != parent and not published.exists():
            assert time.monotonic() < deadline, "nothing published"
            time.sleep(0.001)
        return real_template(group, block)

    monkeypatch.setattr(_io._Group, "template", held_template)
    _trace_templates(monkeypatch, log)

    def publish(stream):
        _wait_for(log, "1 prepare", 1)
        _publish_by_chunk("ABCD", TEMPLATE_N)(stream)
        published.touch()
        _wait_for(log, "ready", 1)

    got = _stream_series(tmp_path / "stream",
                         _scheme_series("ABCD", TEMPLATE_N), publish)
    _assert_nothing_left(tmp_path / "stream")
    assert [line for line in _log_lines(log)
            if " prepare " in line] == ["1 prepare A 0"]
    want = _serial_bytes(tmp_path, {s: cols for s, (_, cols) in got.items()})
    for s in "ABCD":
        assert got[s][0] == want[s], s


@pytest.mark.parametrize("cpus", [2, 3])
def test_failing_template_in_prepare_raises(cpus, tmp_path, monkeypatch):
    # every worker fails while preparing, before a block is queued
    _use_cpus(monkeypatch, cpus)
    log = tmp_path / "templates.log"
    _trace_templates(monkeypatch, log)
    parent = os.getpid()
    real_template = _io._Group.template

    def failing_template(group, block):
        if os.getpid() != parent:
            raise OSError("injected")
        return real_template(group, block)

    monkeypatch.setattr(_io._Group, "template", failing_template)

    def publish(stream):
        _wait_for(log, "failed", cpus - 1)
        _publish_by_chunk("ABCD", TEMPLATE_N)(stream)

    with pytest.raises(RuntimeError, match="table worker"):
        _stream_series(tmp_path / "stream",
                       _scheme_series("ABCD", TEMPLATE_N), publish)
    _assert_nothing_left(tmp_path / "stream")
