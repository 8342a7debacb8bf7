"""The scaling run's series tables, formatted by a
:class:`nvmag.io.SeriesStream` from one template per block of each group
of tables that share a length and a spacing, by one forked formatter
while the run computes them or, on one CPU, by the caller as it
publishes them: the same bytes as a serial ``write_table`` of the
finished run, on any number of CPUs.  Each table's blocks go into its
one part, a nameless file freed once the table is written, so no
formatter or part is left when the run fails or is killed."""

import os
import signal
import stat

import numpy as np
import pytest

from nvmag import analysis, experiments, io as _io, readout, scenario as sc
from nvmag.readout import SCHEME_SEQUENCES
from nvmag.scenario import CHUNK_SIZE

from conftest import count_forks, open_fds
from test_experiments import NOISY, make_scenario
from test_io import (SERIES_HEADER, _assert_nothing_left, _stream_series,
                     _use_cpus)

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
    forks = count_forks(monkeypatch)
    out = tmp_path / "stream"
    experiments.run_scaling_experiment(_scenario(n, schemes), out_dir=out)
    got = _files(out)
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name
    # with a second CPU, the stream's formatter and the echo producer;
    # the Allan and std tables are one block each
    assert len(forks) == 2 * (cpus > 1)
    _assert_nothing_left(out)


def test_series_values_survive_the_stream(tmp_path, monkeypatch):
    # the returned series live in the memory shared with the formatter
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

    def failing_take(stream, queue):  # only the formatter takes
        raise OSError("injected")

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
    # reaped the formatter: the parts had no names, so the output
    # directory holds nothing
    _use_cpus(monkeypatch, cpus)

    def killed(stream, name, path, head):
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


def _nameless_files():
    """``{(device, inode): size}`` of the regular files this process
    holds open that have no name left."""
    files = {}
    for fd in open_fds():
        try:
            st = os.fstat(int(fd))
        except OSError:  # the listing's own descriptor, closed since
            continue
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 0:
            files[st.st_dev, st.st_ino] = st.st_size
    return files


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_table_is_freed_once_written(cpus, tmp_path, monkeypatch):
    # after each splice, the parts still open and the series tables
    # written so far hold no more than the series tables do: each table's
    # parts are closed once it is written, not with the last table
    _use_cpus(monkeypatch, cpus)
    before = _nameless_files()  # pytest's own, such as its capture files

    def parts():
        return sum(size for file, size in _nameless_files().items()
                   if file not in before)

    held = []  # bytes in the parts and the series tables, per splice
    real_splice = _io.SeriesStream.splice

    def splice(stream, name, path, head):
        real_splice(stream, name, path, head)
        held.append(parts() + sum(
            p.stat().st_size for p in tmp_path.glob("series_*.csv")))

    monkeypatch.setattr(_io.SeriesStream, "splice", splice)
    s = _scenario(2 * CHUNK_SIZE + 4096, ["A", "B", "C", "D"])
    experiments.run_scaling_experiment(s, out_dir=tmp_path)
    tables = sum(p.stat().st_size for p in tmp_path.glob("series_*.csv"))
    assert len(held) == 4 and max(held) <= tables, (held, tables)
    assert parts() == 0
    _assert_nothing_left(tmp_path)


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
    # nothing and opens no pipe, and the caller formats every block from
    # the group templates as it publishes it
    _use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    if cpus == 1:
        def no_pipe():
            raise AssertionError("a stream without a formatter opened a "
                                 "pipe")

        monkeypatch.setattr(_io.os, "pipe", no_pipe)
    got = _stream_series(tmp_path / "stream", _scheme_series(schemes, n),
                         _publish_by_chunk(schemes, n))
    assert len(forks) == (cpus > 1)
    _assert_nothing_left(tmp_path / "stream")
    want = _serial_bytes(tmp_path, {s: cols for s, (_, cols) in got.items()})
    for s in schemes:
        assert got[s][0] == want[s], s


@pytest.mark.parametrize("cpus", [1, 2])
def test_unpublished_rows_are_refused(cpus, tmp_path, monkeypatch):
    # half the rows are published: on any number of CPUs the table is
    # refused, and no formatter or part is left
    _use_cpus(monkeypatch, cpus)
    n = 10000
    with pytest.raises(RuntimeError, match="rows were never queued"):
        _stream_series(tmp_path, {"x": (np.ones(n), 1.6e-4)},
                       lambda stream: stream.publish("x", n // 2))
    assert not list(tmp_path.glob("*.csv"))
    _assert_nothing_left(tmp_path)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_group_waits_for_its_slowest_member(cpus, tmp_path, monkeypatch):
    # A is published to the end before B publishes a row: no block of
    # the A/B group is queued, to the formatter or, on one CPU, to the
    # caller's own formatting, until B has published it too
    _use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    n = 5 * CHUNK_SIZE - 2

    def publish(stream):
        for stop in _chunks(n):
            stream.publish("A", stop)
        assert stream._queued == [0]
        for stop in _chunks(n):
            stream.publish("B", stop)
            assert stream._queued == [_io._blocks(n) if stop == n
                                      else stop // _io._BLOCK_ROWS]

    got = _stream_series(tmp_path / "stream", _scheme_series("AB", n),
                         publish)
    assert len(forks) == (cpus > 1)
    _assert_nothing_left(tmp_path / "stream")
    want = _serial_bytes(tmp_path, {s: cols for s, (_, cols) in got.items()})
    for s in "AB":
        assert got[s][0] == want[s], s


def test_one_cpu_formats_a_block_as_it_is_published(tmp_path, monkeypatch):
    # with no formatter, the publish that queues a block formats it into
    # its part, so the join and the splice format nothing
    _use_cpus(monkeypatch, 1)
    n = 2 * _io._BLOCK_ROWS + 5
    values, spacing = _scheme_series("A", n)["A"]
    sizes = []  # the part's size after each publish
    with _io.SeriesStream(tmp_path, {"A": (n, spacing)}) as stream:
        stream.values("A")[:] = values
        for stop in (_io._BLOCK_ROWS, n):
            stream.publish("A", stop)
            sizes.append(stream._parts["A"].tell())

        def format_again(stream, g, ready):
            raise AssertionError("a block was formatted after its publish")

        monkeypatch.setattr(_io.SeriesStream, "_format", format_again)
        path = _io.write_table(tmp_path / "series_A.csv", SERIES_HEADER,
                               _io.SeriesColumns(stream, "A"))
    rows = path.read_bytes().splitlines(keepends=True)[1:]
    assert sizes == [sum(map(len, rows[:_io._BLOCK_ROWS])),
                     sum(map(len, rows))]
    _assert_nothing_left(tmp_path)
