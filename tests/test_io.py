import errno
import math
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nvmag import io as _io

from conftest import assert_no_child_left, count_forks, open_fds

#: every finite magnitude (subnormals included), signed zeros, NaN and
#: +-inf, with the extremes of the decade range drawn often
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300,
                     math.nan, math.inf, -math.inf]),
)
#: integers that %.12g prints exactly, as %d does, with the edges of
#: that range drawn often
NARROW_INTS = st.one_of(
    st.integers(-(10 ** 12 - 1), 10 ** 12 - 1),
    st.sampled_from([10 ** 12 - 1, -(10 ** 12 - 1), 0]),
)
#: the same with the first magnitudes that %.12g rounds
EDGE_INTS = st.one_of(NARROW_INTS, st.sampled_from([10 ** 12, -(10 ** 12)]))
#: the whole int64 range
INTS = st.one_of(st.integers(-(2 ** 63), 2 ** 63 - 1),
                 st.sampled_from([2 ** 63 - 1, -(2 ** 63)]))
#: block edges of the writer plus small tables
ROWS = st.one_of(st.sampled_from([0, 1, 4095, 4096, 4097]),
                 st.integers(0, 20))


@st.composite
def tables(draw):
    n = draw(ROWS)
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        elements = draw(st.sampled_from([FLOATS, INTS, NARROW_INTS,
                                         EDGE_INTS]))
        dtype = np.float64 if elements is FLOATS else np.int64
        cols.append(draw(hnp.arrays(dtype, n, elements=elements)))
    return cols


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(cols=tables())
def test_write_table_matches_savetxt_bytes(cols, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("table")
    header = [f"col{i}_s" for i in range(len(cols))]
    path = _io.write_table(tmp / "fast.csv", header, cols)
    np.savetxt(tmp / "ref.csv", np.column_stack(cols), delimiter=",",
               header=",".join(header), comments="", fmt="%.12g")
    assert path.read_bytes() == (tmp / "ref.csv").read_bytes()


def test_write_table_rejects_mismatched_columns(tmp_path):
    with pytest.raises(ValueError, match="one header entry"):
        _io.write_table(tmp_path / "t.csv", ["x"], [np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError, match="share one length"):
        _io.write_table(tmp_path / "t.csv", ["x", "y"],
                        [np.zeros(2), np.zeros(3)])


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(_io.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _assert_nothing_left(directory):
    # the stream's parts have no names, so any other file was left behind
    assert all(p.suffix == ".csv" or p.name == "manifest.json"
               for p in directory.iterdir())
    assert_no_child_left()


#: the header of a series table
SERIES_HEADER = ["index", "time_s", "value"]


def _stream_series(directory, series, publish=None):
    """Write a series table per entry of ``{name: (values, spacing)}``
    through a :class:`nvmag.io.SeriesStream`, the rows published by
    ``publish(stream)`` (all at once by default); returns ``{name:
    (bytes, columns)}``, the columns with the index and time a serial
    write needs."""
    out = {}
    with _io.SeriesStream(directory, {
            name: (len(v), spacing)
            for name, (v, spacing) in series.items()}) as stream:
        for name, (v, _) in series.items():
            stream.values(name)[:] = v
        if publish is None:
            for name, (v, _) in series.items():
                stream.publish(name, len(v))
        else:
            publish(stream)
        for name, (v, spacing) in series.items():
            path = directory / f"{name}.csv"
            _io.write_table(path, SERIES_HEADER,
                            _io.SeriesColumns(stream, name))
            out[name] = path.read_bytes(), [
                np.arange(len(v)), np.arange(len(v)) * spacing,
                stream.values(name)]
    return out


@pytest.mark.parametrize("header", [SERIES_HEADER[1:],
                                    SERIES_HEADER + ["value_T"]],
                         ids=["header", "four-entry-header"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_series_columns_reject_another_table(header, cpus, tmp_path,
                                             monkeypatch):
    # a series table's values go only under a three-entry header
    _use_cpus(monkeypatch, cpus)
    n_rows = 3 * 4096 + 1
    with _io.SeriesStream(tmp_path, dict.fromkeys(
            "ab", (n_rows, 1.6e-4))) as stream:
        for name in "ab":
            stream.values(name)[:] = 1.0
            stream.publish(name, n_rows)
        with pytest.raises(ValueError, match="series table 'a'"):
            _io.write_table(tmp_path / "a.csv", header,
                            _io.SeriesColumns(stream, "a"))
    assert not list(tmp_path.glob("*.csv"))
    _assert_nothing_left(tmp_path)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 3 * 4096 + 1])
def test_write_table_bytes_do_not_depend_on_cpus(n_rows, cpus, tmp_path,
                                                  monkeypatch):
    # write_table formats in-process on any number of CPUs: only a
    # series stream forks
    _use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    rng = np.random.default_rng(n_rows)
    cols = [np.arange(n_rows), rng.standard_normal(n_rows) * 1e-7,
            rng.integers(-10 ** 15, 10 ** 15, n_rows)]
    header = ["index", "deviation_T", "count"]
    path = _io.write_table(tmp_path / "t.csv", header, cols)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), delimiter=",",
               header=",".join(header), comments="", fmt="%.12g")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert not forks
    _assert_nothing_left(tmp_path)


@pytest.mark.parametrize("cpus", [1, 2])
def test_series_tables_past_one_copy_buffer(cpus, tmp_path, monkeypatch):
    # the splice copies each part 1 MiB at a time, to the bytes of a
    # serial write_table, with or without a formatter; one CPU stands for
    # a platform without os.sched_getaffinity (Windows, macOS), where the
    # stream has no formatter
    if cpus == 1:
        monkeypatch.delattr(_io.os, "sched_getaffinity", raising=False)
    else:
        _use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    # past one 1 MiB copy per table, with a short last block
    n = 8 * _io._BLOCK_ROWS + 1234
    rng = np.random.default_rng(n)
    series = {name: (rng.standard_normal(n), spacing)
              for name, spacing in (("a", 1.6e-4), ("b", 1.6e-4),
                                    ("c", 3.2e-4))}
    got = _stream_series(tmp_path / "stream", series)
    assert len(forks) == (cpus > 1)
    _assert_nothing_left(tmp_path / "stream")
    for name, (data, cols) in got.items():
        assert data == _io.write_table(tmp_path / f"{name}.csv",
                                       SERIES_HEADER, cols).read_bytes(), name


@pytest.mark.parametrize("failing", ["worker", "parent"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_write_table_failure_leaves_no_worker_or_part(failing, cpus,
                                                      tmp_path, monkeypatch):
    # a series stream's formatter fails as soon as it is forked, or the
    # parent as it copies the first table's part, once it has reaped the
    # formatter
    _use_cpus(monkeypatch, cpus)
    if failing == "worker":
        def failing_take(stream, queue):
            raise OSError("injected")

        monkeypatch.setattr(_io.SeriesStream, "take", failing_take)
    else:
        def failing_copy(source, target, length):
            raise OSError("injected")

        monkeypatch.setattr(_io.shutil, "copyfileobj", failing_copy)
    n_rows = 3 * 4096 + 1
    expected = RuntimeError if failing == "worker" else OSError
    with pytest.raises(expected):
        _stream_series(tmp_path, {"a": (np.ones(n_rows), 1.6e-4),
                                  "b": (np.zeros(n_rows), 1.6e-4)})
    _assert_nothing_left(tmp_path)


def test_failed_fork_leaves_no_worker_or_part(tmp_path, monkeypatch):
    # a 3-CPU stream's one formatter cannot be forked: the error
    # propagates, and the queue and every table's parts are closed
    _use_cpus(monkeypatch, 3)
    before = open_fds()
    forks = count_forks(monkeypatch, fail=1)
    with pytest.raises(OSError) as raised:
        _stream_series(tmp_path, {"a": (np.ones(3 * 4096 + 1), 1.6e-4),
                                  "b": (np.ones(4096), 3.2e-4)})
    assert raised.value.errno == errno.EAGAIN and len(forks) == 1
    _assert_nothing_left(tmp_path)
    assert open_fds() == before


def test_a_helper_sees_eof_while_a_later_helper_runs():
    # helper A reads its pipe until EOF; helper B, forked after it, sleeps.
    # B holds no end of A's pipe, so A ends as soon as the caller closes
    # its end, not once B has ended
    a = _io._Helper("reader", lambda fd: os.read(fd, 1), writes=False)
    b = _io._Helper("sleeper", lambda fd: time.sleep(2), writes=False)
    try:
        started = time.monotonic()
        a.reap()
        assert time.monotonic() - started < 1
    finally:
        a.reap(ok=False)
        b.reap(ok=False)
    assert_no_child_left()


@pytest.mark.parametrize("worker_fails", [False, True])
def test_write_table_while_the_queue_outgrows_the_pipe(
        worker_fails, tmp_path, monkeypatch):
    # one row per block, published block by block: 20000 queue items,
    # more than a pipe holds (8192 at Linux's default 64 KiB), so the
    # series stream waits for its formatter while it queues; a formatter
    # that fails makes it raise, naming the formatter, instead of waiting
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(_io, "_BLOCK_ROWS", 1)
    if worker_fails:
        def failing_take(stream, queue):
            raise OSError("injected")

        monkeypatch.setattr(_io.SeriesStream, "take", failing_take)
    n = 20000
    series = {"x": (np.linspace(0.0, 1.0, n), 1 / 3)}

    def by_block(stream):
        for stop in range(1, n + 1):
            stream.publish("x", stop)

    if worker_fails:
        with pytest.raises(RuntimeError, match="table worker .* exited 1"):
            _stream_series(tmp_path, series, by_block)
    else:
        got, cols = _stream_series(tmp_path, series, by_block)["x"]
        np.savetxt(tmp_path / "ref.csv", np.column_stack(cols),
                   delimiter=",", header=",".join(SERIES_HEADER),
                   comments="", fmt="%.12g")
        assert got == (tmp_path / "ref.csv").read_bytes()
    _assert_nothing_left(tmp_path)


def test_discard_stops_the_formatter(tmp_path, monkeypatch):
    # the caller fails with thousands of blocks still queued before a
    # slow formatter: leaving the stream kills the formatter instead of
    # waiting for it to format them
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(_io, "_BLOCK_ROWS", 1)
    n = 20000
    formatted = _io._shared(1, np.int64)  # blocks, counted by the formatter
    real_template = _io._Group.template

    def slow_template(group, block):
        time.sleep(1e-4)
        formatted[0] += 1
        return real_template(group, block)

    monkeypatch.setattr(_io._Group, "template", slow_template)
    before = open_fds()

    def failing(stream):
        stream.publish("x", n)
        raise ValueError("injected")

    with pytest.raises(ValueError, match="injected"):
        _stream_series(tmp_path, {"x": (np.ones(n), 1.6e-4)}, failing)
    assert_no_child_left()
    assert open_fds() == before
    assert not list(tmp_path.iterdir())
    # the one queue item asked for every block; the formatter was killed
    # with most of them still to format
    assert formatted[0] < n // 2, formatted[0]


#: blocks of a group: the first few hundred, the blocks that hold the
#: first index of 5, 9, 13 and 17 digits, and any up to 2**40
BLOCKS = st.one_of(st.integers(0, 300),
                   st.sampled_from([10 ** k // _io._BLOCK_ROWS
                                    for k in (4, 8, 12, 16)]),
                   st.integers(0, 2 ** 40))
#: spacings: the scaling run's, extremes, signed zeros, any finite float,
#: and decimals of 12 to 17 significant digits
SPACINGS = st.one_of(
    st.sampled_from([1.6e-4, 3.2e-4, 1 / 3, 1e-300, 1e300, 5e-324, 0.0,
                     -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, k: float(f"{m}e{k}"),
              st.integers(10 ** 11, 10 ** 17 - 1), st.integers(-25, 5)))
#: times where %.12g switches between fixed and scientific notation, the
#: times just below them that round up to the switch, and times just
#: below a power of ten whose 12 digits round up to it
SWITCHES = st.sampled_from([1e-4, 9.99999999999995e-05, 9.9999999999995e-05,
                            1e12, 999999999999.5, 999999999999.4,
                            999999999999.6, 99999.9999999996,
                            0.0999999999999996])


@st.composite
def ties(draw):
    """A time in fixed notation at a tie of its 12th significant digit:
    exactly, as ``q / 2**d`` for odd ``q`` with ``d`` fraction digits (a
    13th digit 5, and the last), or as the double nearest a 13-digit
    decimal ending in 5, give or take an ulp."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 16))
        # 10**(12 - d) <= q / 2**d < 10**(13 - d)
        q = draw(st.integers(-(-2 ** d * 10 ** 12 // 10 ** d),
                             2 ** d * 10 ** 13 // 10 ** d - 1))
        return (q | 1) / 2 ** d
    t = float(f"{draw(st.integers(10 ** 11, 10 ** 12 - 1))}5"
              f"e{draw(st.integers(-16, -2))}")
    return float(np.nextafter(t, t * draw(st.sampled_from([0, 1, 2]))))


@st.composite
def group_blocks(draw):
    """``(spacing, block, n_rows, values)``: a series group's spacing, one
    of its blocks and its length, and a member's values of that block.
    One row of the block lies at a notation switch or a tie of %.12g,
    give or take a few ulps, or the spacing is any."""
    kind = draw(st.sampled_from(["any", "switch", "tie"]))
    index = None
    if kind == "any":
        spacing, block = draw(SPACINGS), draw(BLOCKS)
    elif kind == "switch":
        block = draw(BLOCKS)
        lo = block * _io._BLOCK_ROWS
        index = draw(st.integers(max(lo, 1), lo + _io._BLOCK_ROWS - 1))
        spacing = draw(SWITCHES) / index
        for _ in range(draw(st.integers(0, 3))):
            spacing = np.nextafter(spacing, draw(st.sampled_from(
                [0.0, math.inf])))
    else:
        # a power-of-two index, so that index * spacing is the tie
        block = draw(st.sampled_from([0] + [2 ** k for k in range(30)]))
        index = block * _io._BLOCK_ROWS or 2 ** draw(st.integers(0, 11))
        spacing = draw(ties()) / index
    spacing = float(spacing) * draw(st.sampled_from([1, -1]))
    lo = block * _io._BLOCK_ROWS
    n_rows = lo + draw(st.one_of(st.sampled_from([1, 4095, 4096]),
                                 st.integers(1, 20)))
    if index is not None:
        n_rows = max(n_rows, index + 1)
    values = draw(hnp.arrays(np.float64, min(n_rows - lo, _io._BLOCK_ROWS),
                             elements=FLOATS))
    return spacing, block, n_rows, values


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(group=group_blocks())
# a time that rounds up to 1e12 and so switches to scientific notation;
# an exact tie; a double above a tie whose product with 10**11 rounds to
# the tie; indices of 9 digits past 10**8; one of 17 digits; blocks that
# % formats whole: times in scientific notation and negative times from
# block 0, a tie at the first row of block 1
@example(group=(999999999999.6, 0, 2, np.zeros(2)))
@example(group=(-123456789012.5, 0, 2, np.zeros(2)))
@example(group=(1.368761715425, 0, 2, np.zeros(2)))
@example(group=(1.6e-4, 24414, 24415 * 4096, np.zeros(4096)))
@example(group=(-1 / 3, 10 ** 16 // 4096, 10 ** 16 + 7, np.zeros(7)))
@example(group=(5e-5, 0, 4096, np.zeros(4096)))
@example(group=(-1.6e-4, 0, 5, np.zeros(5)))
@example(group=(1234567890.125 / 4096, 1, 4096 + 5, np.zeros(5)))
def test_group_template_fills_to_row_formatting(group):
    # a group block's template filled with a member's values against
    # one %d,%.12g,%.12g row per index
    spacing, block, n_rows, values = group
    lo = block * _io._BLOCK_ROWS
    hi = min(lo + _io._BLOCK_ROWS, n_rows)
    with np.errstate(over="ignore"):  # index * 1e300 may overflow
        got_lo, got_hi, template = _io._Group(["a"], n_rows,
                                              spacing).template(block)
    assert (got_lo, got_hi) == (lo, hi)
    want = "".join("%d,%.12g,%.12g\n" % (i, i * spacing, v)
                   for i, v in zip(range(lo, hi), values.tolist()))
    assert _io._rows(template, values) == want.encode()


@pytest.mark.parametrize("sequences", [1, 2])
def test_head_words_take_every_block_of_the_scaling_run(sequences,
                                                         baseline_scenario):
    # a 2**20-row group at the scaling run's spacings, T_seq for A and B
    # and 2 T_seq for C and D: every block takes the digit words, block
    # 0 with its zero time too
    spacing = sequences * baseline_scenario.sequence.sequence_time
    for lo in range(0, 2 ** 20, _io._BLOCK_ROWS):
        index = np.arange(lo, lo + _io._BLOCK_ROWS)
        words = _io._head_words(index, index * spacing)
        assert words is not None, lo
        if lo == 0:
            assert words[0].tobytes().translate(None, b"\0") == b"0,0,"


@pytest.mark.parametrize("time", [-1.6e-4, -0.0, 5e-5, 1234567890.125],
                         ids=["negative", "negative-zero", "below-1e-4",
                              "tie"])
def test_head_words_refuse_a_block_with_one_time_off_the_exact_path(time):
    # one time the exact path cannot prove sends the whole block to %
    index = np.arange(_io._BLOCK_ROWS)
    times = index * 1.6e-4
    assert _io._head_words(index, times) is not None
    times[1234] = time
    assert _io._head_words(index, times) is None


@pytest.mark.parametrize("spacing", [5e-5, -1.6e-4],
                         ids=["below-1e-4", "negative"])
def test_refused_block_template_is_compacted(spacing):
    # a block that % formats loses its all-NUL byte columns as a block of
    # digit words does, so _rows drops no padding it need not carry
    index = np.arange(_io._BLOCK_ROWS)
    assert _io._head_words(index, index * spacing) is None
    lo, hi, template = _io._Group(["a"], _io._BLOCK_ROWS,
                                  spacing).template(0)
    rows = np.frombuffer(template, np.uint8).reshape(hi - lo, -1)
    assert rows.any(axis=0).all()


def test_a_helper_forked_after_a_stream_holds_no_part(tmp_path, monkeypatch):
    # the echo producer is forked after the series stream's formatter; it
    # holds none of the stream's parts, so a part is freed once the caller
    # and the formatter have closed it
    open_fds()  # skips where /proc/self/fd is missing
    _use_cpus(monkeypatch, 2)

    def files(fd):
        # the (device, inode) of every file this process holds
        held = []
        for name in os.listdir("/proc/self/fd"):
            try:
                st = os.fstat(int(name))
            except OSError:  # the listing's own descriptor, now closed
                continue
            held.append(f"{st.st_dev}:{st.st_ino}")
        os.write(fd, " ".join(held).encode())

    tables = {name: (10, 0.5) for name in "abc"}
    with _io.SeriesStream(tmp_path, tables) as stream:
        parts = {f"{st.st_dev}:{st.st_ino}" for st in (
            os.fstat(part.fileno()) for part in stream._parts.values())}
        helper = _io._Helper("probe", files, writes=True)
        report = b""
        try:
            while chunk := os.read(helper.fd, 1 << 16):
                report += chunk
        finally:
            helper.reap()
    assert len(parts) == 3 and report
    assert not parts & set(report.decode().split())
    _assert_nothing_left(tmp_path)
