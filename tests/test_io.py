import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nvmag import io as _io

#: every finite magnitude (subnormals included), signed zeros, NaN and
#: +-inf, with the extremes of the decade range drawn often
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300,
                     math.nan, math.inf, -math.inf]),
)
#: integers the writer prints as %d, with the edges of that range drawn
#: often
NARROW_INTS = st.one_of(
    st.integers(-(10 ** 12 - 1), 10 ** 12 - 1),
    st.sampled_from([10 ** 12 - 1, -(10 ** 12 - 1), 0]),
)
#: the same with the first magnitude past the %d range
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
    assert not list(directory.glob("*.part*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 3 * 4096 + 1])
def test_write_table_bytes_do_not_depend_on_cpus(n_rows, cpus, tmp_path,
                                                  monkeypatch):
    _use_cpus(monkeypatch, cpus)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(_io.os, "fork", counting_fork)
    rng = np.random.default_rng(n_rows)
    cols = [np.arange(n_rows), rng.standard_normal(n_rows) * 1e-7,
            rng.integers(-10 ** 15, 10 ** 15, n_rows)]
    header = ["index", "deviation_T", "count"]
    path = _io.write_table(tmp_path / "t.csv", header, cols)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), delimiter=",",
               header=",".join(header), comments="", fmt="%.12g")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    n_blocks = -(-n_rows // _io._BLOCK_ROWS)
    assert len(forks) == max(0, min(cpus, n_blocks) - 1)
    _assert_nothing_left(tmp_path)


@pytest.mark.parametrize("failing", ["worker", "parent"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_write_table_failure_leaves_no_worker_or_part(failing, cpus,
                                                      tmp_path, monkeypatch):
    _use_cpus(monkeypatch, cpus)
    real_write_rows = _io._write_rows

    def failing_write_rows(fh, cols, row_fmt, start, stop):
        if (start == 0) == (failing == "parent"):
            raise OSError("injected")
        real_write_rows(fh, cols, row_fmt, start, stop)

    monkeypatch.setattr(_io, "_write_rows", failing_write_rows)
    n_rows = 3 * 4096 + 1
    expected = RuntimeError if failing == "worker" else OSError
    with pytest.raises(expected):
        _io.write_table(tmp_path / "t.csv", ["x", "y"],
                        [np.arange(n_rows), np.ones(n_rows)])
    _assert_nothing_left(tmp_path)
