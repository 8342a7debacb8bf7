"""Delimited-table output and spectrum ingestion."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np


#: rows formatted by one string-formatting call in :func:`write_table`
_BLOCK_ROWS = 4096
#: integer magnitudes below this print alike under ``%d`` and ``%.12g``
_INT_LIMIT = 10 ** 12


def _column_format(col: np.ndarray) -> str:
    """``%d`` for an integer column whose values print alike under
    ``%d`` and ``%.12g`` (the cheaper format), else ``%.12g``."""
    if np.issubdtype(col.dtype, np.integer) and (
            col.size == 0 or (col.min() > -_INT_LIMIT
                              and col.max() < _INT_LIMIT)):
        return "%d"
    return "%.12g"


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _write_rows(fh, cols, row_fmt: str, start: int, stop: int) -> None:
    """Write rows ``start:stop`` to ``fh``, one formatting call per block
    of :data:`_BLOCK_ROWS` rows."""
    n_cols = len(cols)
    for lo in range(start, stop, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, stop)
        # row-major values; integer columns stay Python ints
        values = [None] * ((hi - lo) * n_cols)
        for j, c in enumerate(cols):
            values[j::n_cols] = c[lo:hi].tolist()
        fh.write((row_fmt * (hi - lo)) % tuple(values))


def _append_file(out_fd: int, src) -> None:
    """Append the bytes of file ``src`` at ``out_fd``'s position, copied
    by the kernel."""
    with open(src, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0
        while offset < size:
            sent = os.sendfile(out_fd, fh.fileno(), offset, size - offset)
            if sent == 0:
                raise OSError(f"{src}: truncated while appending")
            offset += sent


def write_table(path, header: list[str], columns) -> Path:
    """Write columns as comma-delimited text with a plain header row.

    Header entries name the columns including units (e.g. ``tau_s``,
    ``deviation``); all columns must share one length.  Values are written
    as ``%.12g``, giving the bytes of ``np.savetxt(path, data,
    delimiter=",", header=..., comments="", fmt="%.12g")``, but formatted a
    block of rows per call instead of one row per call, and integer
    columns below 1e12 in magnitude as ``%d``, which prints them alike.

    A table of more than one block is split into one range of whole
    blocks per usable CPU.  This process writes the header and the first
    range; each later range is formatted by a forked worker into
    ``<path>.part<i>``, which is appended to the table and removed.  The
    bytes do not depend on the number of CPUs, and no worker or part file
    outlives the call, whether it returns or raises.
    """
    path = Path(path)
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(cols) != len(header):
        raise ValueError("one header entry per column required")
    if any(c.shape != cols[0].shape for c in cols):
        raise ValueError("columns must share one length")
    n_rows = len(cols[0])
    row_fmt = ",".join(_column_format(c) for c in cols) + "\n"
    n_blocks = -(-n_rows // _BLOCK_ROWS)
    n_ranges = max(1, min(_usable_cpus(), n_blocks))
    edges = [i * n_blocks // n_ranges * _BLOCK_ROWS
             for i in range(n_ranges)] + [n_rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [path.with_name(f"{path.name}.part{i}")
             for i in range(1, n_ranges)]
    pids = []  # workers not yet reaped, in row order
    # fork rather than spawn: a worker reads the columns without a copy,
    # and it only formats and writes, so it needs no lock that a thread
    # of the parent (numpy's BLAS pool) could hold at the fork
    try:
        for i, part in enumerate(parts, 1):
            pid = os.fork()
            if pid == 0:  # worker: never returns into the caller
                code = 1
                try:
                    with open(part, "w", encoding="latin1") as fh:
                        _write_rows(fh, cols, row_fmt, edges[i],
                                    edges[i + 1])
                    code = 0
                finally:
                    # no atexit handlers, no flush of inherited buffers
                    os._exit(code)
            pids.append(pid)
        with open(path, "w", encoding="latin1") as fh:
            fh.write(",".join(header) + "\n")
            _write_rows(fh, cols, row_fmt, edges[0], edges[1])
            fh.flush()
            # not reopened for append: sendfile refuses an O_APPEND target
            for part in parts:
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
                if code != 0:
                    raise RuntimeError(f"{part}: table worker exited {code}")
                _append_file(fh.fileno(), part)
                os.unlink(part)
    finally:
        # a worker ends by itself once its range is written, so reaping
        # is enough (importing signal to kill it costs 0.7 MB resident)
        for pid in pids:
            os.waitpid(pid, 0)
        for part in parts:
            part.unlink(missing_ok=True)
    return path


def read_psd_table(path):
    """Two-column (frequency_Hz, density) spectrum file, comma or
    whitespace delimited; '#' comments and one header row are allowed."""
    path = Path(path)
    data = None
    for delimiter in (",", None):
        for skip in (0, 1):
            try:
                data = np.loadtxt(path, delimiter=delimiter, skiprows=skip,
                                  ndmin=2)
                break
            except ValueError:
                continue
        if data is not None:
            break
    if data is None or data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (frequency, density)")
    freqs, density = data[:, 0], data[:, 1]
    if np.any(np.diff(freqs) <= 0):
        raise ValueError(f"{path}: frequencies must increase")
    if np.any(density < 0):
        raise ValueError(f"{path}: density must be non-negative")
    return freqs, density


def file_digest(path) -> str:
    """Hex SHA-256 digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
