"""Delimited-table output and spectrum ingestion.

Formatting numbers as text is most of the cost of writing a large
table, so :func:`write_table` spreads it over every usable CPU.  Rows
are formatted a block of :data:`_BLOCK_ROWS` at a time; the blocks go
onto a queue (:class:`_RowQueue`), and forked workers, one per usable
CPU but one, take blocks from it and write them to their own part
files.  The calling process takes the blocks still queued once it joins,
reaps the workers and splices the parts into the table in row order.
A table whose columns all exist is queued whole inside
:func:`write_table`.  The series tables of the scaling run are queued
while they are computed (:class:`SeriesStream`): their workers are
forked before the Monte Carlo and format each chunk's rows while the
caller computes the next chunks and the estimators, all numpy work
staying in the caller.  The bytes depend on neither the number of CPUs
nor which process formatted which block.  With one usable CPU, or where
the process cannot fork, there are no workers and no shared memory, and
every row is formatted in-process.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


#: rows formatted by one string-formatting call in :func:`write_table`,
#: and rows per queued block
_BLOCK_ROWS = 4096
#: integer magnitudes below this print alike under ``%d`` and ``%.12g``
_INT_LIMIT = 10 ** 12
#: one queue item: a table's index and a block's index
_ITEM = struct.Struct("=II")
#: items per write to the queue: 512 bytes, the least ``PIPE_BUF`` POSIX
#: allows, so every write is whole and every read of one item gets one
_BATCH = 512 // _ITEM.size


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


def _blocks(n_rows: int) -> int:
    return -(-n_rows // _BLOCK_ROWS)


def _shared(n: int, dtype=float) -> np.ndarray:
    """``n`` zeros in anonymous memory shared with the workers forked
    after it."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(n * dtype.itemsize, 1)), dtype,
                         count=n)


def _write_rows(fh, cols, row_fmt: str) -> int:
    """Write the rows of ``cols``, one formatting call per block of
    :data:`_BLOCK_ROWS` rows; returns the bytes written."""
    n_cols, n_rows = len(cols), len(cols[0])
    written = 0
    for lo in range(0, n_rows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_rows)
        # row-major values; integer columns stay Python ints
        values = [None] * ((hi - lo) * n_cols)
        for j, c in enumerate(cols):
            values[j::n_cols] = c[lo:hi].tolist()
        # latin1: one byte per character
        written += fh.write((row_fmt * (hi - lo)) % tuple(values))
    return written


def _send(out_fd: int, in_fd: int, offset: int, length: int) -> None:
    """Append ``length`` bytes of ``in_fd`` from ``offset`` at
    ``out_fd``'s position, copied by the kernel."""
    end = offset + length
    while offset < end:
        sent = os.sendfile(out_fd, in_fd, offset, end - offset)
        if sent == 0:
            raise OSError("part file truncated while splicing")
        offset += sent


class _Table(NamedTuple):
    path: Path
    row_fmt: str
    n_rows: int
    #: ``columns(lo, hi)`` gives every column's rows ``lo:hi``
    columns: Callable


class _RowQueue:
    """Blocks of table rows formatted by ``n_workers`` forked workers and
    the calling process, each into its own part files.

    The queue is a pipe of fixed-size items.  The workers take items until
    the pipe is closed and empty, and record where each block went (its
    taker, offset and length) in memory shared with the caller, which
    splices the blocks in row order.  Fork rather than spawn: a worker
    reads the columns without a copy, and it only formats and writes, so
    it needs no lock that a thread of the parent (numpy's BLAS pool) could
    hold at the fork.
    """

    def __init__(self, tables: list[_Table], n_workers: int):
        self.tables, self.n_workers = tables, n_workers
        counts = [_blocks(t.n_rows) for t in tables]
        self.first_block = np.cumsum([0] + counts[:-1]).tolist()
        # (taker + 1, offset in its part, length) per block; 0: not written
        self.blocks = _shared(3 * sum(counts), np.int64).reshape(-1, 3)
        self.pids = []  # workers not yet reaped, in fork order
        self._open = {}  # this process's part files: table -> [file, size]
        self._joined = False
        self._read, self._write = os.pipe()
        # a full pipe makes the caller take a block instead of waiting
        os.set_blocking(self._write, False)
        try:
            for taker in range(1, n_workers + 1):
                pid = os.fork()
                if pid == 0:  # worker: never returns into the caller
                    code = 1
                    try:
                        os.close(self._write)
                        self.take(taker)
                        self._close_parts()
                        code = 0
                    finally:
                        # no atexit handlers, no flush of inherited buffers
                        os._exit(code)
                self.pids.append(pid)
        except BaseException:
            self.discard()
            raise

    def part(self, t: int, taker: int) -> Path:
        path = self.tables[t].path
        return path.with_name(f"{path.name}.part{taker}")

    def put(self, t: int, first: int, stop: int) -> None:
        """Queue blocks ``first:stop`` of table ``t``.  While the pipe is
        full (the workers are behind, or gone) this process takes blocks
        itself."""
        items = b"".join(_ITEM.pack(t, b) for b in range(first, stop))
        step = _ITEM.size * _BATCH
        for i in range(0, len(items), step):
            while True:
                try:
                    os.write(self._write, items[i:i + step])
                    break
                except BlockingIOError:
                    self.take(0, limit=1)

    def take(self, taker: int, limit=None) -> None:
        """Format queued blocks into this process's part files until the
        queue is closed and empty, or ``limit`` blocks are done."""
        while limit is None or limit > 0:
            item = os.read(self._read, _ITEM.size)
            if not item:
                return
            t, block = _ITEM.unpack(item)
            table = self.tables[t]
            part = self._open.get(t)
            if part is None:
                part = self._open[t] = [
                    open(self.part(t, taker), "w", encoding="latin1"), 0]
            lo = block * _BLOCK_ROWS
            length = _write_rows(
                part[0], table.columns(lo, min(lo + _BLOCK_ROWS,
                                               table.n_rows)),
                table.row_fmt)
            self.blocks[self.first_block[t] + block] = taker + 1, part[1], \
                length
            part[1] += length
            if limit is not None:
                limit -= 1

    def join(self) -> None:
        """Close the queue, take the blocks still queued, and reap the
        workers in order: ``RuntimeError`` if one failed."""
        if self._joined:
            return
        self._close_input()
        try:
            self.take(0)
        finally:
            self._close_parts()
        while self.pids:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pids[0], 0)[1])
            pid = self.pids.pop(0)
            if code != 0:
                raise RuntimeError(f"table worker {pid} exited {code}")
        self._joined = True

    def splice(self, t: int, head: str) -> None:
        """Write table ``t``, ``head`` and then its blocks in row order
        from the parts, and remove its parts; after :meth:`join`."""
        table = self.tables[t]
        first = self.first_block[t]
        runs = []  # (taker + 1, offset, length), adjacent blocks merged
        for taker, offset, length in self.blocks[
                first:first + _blocks(table.n_rows)].tolist():
            if not taker:
                raise RuntimeError(f"{table.path}: rows were never queued")
            if runs and runs[-1][0] == taker \
                    and runs[-1][1] + runs[-1][2] == offset:
                runs[-1][2] += length
            else:
                runs.append([taker, offset, length])
        parts = {}
        try:
            with open(table.path, "w", encoding="latin1") as fh:
                fh.write(head)
                # not reopened for append: sendfile refuses an O_APPEND
                # target
                fh.flush()
                for taker, offset, length in runs:
                    if taker not in parts:
                        parts[taker] = open(self.part(t, taker - 1), "rb")
                    _send(fh.fileno(), parts[taker].fileno(), offset, length)
        finally:
            for part in parts.values():
                part.close()
        self._remove_parts(t)

    def discard(self) -> None:
        """Leave no worker and no part file: drop the blocks still queued,
        reap every worker and remove the parts.  Safe to repeat."""
        self._close_input()
        if self._read is not None:
            # whole items, so a worker's next read still gets one
            while os.read(self._read, _ITEM.size * _BATCH):
                pass
            os.close(self._read)
            self._read = None
        # a worker ends by itself once the queue is empty, so reaping is
        # enough (importing signal to kill it costs 0.7 MB resident)
        while self.pids:
            os.waitpid(self.pids.pop(0), 0)
        self._close_parts()
        for t in range(len(self.tables)):
            self._remove_parts(t)

    def _close_input(self) -> None:
        if self._write is not None:
            os.close(self._write)
            self._write = None

    def _close_parts(self) -> None:
        while self._open:
            self._open.popitem()[1][0].close()

    def _remove_parts(self, t: int) -> None:
        for taker in range(self.n_workers + 1):
            self.part(t, taker).unlink(missing_ok=True)


def _series_table(path, n_rows: int, spacing: float, values) -> _Table:
    """The table ``index, index * spacing, values[index]``."""
    def columns(lo, hi):
        index = np.arange(lo, hi)
        # equal, bit for bit, to rows lo:hi of the full columns
        return [index, index * spacing, values[lo:hi]]
    # the index column's format is set by its largest entry
    row_fmt = ",".join(_column_format(c) for c in
                       columns(max(n_rows - 1, 0), n_rows)) + "\n"
    return _Table(Path(path), row_fmt, n_rows, columns)


class SeriesStream:
    """Series tables whose rows are formatted while their values are
    computed.

    ``tables`` maps a name to ``(path, n_rows, spacing)``; row ``i`` of a
    table reads ``i, i * spacing, values[i]``.  The workers are forked
    when the stream is made.  The caller fills :meth:`values` of each name
    and :meth:`publish`-es the rows that are final, and the workers format
    them meanwhile.  :func:`write_table`, given the stream and one of its
    paths, takes the rows still queued, reaps the workers and splices the
    parts.  On leaving the ``with`` block no worker or part file is left,
    whether the block returns or raises.

    The values live in memory shared with the workers, and stay there
    until the caller drops them.  With one usable CPU, or where the
    process cannot fork, there are no workers and no shared memory: the
    values are ordinary arrays, :meth:`publish` does nothing, and
    :func:`write_table` formats the table from the columns it is given.
    """

    def __init__(self, tables: dict):
        n_workers = min(_usable_cpus(), sum(
            _blocks(n_rows) for _, n_rows, _ in tables.values())) - 1
        new = _shared if n_workers > 0 else np.empty
        self._values = {name: new(n_rows)
                        for name, (_, n_rows, _) in tables.items()}
        self._index = {name: t for t, name in enumerate(tables)}
        self._queued = [0] * len(tables)  # blocks queued per table
        self._queue = None
        if n_workers > 0:
            for path, _, _ in tables.values():
                Path(path).parent.mkdir(parents=True, exist_ok=True)
            self._queue = _RowQueue(
                [_series_table(path, n_rows, spacing, self._values[name])
                 for name, (path, n_rows, spacing) in tables.items()],
                n_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._queue is not None:
            self._queue.discard()

    def values(self, name) -> np.ndarray:
        """The values of table ``name``, to be filled by the caller."""
        return self._values[name]

    def publish(self, name, stop: int) -> None:
        """Rows ``:stop`` of table ``name`` are final: queue the whole
        blocks among them, and the last block once ``stop`` reaches the
        end of the table."""
        if self._queue is None:
            return
        t = self._index[name]
        n_rows = self._queue.tables[t].n_rows
        blocks = _blocks(n_rows) if stop >= n_rows else stop // _BLOCK_ROWS
        self._queue.put(t, self._queued[t], blocks)
        self._queued[t] = blocks

    def _write(self, path: Path, head: str, cols) -> bool:
        """Write the table at ``path`` from the queued rows; False when
        this stream does not format it."""
        if self._queue is None:
            return False
        tables = self._queue.tables
        t = next((t for t, table in enumerate(tables)
                  if table.path == path), None)
        if t is None:
            return False
        if len(cols) != 3 or len(cols[0]) != tables[t].n_rows:
            raise ValueError(f"{path}: columns differ from the stream's "
                             "table")
        self._queue.join()
        self._queue.splice(t, head)
        return True


def write_table(path, header: list[str], columns, *, stream=None) -> Path:
    """Write columns as comma-delimited text with a plain header row.

    Header entries name the columns including units (e.g. ``tau_s``,
    ``deviation``); all columns must share one length.  Values are written
    as ``%.12g``, giving the bytes of ``np.savetxt(path, data,
    delimiter=",", header=..., comments="", fmt="%.12g")``, but formatted a
    block of rows per call instead of one row per call, and integer
    columns below 1e12 in magnitude as ``%d``, which prints them alike.

    A table of more than one block is queued whole for one forked worker
    per usable CPU but one and for this process (see the module
    docstring); a table of one block, or on one usable CPU, is formatted
    here.  Given a :class:`SeriesStream` that holds ``path``, the rows
    were formatted from the stream's values while they were computed,
    and ``columns`` must be that table: this process takes the rows still
    queued, reaps the stream's workers and splices the parts.  The bytes
    do not depend on the number of CPUs, and no worker or part file of a
    table queued here outlives the call, whether it returns or raises.
    """
    path = Path(path)
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(cols) != len(header):
        raise ValueError("one header entry per column required")
    if any(c.shape != cols[0].shape for c in cols):
        raise ValueError("columns must share one length")
    head = ",".join(header) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    if stream is not None and stream._write(path, head, cols):
        return path
    n_rows = len(cols[0])
    row_fmt = ",".join(_column_format(c) for c in cols) + "\n"
    n_workers = min(_usable_cpus(), _blocks(n_rows)) - 1
    if n_workers <= 0:
        with open(path, "w", encoding="latin1") as fh:
            fh.write(head)
            _write_rows(fh, cols, row_fmt)
        return path
    # every row is ready at once
    queue = _RowQueue([_Table(path, row_fmt, n_rows,
                              lambda lo, hi: [c[lo:hi] for c in cols])],
                      n_workers)
    try:
        queue.put(0, 0, _blocks(n_rows))
        queue.join()
        queue.splice(0, head)
    finally:
        queue.discard()
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
