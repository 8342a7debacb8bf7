"""Delimited-table output: the tables of a run and their digests.

Formatting numbers as text is most of the cost of writing a large
table.  :func:`write_table` formats a table as bytes, a block of
:data:`_BLOCK_ROWS` rows per formatting call.  The series tables of the
scaling run travel to it as their values alone (a
:class:`SeriesColumns`), and a :class:`SeriesStream` formats them.
Series tables of one length and spacing form a group (A/B and C/D in
the scaling run): a block of a group is formatted once into a bytes
template, each row's ``index,time,`` text with NULs among it to one
width for every row, which each member then fills with its own values,
into the member's part: a nameless file, one per table, that holds the
table's blocks in row order, so a killed run leaves none behind.  The
stream has one rule for each of its jobs:

- *queue*: once every member of a group has published a block, the
  group is advanced, and each :meth:`SeriesStream.publish` that
  advances it queues one item, the group and its count of blocks ready;
- *format*: a block is formatted when it is queued.  Where a helper has
  a CPU of its own (:func:`_spare_cpu`) the stream forks one formatter,
  which takes the items while the caller computes the values and alone
  writes the parts; otherwise the caller formats the block within the
  publish, by the same method.  So the join only reaps the formatter;
- *copy*: after the join each table is spliced, its header and then its
  part copied into its file, and the part is closed and so freed;
- *name*: a table's file name is given once, by the caller of
  :func:`write_table`.

The caller waits for the formatter only when the queue is full, and at
the join.  The bytes do not depend on the number of CPUs.  Every helper
process of the package, this formatter and the echo producer of
:mod:`nvmag.experiments`, is one :class:`_Helper`: forked, joined to the
caller by one pipe, and ended by one rule, which kills it where the
caller failed; at most one of each runs.

A member's values are written as ``%.12g`` by :func:`_value_text`, a
vectorized formatter that gives the bytes of ``b"%.12g" % v`` value by
value.  Series values lie near 1e-7, where ``%`` is slowest (scientific
notation).  For such a value the formatter takes the 12-digit mantissa
from one correctly rounded product with an exact power of ten and the
digits from tables; it leaves to ``%`` every value it cannot prove
exact that way (values in fixed notation, zeros, non-finite values,
ties, exponents beyond -11..33), one value at a time.  A block's
template comes from the same tables (:func:`_head_words`): the index as
an integer, and each time in fixed notation, by the same test, from its
mantissa split into an integer part and a fraction, or zero.  The digit
words take a block whole, or ``%`` formats it: a block that holds any
other time (negative, a tie, scientific notation, non-finite) is
formatted by one ``%`` call.  Which values and blocks go to ``%`` may
depend on the last bit of ``np.log10``, which differs between numpy's
SIMD targets; the bytes do not, since the test that admits a value to
the fast path uses only exactly rounded arithmetic.
"""

from __future__ import annotations

# loaded at start-up, unlike signal (0.7 MB resident to import)
import _signal
import functools
import hashlib
import mmap
import os
# tempfile imports shutil, and numpy imports tempfile already, so
# importing them here costs nothing
import shutil
import struct
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np


#: rows formatted by one string-formatting call, and rows per queued block
_BLOCK_ROWS = 4096
#: the separator words of :func:`_head_words`
_COMMA, _POINT = np.frombuffer(b",\0\0\0.\0\0\0", np.uint32)
#: bytes per row of :func:`_value_text`: the longest ``%.12g`` text
#: (``-1.23456789012e-308``, 19 bytes), a newline and NUL padding
_VALUE_WIDTH = 24
#: the powers of ten that are exact doubles
_POW10 = np.array([float(10 ** k) for k in range(23)])
#: the powers of ten below 2**63
_INT10 = np.array([10 ** k for k in range(19)], np.int64)
#: the decimal exponents of :func:`_value_text`'s fast path: scientific
#: notation, and ``10 ** (11 - e)`` an exact double
_EXP_LO, _EXP_HI = -11, 33
#: a minus sign in the first byte of a word of :func:`_value_text`
_MINUS = np.frombuffer(b"-".ljust(8, b"\0"), np.uint64)[0]
#: one queue item: a group's index and its count of blocks ready; 8
#: bytes, within the least ``PIPE_BUF`` POSIX allows, so every write is
#: whole and every read of one item gets one
_ITEM = struct.Struct("=II")


def _spare_cpu() -> bool:
    """Whether a helper process would have a CPU of its own: this process
    can fork and may run on more than one CPU.  Each helper, the series
    formatter and the echo producer, is forked only then."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
        and len(os.sched_getaffinity(0)) > 1


class _Helper:
    """A forked child joined to the caller by one pipe: the child runs
    ``target(fd)`` on its end, the write end if ``writes`` and else the
    read end, and exits 0, or 1 if ``target`` raises (0 if it raises
    ``BrokenPipeError``: it wrote to a caller that is gone); the caller
    holds the other end as :attr:`fd`.  Each side closes the end it does
    not use, so the reader sees EOF, and the writer gets ``EPIPE``, once
    the other side is gone.  The child also closes the descriptors of
    :attr:`_ends`: the caller's ends of the helpers still running, so a
    helper's EOF or ``EPIPE`` never waits for a helper forked after it,
    and the open parts of a :class:`SeriesStream` whose formatter runs,
    so only the caller and that formatter hold a part.  Fork rather than
    spawn: the child needs no import and reads the caller's arrays
    without a copy, and it calls no BLAS routine, so it needs no lock
    that a thread of the caller (numpy's BLAS pool) could hold at the
    fork."""

    #: the descriptors a new child closes: the caller's ends of the pipes
    #: of the helpers not yet reaped, and the open parts of the streams
    #: whose formatter is forked
    _ends = set()

    def __init__(self, name: str, target, writes: bool):
        self.name = name
        read, write = os.pipe()
        self.fd, child = (read, write) if writes else (write, read)
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:  # the child: never returns into the caller
            code = 1
            try:
                for fd in {self.fd, *_Helper._ends}:
                    os.close(fd)
                target(child)
                code = 0
            except BrokenPipeError:
                code = 0
            finally:
                # no atexit handlers, no flush of inherited buffers
                os._exit(code)
        os.close(child)
        _Helper._ends.add(self.fd)

    def reap(self, ok: bool = True) -> None:
        """End the child: close this end and wait for it, ``RuntimeError``
        if it exited non-zero; unless ``ok`` (the caller failed), kill it
        first and check nothing.  A repeated reap does nothing."""
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        _Helper._ends.discard(self.fd)
        os.close(self.fd)
        if not ok:
            os.kill(pid, _signal.SIGKILL)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code and ok:
            raise RuntimeError(f"{self.name} {pid} exited {code}")


def _blocks(n_rows: int) -> int:
    return -(-n_rows // _BLOCK_ROWS)


def _shared(n: int, dtype=float) -> np.ndarray:
    """``n`` zeros in anonymous memory shared with the helpers forked
    after it."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(n * dtype.itemsize, 1)), dtype,
                         count=n)


class _Group(NamedTuple):
    """Series tables of one length and spacing, by name: one index and
    time column serves them all."""
    names: list
    n_rows: int
    spacing: float

    def template(self, block: int) -> tuple[int, int, bytes]:
        """The rows ``lo:hi`` of ``block``, and their template: each row's
        ``%d,%.12g,`` text of its index and time, with NULs among it to
        one width for every row, which :func:`_rows` completes with a
        member's values.  The block takes the words of
        :func:`_head_words` whole; where they refuse it, ``%`` formats
        the whole block, ``%20d,%19.12g,`` and three NULs a row, with its
        padding spaces as NULs.  Either way the byte columns that are NUL
        in every row are dropped."""
        lo = block * _BLOCK_ROWS
        hi = min(lo + _BLOCK_ROWS, self.n_rows)
        index = np.arange(lo, hi)
        # equal, bit for bit, to rows lo:hi of index * spacing
        times = index * self.spacing
        words = _head_words(index, times)
        if words is None:
            pairs = [None] * (2 * (hi - lo))
            pairs[::2], pairs[1::2] = index.tolist(), times.tolist()
            text = (b"%20d,%19.12g,\0\0\0" * (hi - lo)) % tuple(pairs)
            words = np.frombuffer(text.replace(b" ", b"\0"),
                                  np.uint32).reshape(hi - lo, -1)
        # the OR of every row, by halves that overlap in the middle row
        # of an odd count: a third of the time of np.bitwise_or.reduce
        mask = words
        while len(mask) > 1:
            half = -(-len(mask) // 2)
            mask = mask[:half] | mask[len(mask) - half:]
        keep = mask[0].view(np.uint8) != 0
        return lo, hi, words.view(np.uint8)[:, keep].tobytes()


class SeriesStream:
    """Series tables whose rows are formatted from group templates, while
    their values are computed where there is a formatter.

    ``tables`` maps a name to ``(n_rows, spacing)``; row ``i`` of a table
    reads ``i, i * spacing, values[i]``.  Tables of one ``n_rows`` and
    ``spacing`` form a group, formatted from one template per block (see
    the module docstring).  The caller fills :meth:`values` of each name
    and :meth:`publish`-es the rows that are final; a group's blocks are
    queued, and so formatted, once every member has published them.
    :func:`write_table`, given a table's :class:`SeriesColumns` and its
    file name, joins the stream and splices that table from its part: a
    nameless file in ``directory`` that holds its blocks in row order,
    freed once the table is spliced.  On leaving the ``with`` block no
    formatter or part is left, whether the block returns or raises, and
    a killed run leaves no part either.

    Where :func:`_spare_cpu` holds, one formatter, a :class:`_Helper`,
    is forked when the stream is made; the values live in memory shared
    with it until the caller drops them.  The queue is the helper's pipe,
    whose only read end the formatter holds.  A write to it waits while
    the pipe is full, and a formatter that is gone makes it raise
    (``RuntimeError``).  The join reaps the formatter; a caller that
    fails kills it.  Without a formatter (one usable CPU, or no way to
    fork) the values are ordinary arrays, no pipe is opened, and the
    caller formats each block as it queues it.
    """

    def __init__(self, directory, tables: dict):
        groups = {}
        for name, (n_rows, spacing) in tables.items():
            groups.setdefault((n_rows, spacing), _Group(
                [], n_rows, spacing)).names.append(name)
        self.groups = list(groups.values())
        self._group_of = {name: g for g, group in enumerate(self.groups)
                          for name in group.names}
        fork = _spare_cpu()
        new = _shared if fork else np.zeros
        self._values = {name: new(n_rows)
                        for name, (n_rows, _) in tables.items()}
        self._published = dict.fromkeys(tables, 0)  # blocks per table
        self._queued = [0] * len(self.groups)  # blocks queued per group
        # blocks formatted per group, by the process that formats them
        self._formatted = [0] * len(self.groups)
        self._helper = None  # the formatter
        Path(directory).mkdir(parents=True, exist_ok=True)
        # the descriptors share their file offsets across the fork, so
        # the caller reads a part only once the formatter is reaped
        self._parts = {name: tempfile.TemporaryFile(dir=directory)
                       for name in tables}
        if not fork:
            return
        try:
            # the formatter holds the only read end, so a write to the
            # queue fails (EPIPE) once it is gone, instead of waiting
            self._helper = _Helper("table worker", self.take, writes=False)
        except BaseException:
            self.discard()
            raise
        _Helper._ends.update(part.fileno() for part in self._parts.values())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.discard()

    def values(self, name) -> np.ndarray:
        """The values of table ``name``, to be filled by the caller."""
        return self._values[name]

    def publish(self, name, stop: int) -> None:
        """Rows ``:stop`` of table ``name`` are final: its whole blocks
        among them, and its last block once ``stop`` reaches the end of
        the table, are published.  Queue the blocks of its group that
        every member has published, if there are more than before: one
        item to the formatter, waiting while the pipe is full
        (``RuntimeError`` if the formatter is gone), or, with none,
        format them here."""
        g = self._group_of[name]
        group = self.groups[g]
        self._published[name] = _blocks(group.n_rows) \
            if stop >= group.n_rows else stop // _BLOCK_ROWS
        ready = min(self._published[member] for member in group.names)
        if ready <= self._queued[g]:
            return
        self._queued[g] = ready
        if self._helper is None:
            self._format(g, ready)
            return
        try:
            os.write(self._helper.fd, _ITEM.pack(g, ready))
        except BrokenPipeError:
            self._helper.reap()
            raise

    def take(self, queue: int) -> None:
        """The formatter: format the blocks queued on the pipe's read end
        ``queue`` into the parts until the queue is closed and empty."""
        while item := os.read(queue, _ITEM.size):
            self._format(*_ITEM.unpack(item))
        for part in self._parts.values():
            part.flush()

    def _format(self, g: int, ready: int) -> None:
        """Format the blocks of group ``g`` from those formatted so far
        up to ``ready`` into the part of every member."""
        group = self.groups[g]
        for block in range(self._formatted[g], ready):
            lo, hi, template = group.template(block)
            for name in group.names:
                self._parts[name].write(
                    _rows(template, self._values[name][lo:hi]))
        self._formatted[g] = ready

    def join(self) -> None:
        """Close the queue and reap the formatter, if there is one:
        ``RuntimeError`` if it failed.  Every queued block is then in its
        part.  A repeated join does nothing."""
        if self._helper is not None:
            self._helper.reap()

    def splice(self, name, path, head: bytes) -> None:
        """Write table ``name`` to ``path``, ``head`` and then a copy of
        its part, and close the part, which frees it; after :meth:`join`.
        The seek to the part's start flushes what the caller wrote to it,
        and the formatter flushed its writes before it exited."""
        part = self._parts[name]
        g = self._group_of[name]
        if self._queued[g] < _blocks(self.groups[g].n_rows):
            raise RuntimeError(f"{path}: rows were never queued")
        with open(path, "wb") as fh:
            fh.write(head)
            part.seek(0)
            shutil.copyfileobj(part, fh, 1 << 20)
        self._close(part)

    def discard(self) -> None:
        """Leave no formatter and no part: close the queue, kill and reap
        the formatter, which formats nothing more, and close the parts,
        which frees them.  Safe to repeat."""
        if self._helper is not None:
            self._helper.reap(ok=False)
        for part in self._parts.values():
            self._close(part)

    @staticmethod
    def _close(part) -> None:
        """Close ``part``, which frees it, and stop closing its descriptor
        in the helpers forked from now on."""
        if not part.closed:
            _Helper._ends.discard(part.fileno())
            part.close()


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words :func:`_value_text`, :func:`_int_words` and
    :func:`_head_words` assemble text from, built once per process that
    formats one: ``head[g - 1000 + 9000 * last]`` is ``NUL d.ddd NUL
    NUL`` for the first four digits ``g`` (trailing zeros, and a bare
    point, as NULs where ``last``: no digit follows); ``quad[g + 10000 *
    kind]`` is four digits ``g``, with trailing zeros as NULs where
    ``kind`` is 1, and leading zeros but the last as NULs where it is 2;
    and ``exp[e - _EXP_LO]`` is ``e+XX`` or ``e-XX``, a newline and
    NULs."""
    digits = (ord("0") + np.arange(10000)[:, None]
              // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    last = digits.copy()
    last[np.logical_and.accumulate(last[:, ::-1] == ord("0"),
                                   axis=1)[:, ::-1]] = 0
    lead = digits.copy()
    lead[:, :3][np.logical_and.accumulate(lead[:, :3] == ord("0"),
                                          axis=1)] = 0
    head = np.zeros((2, 9000, 8), np.uint8)
    head[:, :, 1] = digits[1000:, 0]
    head[:, :, 2] = ord(".")
    head[0, :, 3:6] = digits[1000:, 1:]
    head[1, :, 3:6] = last[1000:, 1:]
    head[1, last[1000:, 1] == 0, 2] = 0
    exp = b"".join((b"e%+03d\n" % e).ljust(8, b"\0")
                   for e in range(_EXP_LO, _EXP_HI + 1))
    return (head.reshape(-1, 8).view(np.uint64).ravel(),
            np.concatenate([digits, last, lead]).view(np.uint32).ravel(),
            np.frombuffer(exp, np.uint64))


def _mantissas(magnitude: np.ndarray, lo: int, hi: int):
    """``(e, n, exact)`` of each float64 ``magnitude >= 0``: its decimal
    exponent ``e`` from ``floor(log10)``, or 11 where that is not in
    ``lo..hi`` (``|11 - e| <= 22``); its 12-digit mantissa ``n`` (a
    float); and whether ``n`` is proven to be the magnitude rounded to
    12 significant digits, ``e`` its exponent.

    ``y = magnitude * 10**(11 - e)`` (or the matching division) is the
    exact ``x = magnitude * 10**(11 - e)`` correctly rounded, since the
    power of ten is an exact double.  Below 1e12 every half-integer is
    a double too, and correct rounding is monotone, so ``y`` lies
    strictly between two half-integers only if ``x`` does: ``n =
    rint(y)`` is then ``x`` rounded to an integer, the mantissa, when
    ``1e11 <= y``, ``n < 1e12`` and ``y`` is not itself a tie.  A
    ``log10`` one ulp off (it differs between SIMD targets) can only
    make that proof fail: ``y`` then falls outside ``[1e11, 1e12)``, or
    rounds to a mantissa that ``%`` prints the same, so the bytes built
    from ``n`` do not depend on it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(magnitude))
        exact = (e >= lo) & (e <= hi)  # False for 0, inf, nan
        e = np.where(exact, e, 11.0).astype(np.intp)
        y = magnitude * _POW10[np.maximum(11 - e, 0)]
        down = e > 11
        y[down] = magnitude[down] / _POW10[e[down] - 11]
        mantissa = np.rint(y)
        exact &= (np.abs(y - mantissa) < 0.5) & (y >= 1e11) \
            & (mantissa < 1e12)
    return e, mantissa, exact


def _value_text(values: np.ndarray) -> np.ndarray:
    """``b"%.12g\\n" % v`` of each float64 of ``values``, one NUL-padded
    row of :data:`_VALUE_WIDTH` bytes each (``uint8``).

    A value in scientific notation (``|v| < 1e-4`` or ``>= 1e12``)
    whose decimal exponent is in ``_EXP_LO.._EXP_HI`` takes the fast
    path, if :func:`_mantissas` proves its 12-digit mantissa exact.  Its
    digits come from integer arithmetic and tables of words.  Every
    other value is formatted by ``%``.
    """
    words = np.empty((len(values), _VALUE_WIDTH // 8), np.uint64)
    magnitude = np.abs(values)
    head, quad, exp = _digit_words()
    e, mantissa, fast = _mantissas(magnitude, _EXP_LO, _EXP_HI)
    fast &= (magnitude < 1e-4) | (magnitude >= 1e12)
    mantissa = np.where(fast, mantissa, 1e11).astype(np.int64)
    first = mantissa // 10 ** 8
    rest = mantissa - first * 10 ** 8
    second = rest // 10 ** 4
    third = rest - second * 10 ** 4
    # no digit but zeros after the second group of four, or the first
    last2 = third == 0
    last1 = last2 & (second == 0)
    words[:, 0] = head[first - 1000 + 9000 * last1] \
        | np.where(values < 0, _MINUS, 0)
    quads = words.view(np.uint32)
    quads[:, 2] = quad[second + 10000 * last2]
    quads[:, 3] = quad[third + 10000]
    words[:, 2] = exp[e - _EXP_LO]
    slow = np.flatnonzero(~fast)
    text = words.view(np.uint8)
    if len(slow):
        # %23.12g: every %.12g text, left-padded to one row each
        padded = (b"%23.12g\n" * len(slow)) % tuple(values[slow].tolist())
        text[slow] = np.frombuffer(padded.replace(b" ", b"\0"),
                                   np.uint8).reshape(-1, _VALUE_WIDTH)
    return text


def _int_words(m: np.ndarray, out: np.ndarray) -> None:
    """Write ``b"%d" % i`` of each int64 ``i`` of ``m``, ``0 <= i < 10 **
    (4 * q)``, into the ``q`` words of its row of ``out`` (``uint32``):
    four digits a word, leading zeros as NULs."""
    quad = _digit_words()[1]
    n_quads = out.shape[1]
    for j in range(n_quads):
        scale = 10 ** (4 * (n_quads - 1 - j))
        digits = m // scale % 10000
        # kind 2 where no digit comes before these four; kind 1 of 0,
        # four NULs, where none comes before or in them but one follows
        lead = m < 10000 * scale if j else np.ones(len(m), bool)
        kind = np.where(lead, 2, 0)
        if j < n_quads - 1:
            kind[lead & (digits == 0)] = 1
        out[:, j] = quad[digits + 10000 * kind]


def _head_words(index: np.ndarray, times: np.ndarray) -> np.ndarray | None:
    """``b"%d,%.12g," % (i, t)`` of each int64 ``i >= 0`` of ``index``
    and float64 ``t`` of ``times``, as one row of words with NULs among
    the text (``uint32``): the index, ``,``, the time's integer part,
    the point, its fraction and ``,``; or ``None`` unless every time is
    on the exact path below, so the words take a block whole or not at
    all.

    A time in fixed notation (decimal exponent ``e`` in -4..11) is on
    it if :func:`_mantissas` proves its 12-digit mantissa ``n`` exact.
    Then ``n // 10 ** (11 - e)`` is the integer part, four digits a word
    with leading zeros as NULs, and the rest is the fraction, scaled to
    16 digits with trailing zeros as NULs, after a point only where it
    is not zero.  +0.0 is on it too, as integer part 0 and no fraction.
    Only the words that some row needs are made.  No other time is: a
    negative one (a series time is ``i * spacing``, ``spacing > 0``), a
    tie, one in scientific notation or a non-finite one.
    """
    e, mantissa, exact = _mantissas(np.abs(times), -4, 11)
    if np.signbit(times).any() or not (exact | (times == 0)).all():
        return None
    mantissa = mantissa.astype(np.int64)  # 0 for a zero time
    scale = _INT10[11 - e]
    whole = mantissa // scale
    fraction = (mantissa - whole * scale) * _INT10[5 + e]
    n_index = -(-len(str(index[-1])) // 4)
    n_whole = -(-len(str(whole.max())) // 4)
    n_fraction = next((5 - j for j in range(1, 5)
                       if (fraction % 10 ** (4 * j)).any()), 0)
    words = np.empty((len(times), n_index + n_whole + n_fraction + 3),
                     np.uint32)
    _int_words(index, words[:, :n_index])
    words[:, n_index] = _COMMA
    _int_words(whole, words[:, n_index + 1:n_index + 1 + n_whole])
    point = n_index + 1 + n_whole
    words[:, point] = np.where(fraction != 0, _POINT, 0)
    quad = _digit_words()[1]
    for j in range(n_fraction):
        scale = 10 ** (12 - 4 * j)
        # kind 1 where no digit but zeros follows these four
        words[:, point + 1 + j] = quad[fraction // scale % 10000
                                       + 10000 * (fraction % scale == 0)]
    words[:, -1] = _COMMA
    return words


def _rows(template: bytes, values: np.ndarray) -> bytes:
    """The rows of a group block's ``template`` (see
    :meth:`_Group.template`), each followed by its value of ``values``
    as ``%.12g`` and a newline."""
    rows = np.empty((len(values), len(template) // len(values)
                     + _VALUE_WIDTH), np.uint8)
    rows[:, :-_VALUE_WIDTH] = np.frombuffer(template, np.uint8).reshape(
        len(values), -1)
    rows[:, -_VALUE_WIDTH:] = _value_text(values)
    return rows.tobytes().translate(None, b"\0")


class SeriesColumns(list):
    """The columns of ``stream``'s table ``name`` for :func:`write_table`:
    ``[values]`` alone; the stream formats each row's index and time."""

    def __init__(self, stream: SeriesStream, name):
        super().__init__([stream.values(name)])
        self.stream, self.name = stream, name


def write_table(path, header: list[str], columns) -> Path:
    """Write columns as comma-delimited text with a plain header row.

    Header entries name the columns including units (e.g. ``tau_s``,
    ``deviation``); all columns must share one length.  Values are written
    as ``%.12g``, giving the bytes of ``np.savetxt(path, data,
    delimiter=",", header=..., comments="", fmt="%.12g")``, but formatted
    as bytes a block of rows per call instead of one row per call.

    A series table travels as its values: given a :class:`SeriesColumns`,
    ``header`` must have three entries, and the table is written to
    ``path`` from the rows its stream formatted from the group templates.
    This process joins the stream, which reaps its formatter (every block
    was formatted when it was queued, by the formatter or, where the
    stream has none, by the caller), and splices the table: ``head`` and
    then a copy of its one nameless part, which is then freed.  Any other
    table is formatted here, and nothing is forked.  The bytes do not
    depend on the number of CPUs.
    """
    path = Path(path)
    # latin1: one byte per character
    head = (",".join(header) + "\n").encode("latin1")
    if isinstance(columns, SeriesColumns):
        if len(header) != 3:
            raise ValueError(f"{path}: not the three-column header of "
                             f"series table {columns.name!r}")
        columns.stream.join()
        columns.stream.splice(columns.name, path, head)
        return path
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(cols) != len(header):
        raise ValueError("one header entry per column required")
    if any(c.shape != cols[0].shape for c in cols):
        raise ValueError("columns must share one length")
    path.parent.mkdir(parents=True, exist_ok=True)
    n_cols, n_rows = len(cols), len(cols[0])
    row_fmt = (",".join(["%.12g"] * n_cols) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(head)
        for lo in range(0, n_rows, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_rows)
            values = [None] * ((hi - lo) * n_cols)  # row-major
            for j, c in enumerate(cols):
                values[j::n_cols] = c[lo:hi].tolist()
            fh.write((row_fmt * (hi - lo)) % tuple(values))
    return path


def file_digest(path) -> str:
    """Hex SHA-256 digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
