"""Delimited-table output and spectrum ingestion."""

from __future__ import annotations

import hashlib
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


def write_table(path, header: list[str], columns) -> Path:
    """Write columns as comma-delimited text with a plain header row.

    Header entries name the columns including units (e.g. ``tau_s``,
    ``deviation``); all columns must share one length.  Values are written
    as ``%.12g``, giving the bytes of ``np.savetxt(path, data,
    delimiter=",", header=..., comments="", fmt="%.12g")``, but formatted a
    block of rows per call instead of one row per call, and integer
    columns below 1e12 in magnitude as ``%d``, which prints them alike.
    """
    path = Path(path)
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(cols) != len(header):
        raise ValueError("one header entry per column required")
    if any(c.shape != cols[0].shape for c in cols):
        raise ValueError("columns must share one length")
    n_cols, n_rows = len(cols), len(cols[0])
    row_fmt = ",".join(_column_format(c) for c in cols) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="latin1") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            # row-major values; integer columns stay Python ints
            values = [None] * ((stop - start) * n_cols)
            for j, c in enumerate(cols):
                values[j::n_cols] = c[start:stop].tolist()
            fh.write((row_fmt * (stop - start)) % tuple(values))
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
