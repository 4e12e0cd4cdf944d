"""CSV file formats.

Data matrices are stored one point per row (an N x d file), i.e. the
transpose of the in-memory (d, N) layout, and are written without a
header.  Label, ranking, and recovery files carry an ``index,...``
header, and their index column must hold 0..N-1 once each, in any
order.  Every reader follows one header rule (``_read_table``): the
first nonblank line is a header exactly when none of its cells is a
number, and a line of whitespace alone is blank.  All floats are
written with 17 significant digits so that a read-back round-trips
bit-exactly.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .core import DataMatrix, Ranking, TimeLabels, ranking_from_labels
from .errors import BadCellError, BadIndexError, LabelRangeError, LengthMismatchError
from .errors import NonFiniteEntryError, NotAPermutationError, TooFewPointsError

FLOAT_FMT = "%.17g"
BLOCK = 1 << 16  # values formatted by one % operation and written by one write


def load_data_matrix(path: str | Path) -> DataMatrix:
    """Read an N x d CSV of points (one per row) into a (d, N) DataMatrix.
    There are no comments: a ``#`` cell is a ``BadCellError`` like any
    other cell that is not a number.  A file with no data rows raises
    ``TooFewPointsError`` naming it, and a cell that is not finite a
    ``NonFiniteEntryError`` naming the file, the line and the column."""
    rows = _read_table(path)
    if rows.size == 0:
        raise TooFewPointsError(f"{path}: no data rows")
    finite = np.isfinite(rows)
    if not finite.all():
        i, col = divmod(int(np.argmin(finite)), rows.shape[1])
        lines = [line for line, _ in _nonblank_rows(path)]
        line = lines[len(lines) - len(rows) + i]  # past a header line, if there is one
        raise NonFiniteEntryError(i, col, f"{path}: line {line}, column {col + 1}: "
                                  f"{float(rows[i, col])!r} is not a finite number")
    return DataMatrix(rows.T)


def save_data_matrix(path: str | Path, m: DataMatrix) -> None:
    """Write one point per row, no header, ``\\n`` line ends: the bytes of
    ``np.savetxt(path, m.values.T, delimiter=",", fmt=FLOAT_FMT)``."""
    _write_table(path, "", ",".join([FLOAT_FMT] * m.dim) + "\n", m.values.T)


def save_labels(path: str | Path, t: TimeLabels) -> None:
    """Write ``index,value`` rows, one per point."""
    _write_indexed_csv(path, "index,value", FLOAT_FMT, t.angles)


def save_ranking(path: str | Path, r: Ranking) -> None:
    """Write ``index,value`` rows where value is the rank of point index."""
    _write_indexed_csv(path, "index,value", "%d", r.ranks())


def save_recovery(path: str | Path, t: TimeLabels, r: Ranking) -> None:
    """Write ``index,t_hat,rank`` rows, one per point."""
    _write_indexed_csv(path, "index,t_hat,rank", FLOAT_FMT + ",%d", t.angles, r.ranks())


def _write_indexed_csv(path: str | Path, head: str, fmt: str, *columns: np.ndarray) -> None:
    """Write ``head``, then one row ``i,columns[0][i],...`` per point in
    ``fmt``, each line ended by ``\\r\\n``: the bytes of ``csv.writer``'s
    rows.  The columns and the index are held as float64 (a rank, like an
    index, is below 2^53, so ``%d`` prints it exactly).  No points raise
    ``LengthMismatchError``: a file without data rows does not load."""
    n = len(columns[0])
    if n == 0:
        raise LengthMismatchError(f"{path}: no points to write; a file of no rows does not load")
    table = np.column_stack((np.arange(n), *columns))
    _write_table(path, head + "\r\n", "%d," + fmt + "\r\n", table)


def _write_table(path: str | Path, head: str, row: str, table: np.ndarray) -> None:
    """Write ``head``, then ``row % tuple(table[i])`` for each row i of the
    2-D ``table``: a block of whole rows, about ``BLOCK`` values (at least
    one row), is formatted by one ``%`` and written by one ``write``."""
    rows = max(1, BLOCK // table.shape[1])
    with open(path, "w", newline="") as f:
        f.write(head)
        for start in range(0, table.shape[0], rows):
            block = table[start:start + rows]
            f.write((row * len(block)) % tuple(block.ravel().tolist()))


def _nonblank_rows(path: str | Path):
    """The ``(line, cells)`` of each line of the file that is not blank;
    a line of whitespace alone is blank."""
    with open(path, newline="") as f:
        for line, cells in enumerate(csv.reader(f), start=1):
            if "".join(cells).strip():
                yield line, cells


def _read_table(path: str | Path) -> np.ndarray:
    """The file's rows as a (rows, columns) array, with no rows when it
    holds none.  The first nonblank line is a header exactly when none of
    its cells is a number; a header fixes the width of every row.
    ``np.loadtxt`` reads the rows, and a file it refuses is scanned by
    ``_scan_cells``, which names the line or cell."""
    line, head = next(_nonblank_rows(path), (0, []))
    skip, width = (line, len(head)) if head and not any(map(_is_number, head)) else (0, None)
    with warnings.catch_warnings():  # numpy warns on no data; the callers say so
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, comments=None)
            if rows.size == 0 or width in (None, rows.shape[1]):
                return rows
        except ValueError:
            pass
    return _scan_cells(path, skip, width)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _scan_cells(path: str | Path, skip: int, width: int | None) -> np.ndarray:
    """The nonblank rows (whitespace alone is blank, as in the header
    search) after line ``skip``, read cell by cell; a row not
    ``width`` (if None, the first row's) cells wide or a cell that is not a
    number is named by file and line."""
    body = [(line, row) for line, row in _nonblank_rows(path) if line > skip]
    if width is None:
        width = len(body[0][1]) if body else 0
    out = []
    for line, row in body:
        if len(row) != width:
            raise LengthMismatchError(
                f"{path}: line {line} has {len(row)} columns, expected {width}")
        for col, cell in enumerate(row, start=1):
            try:
                out.append(float(cell))
            except ValueError:
                raise BadCellError(
                    f"{path}: line {line}, column {col}: {cell!r} is not a number") from None
    return np.array(out, dtype=np.float64).reshape(len(body), width)


def _read_indexed_csv(path: str | Path) -> np.ndarray:
    """The rows of a label, ranking or recovery file (``_read_table``) by
    index; no rows, or one column, is a ``LengthMismatchError``."""
    data = _read_table(path)
    if data.size == 0:
        raise LengthMismatchError(f"{path}: no data rows")
    if data.shape[1] < 2:
        raise LengthMismatchError(f"{path}: 1 column; indexed files need index and value columns")
    data = data[np.argsort(data[:, 0], kind="stable")]
    n = data.shape[0]
    bad = np.flatnonzero(data[:, 0] != np.arange(n))
    if bad.size:
        j, found = int(bad[0]), data[bad[0], 0]
        if found > j:
            what = f"index {j} is missing"
        elif j > 0 and found == j - 1:
            what = f"index {j - 1} appears more than once"
        else:
            what = f"index {found:g} is not one of 0..{n - 1}"
        raise BadIndexError(f"{path}: {what}; the index column must hold 0..{n - 1} once each")
    return data


def _column(path: str | Path, data: np.ndarray, col: int) -> np.ndarray:
    """Column ``col`` of an indexed file's rows; a cell that is not finite
    is a ``NonFiniteEntryError`` naming the file, the index and the column."""
    values = data[:, col]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteEntryError(i, col, f"{path}: index {i}, column {col + 1}: "
                                  f"{float(values[i])!r} is not a finite number")
    return values


def load_labels(path: str | Path) -> TimeLabels:
    """Read labels, time on [0, 2*pi], from an ``index,value`` or
    ``index,t_hat,rank`` file; a label outside that range is a
    ``LabelRangeError`` naming the file, and one that is not finite a
    ``NonFiniteEntryError``."""
    return _labels(path, _read_indexed_csv(path))


def _labels(path: str | Path, data: np.ndarray) -> TimeLabels:
    try:
        return TimeLabels(_column(path, data, 1))
    except LabelRangeError as exc:
        raise LabelRangeError(f"{path}: {exc}") from None


def load_ranking(path: str | Path) -> Ranking:
    """Read a ranking from an ``index,value`` (value = rank) or
    ``index,t_hat,rank`` file; when that column, rounded, is not a
    permutation of 0..N-1, from the labels in column 1, ranked.  A rank
    that is not finite is a ``NonFiniteEntryError`` naming the file."""
    data = _read_indexed_csv(path)
    col = 2 if data.shape[1] >= 3 else 1
    try:
        return Ranking.from_ranks(np.rint(_column(path, data, col)).astype(np.int64))
    except NotAPermutationError:
        return ranking_from_labels(_labels(path, data))
