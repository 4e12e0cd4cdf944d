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


def load_data_matrix(path: str | Path) -> DataMatrix:
    """Read an N x d CSV of points (one per row) into a (d, N) DataMatrix.
    There are no comments: a ``#`` cell is a ``BadCellError`` like any
    other cell that is not a number.  A file with no data rows raises
    ``TooFewPointsError`` naming it."""
    rows = _read_table(path)
    if rows.size == 0:
        raise TooFewPointsError(f"{path}: no data rows")
    return DataMatrix(rows.T)


def save_data_matrix(path: str | Path, m: DataMatrix) -> None:
    np.savetxt(path, m.values.T, delimiter=",", fmt=FLOAT_FMT)


def save_labels(path: str | Path, t: TimeLabels) -> None:
    """Write ``index,value`` rows, one per point."""
    _write_indexed_csv(path, ["index", "value"], [FLOAT_FMT % v for v in t.angles])


def save_ranking(path: str | Path, r: Ranking) -> None:
    """Write ``index,value`` rows where value is the rank of point index."""
    _write_indexed_csv(path, ["index", "value"], r.ranks().tolist())


def save_recovery(path: str | Path, t: TimeLabels, r: Ranking) -> None:
    """Write ``index,t_hat,rank`` rows, one per point."""
    _write_indexed_csv(path, ["index", "t_hat", "rank"],
                       [FLOAT_FMT % v for v in t.angles], r.ranks().tolist())


def _write_indexed_csv(path: str | Path, head: list[str], *columns: list) -> None:
    """Write ``head``, then one row ``i, columns[0][i], ...`` per point.
    No points raise ``LengthMismatchError``: a file without data rows
    does not load."""
    n = len(columns[0])
    if n == 0:
        raise LengthMismatchError(f"{path}: no points to write; a file of no rows does not load")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(head)
        w.writerows(zip(range(n), *columns))


def _read_table(path: str | Path) -> np.ndarray:
    """The file's rows as a (rows, columns) array, with no rows when it
    holds none.  The first nonblank line is a header exactly when none of
    its cells is a number; a header fixes the width of every row.
    ``np.loadtxt`` reads the rows, and a file it refuses is scanned by
    ``_scan_cells``, which names the line or cell."""
    with open(path, newline="") as f:
        line, head = next(((i, row) for i, row in enumerate(csv.reader(f), start=1)
                           if "".join(row).strip()), (0, []))
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
    with open(path, newline="") as f:
        body = [(line, row) for line, row in enumerate(csv.reader(f), start=1)
                if "".join(row).strip() and line > skip]
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
