import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectime import DataMatrix, Ranking, TimeLabels
from spectime import io
from spectime.errors import BadCellError, BadIndexError, LengthMismatchError, NonFiniteEntryError
from spectime.errors import TooFewPointsError


def test_matrix_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = DataMatrix(rng.standard_normal((3, 7)) * 1e3)
    path = tmp_path / "m.csv"
    io.save_data_matrix(path, m)
    back = io.load_data_matrix(path)
    assert np.array_equal(back.values, m.values)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 8)), elements=finite))
def test_matrix_roundtrip_is_bit_exact_property(values):
    # every finite double, signed zeros and subnormals included, survives %.17g
    m = DataMatrix(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        io.save_data_matrix(path, m)
        assert same_bits(io.load_data_matrix(path).values, m.values)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(0, 12), elements=st.floats(0.0, 2.0 * np.pi)))
def test_labels_roundtrip_is_bit_exact_property(angles):
    # no labels: the writer refuses, since a header-only file does not load
    t = TimeLabels(angles)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        if len(t) == 0:
            with pytest.raises(LengthMismatchError, match="no points to write"):
                io.save_labels(path, t)
            assert not path.exists()
            return
        io.save_labels(path, t)
        assert same_bits(io.load_labels(path).angles, t.angles)


def test_matrix_file_is_point_per_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")  # two points in R^3
    m = io.load_data_matrix(path)
    assert m.values.shape == (3, 2)
    assert np.array_equal(m.values[:, 0], [1, 2, 3])


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a,b\n1,2\n3,4\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("1,2\n3,4\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("\na,b\n1,2\n3,4\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("\n1,2\n3,4\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("1,2\n  \n3,4\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("  \na,b\n1,2\n3,4\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("  \n1,2\n3,4\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("1,y\n3,4\n", (BadCellError, "line 1, column 2: 'y' is not a number")),
        ("x,y\n", (TooFewPointsError, "no data rows")),
        ("x,y\n1,2,3\n4,5,6\n", (LengthMismatchError, "line 2 has 3 columns, expected 2")),
    ],
    ids=["text-header", "no-header", "blank-then-header", "blank-then-data",
         "whitespace-between-data", "whitespace-then-header", "whitespace-then-data",
         "number-and-text", "header-alone", "header-fixes-the-width"],
)
def test_first_line_is_a_header_when_no_cell_is_a_number(tmp_path, text, expected):
    # one rule for every reader, and no flag: a header leaves the rows' values as they
    # are, and a line of whitespace alone is blank
    path = tmp_path / "m.csv"
    path.write_text(text)
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error, match=message) as err:
            io.load_data_matrix(path)
        assert str(path) in str(err.value)
    else:
        assert np.array_equal(io.load_data_matrix(path).values, expected)


def test_labels_roundtrip(tmp_path):
    t = TimeLabels(np.array([0.25, 6.0, 3.125]))
    path = tmp_path / "t.csv"
    io.save_labels(path, t)
    assert path.read_text().splitlines()[0] == "index,value"
    back = io.load_labels(path)
    assert np.array_equal(back.angles, t.angles)


def test_recovery_file_carries_labels_and_ranks(tmp_path):
    t = TimeLabels(np.array([0.5, 0.1, 2.0]))
    r = Ranking(np.array([1, 0, 2]))
    path = tmp_path / "rec.csv"
    io.save_recovery(path, t, r)
    assert io.load_labels(path).angles[0] == 0.5
    assert np.array_equal(io.load_ranking(path).perm, r.perm)


def test_ranking_roundtrip(tmp_path):
    r = Ranking(np.array([3, 1, 0, 2]))
    path = tmp_path / "rank.csv"
    io.save_ranking(path, r)
    assert np.array_equal(io.load_ranking(path).perm, r.perm)


def test_indexed_writers_bytes(tmp_path):
    # the csv module's CRLF line ends, %.17g labels, integer ranks
    t, r = TimeLabels(np.array([0.5, 0.1])), Ranking(np.array([1, 0]))
    io.save_labels(tmp_path / "t.csv", t)
    io.save_ranking(tmp_path / "r.csv", r)
    io.save_recovery(tmp_path / "rec.csv", t, r)
    assert (tmp_path / "t.csv").read_bytes() == b"index,value\r\n0,0.5\r\n1,0.10000000000000001\r\n"
    assert (tmp_path / "r.csv").read_bytes() == b"index,value\r\n0,1\r\n1,0\r\n"
    assert (tmp_path / "rec.csv").read_bytes() == (
        b"index,t_hat,rank\r\n0,0.5,1\r\n1,0.10000000000000001,0\r\n")


EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308]  # signed zero, least subnormal, largest


@pytest.mark.parametrize("d, n", [(1, 3), (3, 2), (1, io.BLOCK + 1), (2, io.BLOCK + 7),
                                  (io.BLOCK + 3, 2)],
                         ids=["d=1", "N=2", "d=1-past-a-block", "past-whole-blocks",
                              "row-wider-than-a-block"])
def test_data_matrix_bytes_are_savetxts(tmp_path, d, n):
    values = np.random.default_rng(n).standard_normal((d, n)) * 1e3
    values.flat[:3] = EXTREMES
    m = DataMatrix(values)
    np.savetxt(tmp_path / "old.csv", m.values.T, delimiter=",", fmt="%.17g")
    io.save_data_matrix(tmp_path / "new.csv", m)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert same_bits(io.load_data_matrix(tmp_path / "new.csv").values, m.values)


def write_with_csv_module(path, head, *columns):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(head)
        w.writerows(zip(range(len(columns[0])), *columns))


@pytest.mark.parametrize("n", [1, 3, io.BLOCK + 7], ids=["N=1", "N=3", "past-whole-blocks"])
def test_indexed_file_bytes_are_csv_writers(tmp_path, n):
    # the rows of 2 and 3 columns, 32768 and 21845 to a block, end mid-block
    rng = np.random.default_rng(n)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    angles[:3] = [-0.0, 5e-324, 2.0 * math.pi][:n]
    t, r = TimeLabels(angles), Ranking(rng.permutation(n))
    labels = ["%.17g" % v for v in t.angles]
    ranks = r.ranks().tolist()
    for name, save, args, head, columns in [
        ("t", io.save_labels, [t], ["index", "value"], [labels]),
        ("r", io.save_ranking, [r], ["index", "value"], [ranks]),
        ("rec", io.save_recovery, [t, r], ["index", "t_hat", "rank"], [labels, ranks]),
    ]:
        write_with_csv_module(tmp_path / f"old-{name}.csv", head, *columns)
        save(tmp_path / f"{name}.csv", *args)
        assert (tmp_path / f"{name}.csv").read_bytes() == (
            tmp_path / f"old-{name}.csv").read_bytes(), name
    assert same_bits(io.load_labels(tmp_path / "t.csv").angles, t.angles)
    assert same_bits(io.load_labels(tmp_path / "rec.csv").angles, t.angles)
    for name in ("r", "rec"):
        assert np.array_equal(io.load_ranking(tmp_path / f"{name}.csv").perm, r.perm)


def test_empty_ranking_and_recovery_refused(tmp_path):
    t, r = TimeLabels(np.empty(0)), Ranking(np.empty(0, dtype=np.int64))
    for write in (lambda p: io.save_ranking(p, r), lambda p: io.save_recovery(p, t, r)):
        with pytest.raises(LengthMismatchError, match="no points to write"):
            write(tmp_path / "o.csv")
    assert not (tmp_path / "o.csv").exists()


def test_indexed_files_sorted_by_index(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("index,value\n2,0.3\n0,0.1\n1,0.2\n")
    back = io.load_labels(path)
    assert np.allclose(back.angles, [0.1, 0.2, 0.3])


def test_shuffled_indices_accepted(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("index,t_hat,rank\n3,0.4,3\n1,0.2,1\n0,0.1,0\n2,0.3,2\n")
    assert np.array_equal(io.load_labels(path).angles, [0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(io.load_ranking(path).ranks(), [0, 1, 2, 3])


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,0.1\n0,0.2\n2,0.3\n", "index 0 appears more than once"),
        ("0,0.1\n1,0.2\n3,0.3\n", "index 2 is missing"),
        ("1,0.1\n2,0.2\n3,0.3\n", "index 0 is missing"),
        ("0,0.1\n0.5,0.2\n2,0.3\n", "index 0.5 is not one of 0..2"),
        ("-1,0.1\n0,0.2\n1,0.3\n", "index -1 is not one of 0..2"),
    ],
)
def test_bad_index_column_rejected(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text("index,value\n" + body)
    with pytest.raises(BadIndexError, match=message):
        io.load_labels(path)
    with pytest.raises(BadIndexError, match=message):
        io.load_ranking(path)


def test_cells_numpy_refuses_read_by_the_csv_scan(tmp_path):
    # quoted cells are valid CSV that np.loadtxt does not parse; blank lines are skipped
    path = tmp_path / "t.csv"
    path.write_text('index,value\n"1","0.2"\n\n0,0.1\n\n')
    assert np.array_equal(io.load_labels(path).angles, [0.1, 0.2])
    path.write_text('"1",2\n\n3,"4"\n')
    assert np.array_equal(io.load_data_matrix(path).values, [[1.0, 3.0], [2.0, 4.0]])


def test_header_only_file_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("index,value\n")
    with pytest.raises(LengthMismatchError, match="no data rows"):
        io.load_labels(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("index,value\n0,0.1\n1\n2,0.3\n", "line 3 has 1 columns, expected 2"),
        ("index,value\n0,0.1\n1,0.2,9\n", "line 3 has 3 columns, expected 2"),
        ("0,0.1\n1,0.2\n2\n", "line 3 has 1 columns, expected 2"),
        ("index,t_hat,rank\n0,0.1,0\n1,0.2\n", "line 3 has 2 columns, expected 3"),
        ("index,value\n0,0.1,9\n1,0.2,9\n", "line 2 has 3 columns, expected 2"),
        # an index and no value column, with a header or without
        ("index\n0\n1\n2\n", "1 column; indexed files need index and value columns"),
        ("0\n1\n2\n", "1 column; indexed files need index and value columns"),
    ],
)
def test_ragged_row_named_by_file_and_line(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(LengthMismatchError, match=message) as err:
        io.load_labels(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("index,value\n0,0.1\n1,abc\n", "line 3, column 2: 'abc' is not a number"),
        ("index,t_hat,rank\n0,0.1,0\nx,0.2,1\n", "line 3, column 1: 'x' is not a number"),
        ("0,0.1\n1,\n", "line 2, column 2: '' is not a number"),
    ],
)
def test_non_numeric_cell_named_by_file_line_and_cell(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    for load in (io.load_labels, io.load_ranking):
        with pytest.raises(BadCellError, match=message) as err:
            load(path)
        assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "text, header, error, message",
    [
        ("1,2\n3,4\n5\n", False, LengthMismatchError, "line 3 has 1 columns, expected 2"),
        ("1,2\n\n3,4,5\n", True, LengthMismatchError, "line 4 has 3 columns, expected 2"),
        ("1,2\n3,x\n", False, BadCellError, "line 2, column 2: 'x' is not a number"),
        # no comments: a row is not dropped at "#"
        ("1,2\n#3,4\n5,6 # c\n7,8\n", False, BadCellError,
         "line 2, column 1: '#3' is not a number"),
        ("0.0,1.0\n1.0,0.0\nnan,0.5\n", False, NonFiniteEntryError,
         "line 3, column 1: nan is not a finite number"),
        ("1,2\n\n3,-inf\n", True, NonFiniteEntryError,
         "line 4, column 2: -inf is not a finite number"),
        # quoted cells: the csv scan reads the rows
        ('"1",2\n  \n3,"inf"\n', False, NonFiniteEntryError,
         "line 3, column 2: inf is not a finite number"),
    ],
)
def test_data_matrix_errors_named_by_file_and_line(tmp_path, text, header, error, message):
    # the line numbers count a header line
    path = tmp_path / "m.csv"
    path.write_text(("a,b\n" if header else "") + text)
    with pytest.raises(error, match=message) as err:
        io.load_data_matrix(path)
    assert str(path) in str(err.value)

