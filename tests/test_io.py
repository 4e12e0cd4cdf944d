import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectime import DataMatrix, Ranking, TimeLabels
from spectime import io
from spectime.errors import BadCellError, BadIndexError, LengthMismatchError


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
@given(arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 2.0 * np.pi)))
def test_labels_roundtrip_is_bit_exact_property(angles):
    t = TimeLabels(angles)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        io.save_labels(path, t)
        assert same_bits(io.load_labels(path).angles, t.angles)


def test_matrix_file_is_point_per_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")  # two points in R^3
    m = io.load_data_matrix(path)
    assert m.values.shape == (3, 2)
    assert np.array_equal(m.values[:, 0], [1, 2, 3])


def test_header_flag_skips_first_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    m = io.load_data_matrix(path, header=True)
    assert m.values.shape == (2, 2)


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


def test_indexed_files_sorted_by_index(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("index,value\n2,0.3\n0,0.1\n1,0.2\n")
    back = io.load_labels(path)
    assert np.allclose(back.angles, [0.1, 0.2, 0.3])


def test_square_matrix_dump(tmp_path):
    a = np.array([[0.5, -0.5], [-0.5, 0.5]])
    path = tmp_path / "lap.csv"
    io.save_square_matrix(path, a)
    assert np.array_equal(np.loadtxt(path, delimiter=","), a)


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
        ("a,b\n1,2\n\n3,4,5\n", True, LengthMismatchError, "line 4 has 3 columns, expected 2"),
        ("1,2\n3,x\n", False, BadCellError, "line 2, column 2: 'x' is not a number"),
    ],
)
def test_data_matrix_errors_named_by_file_and_line(tmp_path, text, header, error, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(error, match=message) as err:
        io.load_data_matrix(path, header=header)
    assert str(path) in str(err.value)
