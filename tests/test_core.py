import numpy as np
import pytest

from spectime import (
    DataMatrix,
    KernelParams,
    Ranking,
    TimeLabels,
    ranking_from_labels,
    validate_matrix,
)
from spectime.errors import NonFiniteEntryError, NotAPermutationError, TooFewPointsError

from oracles import comparison_sort


class TestValidateMatrix:
    def test_all_finite_ok(self):
        out = validate_matrix(np.zeros((2, 2)))
        assert out.shape == (2, 2)

    def test_nan_reports_position(self):
        m = np.zeros((2, 3))
        m[0, 1] = np.nan
        with pytest.raises(NonFiniteEntryError) as exc:
            validate_matrix(m)
        assert (exc.value.row, exc.value.col) == (0, 1)

    def test_inf_rejected(self):
        m = np.zeros((2, 2))
        m[1, 0] = np.inf
        with pytest.raises(NonFiniteEntryError):
            validate_matrix(m)

    def test_single_point_rejected(self):
        with pytest.raises(TooFewPointsError):
            validate_matrix(np.zeros((3, 1)))


class TestKernelParams:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, 1e-200, 1e300])
    def test_rejects_sigma_whose_kernel_scale_is_not_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            KernelParams(sigma)

    @pytest.mark.parametrize("sigma", [6e-155, 1e-3, 1e3, 9e153])
    def test_accepted_sigma_gives_a_finite_positive_scale(self, sigma):
        s = KernelParams(sigma).sigma
        assert 0.0 < 1.0 / (2.0 * s * s) < np.inf
        assert 0.0 < 1.0 / (np.sqrt(2.0 * np.pi) * s) < np.inf


class TestDataMatrix:
    def test_shape_properties(self):
        m = DataMatrix(np.arange(6.0).reshape(2, 3))
        assert (m.dim, m.n_points) == (2, 3)

    def test_immutable(self):
        m = DataMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 1.0

    def test_public_constructor_copies(self):
        arr = np.zeros((2, 3))
        m = DataMatrix(arr)
        arr[0, 0] = 1.0
        assert m.values[0, 0] == 0.0 and arr.flags.writeable

    def test_adopt_takes_the_array_uncopied_and_read_only(self):
        arr = np.arange(6.0).reshape(2, 3)
        m = DataMatrix._adopt(arr)
        assert m.values is arr and not arr.flags.writeable
        assert (m.dim, m.n_points) == (2, 3)

    def test_adopt_validates(self):
        with pytest.raises(NonFiniteEntryError):
            DataMatrix._adopt(np.array([[0.0, np.inf]]))
        with pytest.raises(TooFewPointsError):
            DataMatrix._adopt(np.zeros((2, 1)))


class TestTimeLabels:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            TimeLabels(np.array([-0.1]))
        with pytest.raises(ValueError):
            TimeLabels(np.array([2 * np.pi + 0.1]))

    def test_wrapped_reduces_modulo(self):
        t = TimeLabels.wrapped(np.array([2 * np.pi + 0.5, -0.5]))
        assert np.allclose(t.angles, [0.5, 2 * np.pi - 0.5])

    def test_endpoints_allowed(self):
        TimeLabels(np.array([0.0, 2 * np.pi]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_names_its_index(self, bad):
        with pytest.raises(NonFiniteEntryError) as exc:
            TimeLabels(np.array([0.1, 0.2, bad, np.nan]))
        assert (exc.value.row, exc.value.col) == (0, 2)
        assert "(0, 2)" in str(exc.value)


class TestRanking:
    def test_rejects_repeats(self):
        with pytest.raises(NotAPermutationError):
            Ranking(np.array([0, 0, 1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(NotAPermutationError):
            Ranking(np.array([0, 3]))

    def test_rejects_floats(self):
        with pytest.raises(NotAPermutationError):
            Ranking(np.array([0.0, 1.0]))

    def test_ranks_roundtrip(self):
        r = Ranking(np.array([2, 0, 3, 1]))
        assert np.array_equal(Ranking.from_ranks(r.ranks()).perm, r.perm)
        # ranks[i] = position of point i in sorted order
        assert np.array_equal(r.ranks(), [1, 3, 0, 2])

    # a rank past N-1 used to raise IndexError; repeated ranks left
    # uninitialized entries in the permutation
    @pytest.mark.parametrize("ranks", [[0, 6, 2], [1, 1, 0], [-1, 0, 1]])
    def test_from_ranks_rejects_a_non_permutation(self, ranks):
        with pytest.raises(NotAPermutationError):
            Ranking.from_ranks(np.array(ranks))


class TestRankingFromLabels:
    def test_direct_sort(self):
        perm = ranking_from_labels(TimeLabels(np.array([0.5, 0.1, 2.0]))).perm
        assert np.array_equal(perm, [1, 0, 2])

    def test_tie_broken_by_index(self):
        perm = ranking_from_labels(TimeLabels(np.array([0.3, 0.3]))).perm
        assert np.array_equal(perm, [0, 1])

    def test_matches_comparison_sort_oracle(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 2 * np.pi, 100)
        perm = ranking_from_labels(TimeLabels(t)).perm
        assert np.array_equal(perm, comparison_sort(t))

    def test_applying_perm_sorts_strictly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = rng.uniform(0, 2 * np.pi, 50)
            sorted_t = t[ranking_from_labels(TimeLabels(t)).perm]
            assert np.all(np.diff(sorted_t) > 0)

    def test_invariant_under_monotone_relabeling(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0.1, 2 * np.pi - 0.1, 60)
        base = ranking_from_labels(TimeLabels(t)).perm
        for f in (lambda x: x / 2, lambda x: np.sqrt(x), lambda x: x**2 / (2 * np.pi)):
            relabeled = ranking_from_labels(TimeLabels(f(t))).perm
            assert np.array_equal(base, relabeled)
