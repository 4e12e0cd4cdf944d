import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectime import (
    DataMatrix,
    Ranking,
    TimeLabels,
    err_closed_rank,
    err_closed_time,
    err_open_rank,
    err_open_time,
    interior_relative_error,
    ranking_from_labels,
    relative_error,
    snr,
)
from spectime import CurveSpec, kernel, metrics, noisy_sample, recover_labels
from spectime.errors import DimensionMismatchError, EmptyInteriorError, LengthMismatchError
from spectime.errors import TooFewPointsError
from spectime.errors import ZeroNormError

from oracles import closed_rank_exhaustive, closed_rank_shift_table, closed_time_grid

TWO_PI = 2 * np.pi


def rand_labels(rng, n):
    return TimeLabels(rng.uniform(0, TWO_PI, n))


def relative_oracle(x, p, p2):
    """relative_error from two whole gathers, p2 in both orientations."""
    ref = x.values[:, p.perm]
    return (min(np.linalg.norm(x.values[:, q] - ref) for q in (p2.perm, p2.perm[::-1]))
            / np.linalg.norm(x.values))


class TestClosedTime:
    def test_identity(self):
        t = TimeLabels(np.array([0.1, 1.0, 4.0]))
        assert err_closed_time(t, t).error <= 1e-12

    def test_rotation_absorbed(self):
        rng = np.random.default_rng(0)
        t = rand_labels(rng, 40)
        rotated = TimeLabels.wrapped(t.angles + 0.3)
        rep = err_closed_time(t, rotated)
        assert rep.error <= 1e-9
        assert rep.r == 1

    def test_reflection_absorbed(self):
        rng = np.random.default_rng(1)
        t = rand_labels(rng, 40)
        reflected = TimeLabels.wrapped(-t.angles + 1.234)
        rep = err_closed_time(t, reflected)
        assert rep.error <= 1e-9
        assert rep.r == -1

    def test_two_point_example(self):
        t = TimeLabels(np.array([0.0, np.pi / 2]))
        t2 = TimeLabels(np.array([0.0, np.pi / 2 + 0.1]))
        rep = err_closed_time(t, t2)
        assert rep.error == pytest.approx(0.05, abs=1e-12)
        assert min(abs(rep.theta - 0.05), abs(rep.theta - (TWO_PI - 0.05))) <= 1e-9
        # brute-force theta grid agrees
        assert abs(closed_time_grid(t.angles, t2.angles, grid_size=100_000)
                   - rep.error) <= TWO_PI / 100_000

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = rng.integers(2, 30)
            t, t2 = rand_labels(rng, n), rand_labels(rng, n)
            rep = err_closed_time(t, t2)
            grid = closed_time_grid(t.angles, t2.angles, grid_size=200_000)
            assert abs(rep.error - grid) <= TWO_PI / 200_000

    def test_error_bounded_by_pi(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rep = err_closed_time(rand_labels(rng, 15), rand_labels(rng, 15))
            assert 0.0 <= rep.error <= np.pi

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            err_closed_time(TimeLabels(np.array([0.1])), TimeLabels(np.array([0.1, 0.2])))


class TestClosedRank:
    def test_identity_zero_shift(self):
        p = Ranking(np.array([2, 0, 1, 3]))
        rep = err_closed_rank(p, p)
        assert rep.error == 0.0
        assert rep.shift == 0

    def test_cyclic_shift_absorbed(self):
        rng = np.random.default_rng(4)
        t = rand_labels(rng, 30)
        p = ranking_from_labels(t)
        shifted = ranking_from_labels(TimeLabels.wrapped(t.angles + 1.0))
        assert err_closed_rank(p, shifted).error == 0.0

    def test_reflection_absorbed(self):
        rng = np.random.default_rng(5)
        t = rand_labels(rng, 25)
        p = ranking_from_labels(t)
        reflected = ranking_from_labels(TimeLabels.wrapped(-t.angles))
        rep = err_closed_rank(p, reflected)
        assert rep.error == 0.0
        assert rep.r == -1

    def test_adjacent_swap_one_over_n(self):
        n = 8
        ranks = np.arange(n)
        ranks2 = ranks.copy()
        ranks2[[3, 4]] = ranks2[[4, 3]]
        p, p2 = Ranking.from_ranks(ranks), Ranking.from_ranks(ranks2)
        rep = err_closed_rank(p, p2)
        assert rep.error == pytest.approx(1 / 8)
        assert rep.error == pytest.approx(
            closed_rank_exhaustive(list(p.ranks()), list(p2.ranks()))
        )

    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            p = Ranking(rng.permutation(n))
            p2 = Ranking(rng.permutation(n))
            assert err_closed_rank(p, p2).error == pytest.approx(
                closed_rank_exhaustive(list(p.ranks()), list(p2.ranks()))
            )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 60).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        )
    )
    def test_matches_shift_table_oracle(self, perms):
        p, p2 = Ranking(np.array(perms[0])), Ranking(np.array(perms[1]))
        rep = err_closed_rank(p, p2)
        assert (rep.error, rep.r, rep.shift) == closed_rank_shift_table(p.ranks(), p2.ranks())

    def test_matches_shift_table_oracle_near_alignment(self):
        # shifted and reflected copies with a few swaps put the optimum at
        # a nonzero shift, where the peak neighbours decide the worst point
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 90))
            perm = rng.permutation(n)
            perm2 = np.roll(perm, int(rng.integers(0, n)))
            for _ in range(int(rng.integers(0, 4))):
                i = int(rng.integers(0, n - 1))
                perm2[[i, i + 1]] = perm2[[i + 1, i]]
            if rng.integers(0, 2):
                perm2 = perm2[::-1].copy()
            p, p2 = Ranking(perm), Ranking(perm2)
            rep = err_closed_rank(p, p2)
            assert (rep.error, rep.r, rep.shift) == closed_rank_shift_table(p.ranks(), p2.ranks())


@pytest.mark.parametrize("metric, empty", [
    (err_closed_time, TimeLabels(np.array([]))),
    (err_closed_rank, Ranking(np.array([], dtype=np.int64))),
], ids=["closed-time", "closed-rank"])
def test_closed_metrics_refuse_no_points(metric, empty):
    with pytest.raises(TooFewPointsError, match="at least 1 point, got 0"):
        metric(empty, empty)


class TestOpenTime:
    def test_identity(self):
        t = TimeLabels(np.array([1.0, 2.0, 3.0]))
        assert err_open_time(t, t, 0.1 / TWO_PI).error == 0.0

    def test_reflection_branch(self):
        t = TimeLabels(np.array([1.0, 2.0, 5.0]))
        reflected = TimeLabels(TWO_PI - t.angles)
        rep = err_open_time(t, reflected, 0.1 / TWO_PI)
        assert rep.error == 0.0
        assert rep.r == -1

    def test_boundary_points_excluded(self):
        t = TimeLabels(np.array([0.01, 1.0, 2.0, 6.27]))
        t2 = TimeLabels(np.array([3.0, 1.1, 2.0, 3.0]))
        rep = err_open_time(t, t2, 0.1 / TWO_PI)
        assert rep.error == pytest.approx(0.1)

    def test_interior_chosen_by_first_argument(self):
        # asymmetric by design: swapping arguments changes the window
        t = TimeLabels(np.array([0.01, 3.0]))
        t2 = TimeLabels(np.array([3.0, 3.0]))
        assert err_open_time(t, t2, 0.1 / TWO_PI).error == pytest.approx(0.0)
        assert err_open_time(t2, t, 0.1 / TWO_PI).error > 1.0

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(7)
        t, t2 = rand_labels(rng, 50), rand_labels(rng, 50)
        deltas = [0.0, 0.2, 0.5, 1.0, 1.5]
        errs = [err_open_time(t, t2, d / TWO_PI).error for d in deltas]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_empty_interior(self):
        t = TimeLabels(np.array([0.01, 6.28]))
        with pytest.raises(EmptyInteriorError):
            err_open_time(t, t, 3.0 / TWO_PI)


class TestOpenRank:
    def test_identity(self):
        p = Ranking(np.array([1, 0, 2, 3]))
        assert err_open_rank(p, p, 0.1).error == 0.0

    def test_reversed_ranking_scores_zero(self):
        rng = np.random.default_rng(8)
        p = Ranking(rng.permutation(12))
        reversed_p = Ranking.from_ranks(11 - p.ranks())
        rep = err_open_rank(p, reversed_p, 0.1)
        assert rep.error == 0.0
        assert rep.r == -1

    def test_interior_swap(self):
        n = 10
        ranks = np.arange(n)
        ranks2 = ranks.copy()
        ranks2[[5, 6]] = ranks2[[6, 5]]
        rep = err_open_rank(Ranking.from_ranks(ranks), Ranking.from_ranks(ranks2), 0.2)
        assert rep.error == 1.0

    def test_window_selected_by_first_argument(self):
        n = 10
        ranks = np.arange(n)
        ranks2 = ranks.copy()
        ranks2[[0, 9]] = ranks2[[9, 0]]  # corrupt only the extremes
        p, p2 = Ranking.from_ranks(ranks), Ranking.from_ranks(ranks2)
        assert err_open_rank(p, p2, 0.2).error == 0.0

    def test_empty_interior(self):
        # N=3, delta=0.45 keeps ranks in [1.35, 1.65]: no integer qualifies
        with pytest.raises(EmptyInteriorError):
            err_open_rank(Ranking(np.array([0, 1, 2])), Ranking(np.array([0, 1, 2])), 0.45)


class TestRelativeError:
    def test_identity(self):
        x = DataMatrix(np.arange(6.0).reshape(2, 3))
        p = Ranking(np.array([0, 1, 2]))
        assert relative_error(x, p, p) == 0.0

    def test_identical_columns_blind_to_permutation(self):
        x = DataMatrix(np.ones((3, 4)))
        p = Ranking(np.array([0, 1, 2, 3]))
        p2 = Ranking(np.array([3, 2, 1, 0]))
        assert relative_error(x, p, p2) == 0.0

    def test_transposition_hand_computed(self):
        x = DataMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        p = Ranking(np.array([0, 1, 2]))
        p2 = Ranking(np.array([1, 0, 2]))
        # swapped columns differ by (1,1) twice: sqrt(4) over ||X||_F = sqrt(91);
        # the reversal [2, 0, 1] differs by (2,2), (1,1), (1,1): sqrt(12)
        assert relative_error(x, p, p2) == pytest.approx(2.0 / np.sqrt(91.0), rel=1e-12)
        assert relative_error(x, p, p2) == pytest.approx(relative_oracle(x, p, p2), rel=1e-12)

    def test_reversed_ranking_scores_zero(self):
        rng = np.random.default_rng(17)
        x = DataMatrix(rng.standard_normal((3, 50)))
        p = Ranking(rng.permutation(50))
        assert relative_error(x, p, Ranking(p.perm[::-1])) == 0.0

    def test_zero_norm(self):
        x = DataMatrix(np.zeros((2, 2)))
        p = Ranking(np.array([0, 1]))
        with pytest.raises(ZeroNormError):
            relative_error(x, p, p)

    def test_slabs_match_unchunked_formula(self):
        # 400 rows at 32 rows per slab: thirteen slabs, the last one short
        rng = np.random.default_rng(16)
        x = DataMatrix(rng.standard_normal((400, 2000)))
        assert x.dim > metrics._CHUNK_ELEMENTS // x.n_points
        p, p2 = Ranking(rng.permutation(2000)), Ranking(rng.permutation(2000))
        assert relative_error(x, p, p2) == pytest.approx(relative_oracle(x, p, p2), rel=1e-12)


class TestSnr:
    def test_equal_norms(self):
        rng = np.random.default_rng(9)
        x = DataMatrix(rng.standard_normal((3, 5)))
        assert snr(x, x) == pytest.approx(1.0)

    def test_scaling(self):
        rng = np.random.default_rng(10)
        x = DataMatrix(rng.standard_normal((3, 5)))
        e = DataMatrix(x.values / 10.0)
        assert snr(x, e) == pytest.approx(100.0)
        with pytest.raises(DimensionMismatchError, match=r"\(3, 5\) vs \(3, 4\)"):
            snr(x, DataMatrix(e.values[:, :4]))

    def test_matches_elementwise_sum_oracle(self):
        rng = np.random.default_rng(11)
        x = DataMatrix(rng.standard_normal((5, 5)))
        e = DataMatrix(rng.standard_normal((5, 5)))
        num = sum(v * v for v in x.values.ravel())
        den = sum(v * v for v in e.values.ravel())
        assert snr(x, e) == pytest.approx(num / den, rel=1e-12)

    def test_zero_noise_is_infinite(self):
        x = DataMatrix(np.ones((2, 2)))
        assert snr(x, DataMatrix(np.zeros((2, 2)))) == np.inf


class TestInteriorRelativeError:
    def test_perfect_estimate(self):
        rng = np.random.default_rng(12)
        t = TimeLabels(rng.uniform(0, TWO_PI, 30))
        x = DataMatrix(np.vstack([np.cos(t.angles / 2), np.sin(t.angles / 2)]))
        assert interior_relative_error(x, t, t.angles) <= 1e-12

    def test_chunks_match_direct_computation(self, monkeypatch):
        monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", 7)  # one row per slab
        rng = np.random.default_rng(15)
        x = DataMatrix(rng.standard_normal((3, 41)))
        t = TimeLabels(rng.uniform(0, TWO_PI, 41))
        est = t.angles + rng.normal(0, 0.3, 41)
        mask = (t.angles > 0.05 * TWO_PI) & (t.angles < 0.95 * TWO_PI)
        sub = x.values[:, mask]
        true_order = np.argsort(t.angles[mask], kind="stable")
        expected = min(
            np.linalg.norm(sub[:, np.argsort(e, kind="stable")] - sub[:, true_order])
            for e in (est[mask], -est[mask])
        ) / np.linalg.norm(sub)
        assert interior_relative_error(x, t, est) == pytest.approx(expected, rel=1e-12)

    def test_reflected_estimate_scores_zero(self):
        rng = np.random.default_rng(13)
        t = TimeLabels(rng.uniform(0, TWO_PI, 30))
        x = DataMatrix(np.vstack([np.cos(t.angles / 2), np.sin(t.angles / 2)]))
        assert interior_relative_error(x, t, TWO_PI - t.angles) <= 1e-12


def interior_oracle(x, t, est, span, delta_fraction):
    """interior_relative_error from one gather of the whole interior."""
    mask = (t.angles > delta_fraction * span) & (t.angles < (1.0 - delta_fraction) * span)
    sub = x.values[:, mask]
    true = sub[:, np.argsort(t.angles[mask], kind="stable")]
    return min(np.linalg.norm(sub[:, np.argsort(e, kind="stable")] - true)
               for e in (est[mask], -est[mask])) / np.linalg.norm(sub)


class TestArrangementPass:
    """The slab pass of both relative errors: dealt to the kernel's workers,
    one per 32 MB of the data, with a value that does not depend on W."""

    @staticmethod
    def scores(monkeypatch, workers, x, t, est, p, p2):
        monkeypatch.setattr(kernel, "_worker_count", lambda *shape: workers)
        return (interior_relative_error(x, t, est),
                interior_relative_error(x, t, est, 0.0),
                relative_error(x, p, p2))

    def test_same_bits_at_one_two_and_three_workers(self, monkeypatch):
        rng = np.random.default_rng(30)
        x = DataMatrix(rng.standard_normal((400, 2000)))  # thirteen slabs
        t = rand_labels(rng, 2000)
        est = t.angles + rng.normal(0.0, 0.3, 2000)
        p, p2 = Ranking(rng.permutation(2000)), Ranking(rng.permutation(2000))
        one = self.scores(monkeypatch, 1, x, t, est, p, p2)
        for workers in (2, 3):
            assert self.scores(monkeypatch, workers, x, t, est, p, p2) == one

    def test_highdim_configuration_matches_one_gather(self):
        # the highdim-5k data (d = 5000, N = 2000) with an estimate as far off
        # as its recovery (about 0.06 rad)
        x, t, _ = noisy_sample(CurveSpec("embedded", 5000), 2000, 0, 1.0, None)
        est = t.angles + np.random.default_rng(31).normal(0.0, 0.06, 2000)
        got = interior_relative_error(x, t, est, 0.0)
        assert got == pytest.approx(interior_oracle(x, t, est, TWO_PI, 0.0), rel=1e-12)
        p, p2 = ranking_from_labels(t), ranking_from_labels(TimeLabels(np.mod(est, TWO_PI)))
        assert relative_error(x, p, p2) == pytest.approx(relative_oracle(x, p, p2), rel=1e-12)

    def test_criterion_2_seeds_match_one_gather(self):
        spec = CurveSpec("half-circle")
        for seed in range(20):
            x, t, z = noisy_sample(spec, 2000, 100 + 3 * seed, 1000.0, None)
            est = recover_labels(z, spec.kind, math.sqrt(0.05)).labels.angles
            got = interior_relative_error(x, t, est, 0.05)
            assert got == pytest.approx(interior_oracle(x, t, est, TWO_PI, 0.05), rel=1e-12)

    def test_no_copy_of_the_data(self):
        rng = np.random.default_rng(32)
        x = DataMatrix(rng.standard_normal((800, 4000)))  # 25.6 MB
        t = rand_labels(rng, 4000)
        est = t.angles + rng.normal(0.0, 0.3, 4000)
        tracemalloc.start()
        try:
            interior_relative_error(x, t, est)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.values.nbytes / 8

    def test_two_rows_run_on_the_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for a 2 x N input")

        monkeypatch.setattr(kernel, "ThreadPoolExecutor", no_pool)
        rng = np.random.default_rng(33)
        t = rand_labels(rng, 5000)
        x = DataMatrix(np.vstack([np.cos(t.angles), np.sin(t.angles)]))
        assert interior_relative_error(x, t, t.angles) <= 1e-12
        assert relative_error(x, ranking_from_labels(t), ranking_from_labels(t)) == 0.0
