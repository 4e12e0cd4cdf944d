import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectime import (
    CurveKind,
    CurveSpec,
    DataMatrix,
    add_noise,
    comparison_matrix,
    err_open_rank,
    generate,
    noise_for_snr,
    noisy_sample,
    ranking_from_labels,
    serialrank_baseline,
    snr,
    TimeLabels,
)
from spectime.errors import ConfigError, DegenerateBaselineError, ZeroSignalError

from oracles import serialrank_fiedler

TWO_PI = 2 * np.pi


def traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def cardioid_curve(t):
    return np.vstack([2 * np.cos(t) - 1 - np.cos(2 * t), 2 * np.sin(t) - np.sin(2 * t)])


class TestCurveSpecs:
    def test_parse(self):
        assert CurveSpec.parse("half-circle").span == pytest.approx(np.pi)
        assert CurveSpec.parse("cardioid").span == pytest.approx(8 * np.pi / 5)
        assert CurveSpec.parse("circle").kind is CurveKind.CLOSED_LOOP
        emb = CurveSpec.parse("embedded:12")
        assert emb.embed_dim == 12 and emb.kind is CurveKind.CLOSED_LOOP

    def test_unknown_curve(self):
        with pytest.raises(ConfigError):
            CurveSpec("lemniscate")

    def test_canonical_labels_rescale_open_domains(self):
        spec = CurveSpec("half-circle")
        t = TimeLabels(np.array([0.0, np.pi / 2, np.pi]))
        canon = spec.canonical_labels(t)
        assert np.allclose(canon.angles, [0.0, np.pi, TWO_PI])


class TestGenerate:
    def test_half_circle_on_unit_circle(self):
        x, t = generate(CurveSpec("half-circle"), 100, 0)
        assert np.allclose(np.linalg.norm(x.values, axis=0), 1.0)
        assert t.angles.max() <= np.pi

    def test_cardioid_matches_formula_and_zero_start(self):
        x, t = generate(CurveSpec("cardioid"), 50, 1)
        assert np.allclose(x.values, cardioid_curve(t.angles), atol=1e-12)
        assert np.allclose(cardioid_curve(np.array([0.0])), 0.0, atol=1e-15)

    def test_circle_antipodal_symmetry(self):
        x, t = generate(CurveSpec("circle"), 60, 2)
        antipode = np.vstack([np.cos(t.angles + np.pi), np.sin(t.angles + np.pi)])
        assert np.allclose(x.values, -antipode, atol=1e-12)

    def test_embedded_circle_is_isometric(self):
        spec = CurveSpec("embedded", 40)
        x, t = generate(spec, 30, 3)
        planar = np.vstack([np.cos(t.angles), np.sin(t.angles)])
        from scipy.spatial.distance import pdist

        assert np.allclose(pdist(x.values.T), pdist(planar.T), atol=1e-10)
        assert np.allclose(np.linalg.norm(x.values, axis=0), 1.0)

    def test_seeded_determinism(self):
        a = generate(CurveSpec("cardioid"), 40, 7)
        b = generate(CurveSpec("cardioid"), 40, 7)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].angles, b[1].angles)

    def test_labels_sorted_by_own_ranking(self):
        _, t = generate(CurveSpec("circle"), 50, 4)
        perm = ranking_from_labels(t).perm
        assert np.all(np.diff(t.angles[perm]) >= 0)


class TestNoise:
    def test_zero_eps_exact(self):
        x, _ = generate(CurveSpec("circle"), 20, 0)
        assert np.array_equal(add_noise(x, 0.0, 5).values, x.values)

    def test_empirical_variance(self):
        x = DataMatrix(np.zeros((100, 1000)))
        eps = 0.3
        z = add_noise(x, eps, 6)
        assert z.values.var() == pytest.approx(eps**2, rel=0.05)

    def test_seed_determinism(self):
        x, _ = generate(CurveSpec("circle"), 30, 1)
        assert np.array_equal(add_noise(x, 0.1, 9).values, add_noise(x, 0.1, 9).values)

    def test_snr_target_exact(self):
        x, _ = generate(CurveSpec("cardioid"), 200, 2)
        for target in (0.1, 1.0, 10.0):
            z = noise_for_snr(x, target, 11)
            e = DataMatrix(z.values - x.values)
            assert snr(x, e) == pytest.approx(target, rel=1e-12)

    def test_snr_one_matches_norms(self):
        x, _ = generate(CurveSpec("half-circle"), 100, 3)
        z = noise_for_snr(x, 1.0, 12)
        assert np.linalg.norm(z.values - x.values) == pytest.approx(
            np.linalg.norm(x.values), rel=1e-12
        )

    def test_zero_signal_rejected(self):
        with pytest.raises(ZeroSignalError):
            noise_for_snr(DataMatrix(np.zeros((2, 4))), 1.0, 0)

    def test_noise_added_in_the_noise_buffer_is_the_same_sum(self):
        x, _ = generate(CurveSpec.parse("embedded:7"), 200, 4)
        e = np.random.default_rng(5).standard_normal(x.values.shape)
        assert np.array_equal(add_noise(x, 0.3, 5).values, x.values + 0.3 * e)
        scaled = e * (np.linalg.norm(x.values) / (np.sqrt(2.0) * np.linalg.norm(e)))
        assert np.array_equal(noise_for_snr(x, 2.0, 5).values, x.values + scaled)

    @pytest.mark.parametrize("make", [
        lambda x: noise_for_snr(x, 2.0, 1),
        lambda x: add_noise(x, 0.1, 1),
    ], ids=["noise_for_snr", "add_noise"])
    def test_noise_holds_one_d_by_n_array(self, make):
        # the noise array becomes the output; a copy or a separate sum reads 2 or 3
        x, _ = generate(CurveSpec.parse("embedded:400"), 500, 0)
        z, peak = traced_peak(make, x)
        assert peak < 1.5 * z.values.nbytes
        assert not z.values.flags.writeable

    def test_generate_holds_one_d_by_n_array(self):
        (x, _), peak = traced_peak(generate, CurveSpec.parse("embedded:400"), 500, 0)
        assert peak < 1.5 * x.values.nbytes


class TestNoisySample:
    def test_consumes_seed_then_seed_plus_one(self):
        spec = CurveSpec("cardioid")
        x, t = generate(spec, 80, 4)
        for kwargs, z in (({"snr": 10.0}, noise_for_snr(x, 10.0, 5)),
                          ({"eps": 0.1}, add_noise(x, 0.1, 5)),
                          ({}, x)):
            xs, ts, zs = noisy_sample(spec, 80, 4, **kwargs)
            assert np.array_equal(xs.values, x.values)
            assert np.array_equal(ts.angles, t.angles)
            assert np.array_equal(zs.values, z.values)

    def test_snr_and_eps_exclusive(self):
        with pytest.raises(ConfigError):
            noisy_sample(CurveSpec("circle"), 10, 0, snr=1.0, eps=0.1)


class TestComparisonMatrix:
    def test_sign_cases(self):
        z = DataMatrix(np.array([[1.0, 2.0]]))
        c = comparison_matrix(z).c
        assert c[0, 1] == 1.0 and c[1, 0] == -1.0 and c[0, 0] == 0.0

    def test_tie_is_zero(self):
        z = DataMatrix(np.array([[1.0, -1.0]]))
        assert comparison_matrix(z).c[0, 1] == 0.0

    def test_antisymmetric_exactly(self):
        rng = np.random.default_rng(0)
        c = comparison_matrix(DataMatrix(rng.standard_normal((3, 25)))).c
        assert np.array_equal(c, -c.T)
        assert np.all(np.diag(c) == 0)

    def test_hand_built_norms_vs_pairwise_oracle(self):
        z = DataMatrix(np.array([[1.0, 2.0, 3.0, 2.0]]))
        c = comparison_matrix(z).c
        norms = [1.0, 2.0, 3.0, 2.0]
        for i in range(4):
            for j in range(4):
                expected = (norms[i] < norms[j]) - (norms[i] > norms[j])
                assert c[i, j] == expected


class TestSerialRankBaseline:
    def test_recovers_monotone_norm_order(self):
        rng = np.random.default_rng(1)
        radii = np.sort(rng.uniform(1.0, 5.0, 20))
        angles = rng.uniform(0, np.pi / 4, 20)
        z = DataMatrix(np.vstack([radii * np.cos(angles), radii * np.sin(angles)]))
        ranking = serialrank_baseline(comparison_matrix(z))
        truth = ranking_from_labels(TimeLabels(radii / 5.0))
        assert err_open_rank(truth, ranking, 0.0).error == 0.0

    def test_baseline_allocates_o_n(self):
        # the comparison matrix alone would be 8 N^2 bytes
        _, _, z = noisy_sample(CurveSpec("cardioid"), 2000, 1, snr=100.0)
        _, peak = traced_peak(lambda: serialrank_baseline(comparison_matrix(z)))
        assert peak < 100 * z.n_points

    def test_norm_sort_is_the_borda_count_sort(self):
        # entry for entry, including the order within ties
        _, _, z = noisy_sample(CurveSpec("cardioid"), 2000, 8, snr=100.0)
        tied = DataMatrix(np.array([[3.0, 1.0, 2.0, 1.0, 3.0, 0.5, 2.0, 1.0]]))
        for data in (z, tied):
            c = comparison_matrix(data)
            borda = np.argsort(-c.c.sum(axis=1), kind="stable")
            assert np.array_equal(serialrank_baseline(c).perm, borda)

    def test_all_ties_degenerate(self):
        z = DataMatrix(np.ones((2, 10)))
        with pytest.raises(DegenerateBaselineError):
            serialrank_baseline(comparison_matrix(z))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 80).flatmap(
            lambda n: st.lists(st.integers(1, max(2, n // 3)), min_size=n, max_size=n)
        )
    )
    def test_borda_count_matches_fiedler_oracle(self, levels):
        # at most n/3 distinct norms, so most points tie with another
        norms = np.array(levels, dtype=float)
        assume(norms.min() < norms.max())
        c = comparison_matrix(DataMatrix(norms[None, :]))
        order = serialrank_baseline(c).perm
        oracle = serialrank_fiedler(c.c)
        # the oracle orders tied points by rounding, so compare the norm sequences
        assert np.array_equal(norms[order], norms[oracle]) or np.array_equal(
            norms[order], norms[oracle[::-1]])
        # the orientation is pinned: ascending norm, ties by index
        assert list(order) == sorted(range(norms.size), key=lambda i: (norms[i], i))

    @pytest.mark.parametrize("curve", ["cardioid", "half-circle"])
    def test_matches_fiedler_oracle_on_noisy_curves(self, curve):
        # distinct norms: the orders agree point for point, up to reversal
        _, _, z = noisy_sample(CurveSpec(curve), 300, 5, snr=100.0)
        c = comparison_matrix(z)
        order = serialrank_baseline(c).perm
        oracle = serialrank_fiedler(c.c)
        assert np.array_equal(order, oracle) or np.array_equal(order, oracle[::-1])
