import numpy as np
import pytest

from spectime import (
    CurveKind,
    CurveSpec,
    DataMatrix,
    KernelParams,
    TimeLabels,
    UNIFORM_LABEL_AMPLITUDE,
    data_driven_bandwidth,
    err_closed_time,
    generate,
    recover_closed,
    recover_labels,
    recover_open,
    recover_open_blend,
    select_bandwidth,
)
from spectime.errors import CoincidentPointsError, LengthMismatchError

TWO_PI = 2 * np.pi


class TestRecoverOpen:
    def test_arccos_endpoints(self):
        n = 4
        f2 = np.array([1.0, -1.0, 0.5, 0.0]) / np.sqrt(n)
        out = recover_open(f2, n)
        assert out.labels.angles[0] == 0.0
        assert out.labels.angles[1] == pytest.approx(TWO_PI)
        assert out.labels.angles[2] == pytest.approx(2 * np.arccos(0.5))
        assert out.clamped_count == 0

    def test_clamping_counted(self):
        n = 4
        f2 = np.array([1.05, -1.2, 0.0, 0.5]) / np.sqrt(n)
        out = recover_open(f2, n)
        assert out.clamped_count == 2
        assert out.labels.angles[0] == 0.0
        assert out.labels.angles[1] == pytest.approx(TWO_PI)

    def test_amplitude_rescales_argument(self):
        n = 4
        f2 = np.full(n, np.sqrt(2.0) / np.sqrt(n))
        literal = recover_open(f2, n)  # argument 1.414 clamps
        scaled = recover_open(f2, n, amplitude=UNIFORM_LABEL_AMPLITUDE)
        assert literal.clamped_count == n
        assert scaled.clamped_count == 0
        assert np.allclose(scaled.labels.angles, 2 * np.arccos(1.0))

    def test_reflection_covariance(self):
        rng = np.random.default_rng(0)
        n = 30
        f2 = rng.uniform(-0.9, 0.9, n) / np.sqrt(n)
        out = recover_open(f2, n)
        flipped = recover_open(-f2, n)
        assert np.allclose(flipped.labels.angles, TWO_PI - out.labels.angles, atol=1e-12)
        assert np.array_equal(flipped.ranking.perm, out.ranking.perm[::-1])

    def test_ranking_consistent_with_labels(self):
        rng = np.random.default_rng(1)
        f2 = rng.uniform(-0.5, 0.5, 20) / np.sqrt(20)
        out = recover_open(f2)
        assert np.all(np.diff(out.labels.angles[out.ranking.perm]) >= 0)

    def test_length_check(self):
        with pytest.raises(LengthMismatchError):
            recover_open(np.zeros(3), 4)


class TestRecoverOpenBlend:
    def test_ends_follow_quantile_middle_follows_arccos(self):
        n = 101
        t = TWO_PI * (np.arange(n) + 0.5) / n  # the rank quantiles themselves
        f = np.cbrt(np.cos(t / 2)) + 0.2  # monotone, but not a cosine
        arc = recover_open(f / np.linalg.norm(f), n, amplitude=UNIFORM_LABEL_AMPLITUDE)
        out = recover_open_blend(f, n)
        for i in (0, n - 1):
            assert abs(arc.labels.angles[i] - t[i]) > 0.1
            assert out.labels.angles[i] == pytest.approx(t[i], abs=2e-3)
        mid = n // 2  # quantile pi: all weight on arccos
        assert abs(arc.labels.angles[mid] - t[mid]) > 0.1
        assert out.labels.angles[mid] == pytest.approx(arc.labels.angles[mid], abs=1e-12)
        assert out.clamped_count == arc.clamped_count

    def test_reflection_covariance(self):
        rng = np.random.default_rng(4)
        n = 30
        f = rng.uniform(-0.9, 0.9, n)
        out = recover_open_blend(f, n)
        flipped = recover_open_blend(-f, n)
        assert np.allclose(flipped.labels.angles, TWO_PI - out.labels.angles, atol=1e-12)
        assert np.array_equal(flipped.ranking.perm, out.ranking.perm[::-1])

    def test_clamped_entries_keep_their_order(self):
        n = 20
        f = np.linspace(3.0, -3.0, n)  # unit-norm arccos argument clamps at both ends
        arc = recover_open(f / np.linalg.norm(f), n, amplitude=UNIFORM_LABEL_AMPLITUDE)
        out = recover_open_blend(f, n)
        assert arc.clamped_count > 2
        assert np.count_nonzero(arc.labels.angles == 0.0) > 1  # arccos ties
        assert np.all(np.diff(out.labels.angles) > 0)
        assert np.array_equal(out.ranking.perm, np.arange(n))

    def test_invariant_under_positive_scaling(self):
        f = np.random.default_rng(5).uniform(-1.0, 1.0, 25)
        assert np.allclose(recover_open_blend(3.5 * f).labels.angles,
                           recover_open_blend(f).labels.angles, rtol=0.0, atol=1e-12)

    def test_length_check(self):
        with pytest.raises(LengthMismatchError):
            recover_open_blend(np.ones(3), 4)


class TestRecoverClosed:
    def test_axis_points(self):
        f2 = np.array([0.3, 0.0])
        f3 = np.array([0.0, 0.3])
        out = recover_closed(f2, f3)
        assert out.labels.angles[0] == 0.0
        assert out.labels.angles[1] == pytest.approx(np.pi / 2)

    def test_degenerate_point_warns_and_zeroes(self):
        f2 = np.array([1e-13, 0.5])
        f3 = np.array([0.0, 0.5])
        with pytest.warns(RuntimeWarning):
            out = recover_closed(f2, f3)
        assert out.labels.angles[0] == 0.0

    def test_normalized_cosine_identity(self):
        rng = np.random.default_rng(2)
        n = 50
        f2 = rng.standard_normal(n) / np.sqrt(n)
        f3 = rng.standard_normal(n) / np.sqrt(n)
        out = recover_closed(f2, f3)
        norms = np.hypot(f2, f3)
        assert np.abs(np.cos(out.labels.angles) * norms - f2).max() <= 1e-12

    def test_rotation_of_eigenbasis_is_quotiented(self):
        rng = np.random.default_rng(3)
        n = 100
        t = rng.uniform(0, TWO_PI, n)
        f2, f3 = np.cos(t) / np.sqrt(n), np.sin(t) / np.sqrt(n)
        base = recover_closed(f2, f3)
        for alpha in rng.uniform(0, TWO_PI, 5):
            g2 = np.cos(alpha) * f2 + np.sin(alpha) * f3
            g3 = -np.sin(alpha) * f2 + np.cos(alpha) * f3
            rotated = recover_closed(g2, g3)
            assert err_closed_time(base.labels, rotated.labels).error <= 1e-9


class TestSelectBandwidth:
    def test_closed_noiseless(self):
        p = select_bandwidth(2000, 0.0, CurveKind.CLOSED_LOOP)
        assert p.sigma == 2000 ** (-1 / 7)
        assert p.sigma == pytest.approx(0.3376, abs=1e-4)

    def test_open_noiseless(self):
        p = select_bandwidth(2000, 0.0, CurveKind.OPEN_CURVE)
        assert p.sigma == 2000 ** (-1 / 14)

    def test_noise_term_dominates(self):
        assert select_bandwidth(2000, 1.0, CurveKind.CLOSED_LOOP).sigma == 1.0
        # eps^(1/4) vs eps^(2/7) exponents differ between the two cases
        assert select_bandwidth(10, 0.5, CurveKind.CLOSED_LOOP).sigma == 0.5**0.25
        assert select_bandwidth(10**15, 0.5, CurveKind.OPEN_CURVE).sigma == 0.5 ** (2 / 7)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            select_bandwidth(1, 0.0, CurveKind.CLOSED_LOOP)


class TestDataDrivenBandwidth:
    def test_reasonable_and_deterministic(self):
        x, _ = generate(CurveSpec("circle"), 300, 0)
        a = data_driven_bandwidth(x)
        b = data_driven_bandwidth(x)
        assert a.sigma == b.sigma
        assert 0.0 < a.sigma < 2.5  # within the circle's diameter

    def test_coincident_points_rejected(self):
        x = DataMatrix(np.tile(np.random.default_rng(3).standard_normal((300, 1)), (1, 40)))
        with pytest.raises(CoincidentPointsError, match="coincide"):
            data_driven_bandwidth(x)

    def test_recovery_quality_with_heuristic_bandwidth(self):
        x, t = generate(CurveSpec("circle"), 500, 1)
        out = recover_labels(x, CurveKind.CLOSED_LOOP, data_driven_bandwidth(x))
        assert err_closed_time(t, out.labels).error <= 0.5


class TestEndToEnd:
    def test_noiseless_circle_at_rate_bandwidth(self):
        n = 2000
        x, t = generate(CurveSpec("circle"), n, 0)
        out = recover_labels(x, CurveKind.CLOSED_LOOP, KernelParams(n ** (-1 / 7)))
        assert err_closed_time(t, out.labels).error <= 0.15

    def test_open_recovery_is_monotone_in_fiedler(self):
        x, t = generate(CurveSpec("half-circle"), 400, 2)
        out = recover_labels(x, CurveKind.OPEN_CURVE, KernelParams.from_sigma2(0.05))
        # up to reflection, recovered order tracks the true order closely
        spec = CurveSpec("half-circle")
        canon = spec.canonical_labels(t)
        from spectime import err_open_time

        rep = err_open_time(canon, out.labels, 0.1 * TWO_PI)
        assert rep.error < np.pi / 2
