import math
import tracemalloc

import numpy as np
import pytest

from spectime import (
    CurveKind,
    CurveSpec,
    DataMatrix,
    TimeLabels,
    data_driven_bandwidth,
    err_closed_time,
    generate,
    noisy_sample,
    recover_closed,
    recover_labels,
    recover_open,
    select_bandwidth,
)
from spectime.errors import CoincidentPointsError, ConfigError, LengthMismatchError
from spectime.kernel import STRIP, PackedSymmetric, _upper_strips, exponent_floor
from spectime.recover import DATA_BANDWIDTH_GRID, check_bandwidth

from oracles import open_arccos_labels, unpack

TWO_PI = 2 * np.pi


class TestRecoverOpen:
    """Labels, ranking and clamp count of the open-curve label map."""

    def test_clamping_counted(self):
        # unit-norm entries +-1/sqrt 2 give arccos arguments +-sqrt(N)/2 = +-sqrt 2
        f = np.zeros(8)
        f[:2] = [1.0, -1.0]
        assert recover_open(f).clamped_count == 2
        g = np.random.default_rng(6).standard_normal(40) ** 3
        assert recover_open(g).clamped_count == open_arccos_labels(g)[1] > 0

    def test_reflection_covariance(self):
        # heavy tails: some arccos arguments clamp, and the map is still odd
        f = np.random.default_rng(0).standard_normal(30) ** 3
        out = recover_open(f)
        flipped = recover_open(-f)
        assert out.clamped_count > 0
        assert np.allclose(flipped.labels.angles, TWO_PI - out.labels.angles, atol=1e-12)
        assert np.array_equal(flipped.ranking.perm, out.ranking.perm[::-1])

    def test_ranking_consistent_with_labels(self):
        rng = np.random.default_rng(1)
        f2 = rng.uniform(-0.5, 0.5, 20) / np.sqrt(20)
        out = recover_open(f2)
        assert np.all(np.diff(out.labels.angles[out.ranking.perm]) >= 0)


class TestRecoverOpenBlend:
    """The hand-over from the arccos label to the rank quantile."""

    def test_ends_follow_quantile_middle_follows_arccos(self):
        n = 101
        t = TWO_PI * (np.arange(n) + 0.5) / n  # the rank quantiles themselves
        f = np.cbrt(np.cos(t / 2)) + 0.2  # monotone, but not a cosine
        arc, clamped = open_arccos_labels(f)
        out = recover_open(f)
        for i in (0, n - 1):
            assert abs(arc[i] - t[i]) > 0.1
            assert out.labels.angles[i] == pytest.approx(t[i], abs=2e-3)
        mid = n // 2  # quantile pi: all weight on arccos
        assert abs(arc[mid] - t[mid]) > 0.1
        assert out.labels.angles[mid] == pytest.approx(arc[mid], abs=1e-12)
        assert out.clamped_count == clamped

    def test_reflection_covariance(self):
        rng = np.random.default_rng(4)
        n = 30
        f = rng.uniform(-0.9, 0.9, n)
        out = recover_open(f)
        flipped = recover_open(-f)
        assert np.allclose(flipped.labels.angles, TWO_PI - out.labels.angles, atol=1e-12)
        assert np.array_equal(flipped.ranking.perm, out.ranking.perm[::-1])

    def test_clamped_entries_keep_their_order(self):
        n = 20
        f = np.linspace(3.0, -3.0, n)  # unit-norm arccos argument clamps at both ends
        arc, clamped = open_arccos_labels(f)
        out = recover_open(f)
        assert clamped > 2
        assert np.count_nonzero(arc == 0.0) > 1  # arccos ties
        assert np.all(np.diff(out.labels.angles) > 0)
        assert np.array_equal(out.ranking.perm, np.arange(n))

    def test_invariant_under_positive_scaling(self):
        f = np.random.default_rng(5).uniform(-1.0, 1.0, 25)
        assert np.allclose(recover_open(3.5 * f).labels.angles,
                           recover_open(f).labels.angles, rtol=0.0, atol=1e-12)


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

    def test_length_check(self):
        with pytest.raises(LengthMismatchError, match="3 vs 4"):
            recover_closed(np.ones(3), np.ones(4))

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
        p = select_bandwidth(2000, kind=CurveKind.CLOSED_LOOP)
        assert p.sigma == 2000 ** (-1 / 7)
        assert p.sigma == pytest.approx(0.3376, abs=1e-4)

    def test_open_noiseless(self):
        p = select_bandwidth(2000, kind=CurveKind.OPEN_CURVE)
        assert p.sigma == 2000 ** (-1 / 14)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            select_bandwidth(1, kind=CurveKind.CLOSED_LOOP)

    # the rule reads no noise level: a call that passes one must not
    # silently read it as the kind
    @pytest.mark.parametrize("args", [(2000, 0.01, CurveKind.CLOSED_LOOP), (2000, 0.5)])
    def test_stale_noise_argument_raises(self, args):
        with pytest.raises(TypeError):
            select_bandwidth(*args)


class TestCheckSigma:
    @pytest.mark.parametrize("given, kept", [("auto", "auto"), ("data", "data"),
                                             (0.3, 0.3), ("0.3", 0.3), (2, 2.0)])
    def test_settings_kept(self, given, kept):
        assert check_bandwidth(given) == kept

    # 1e-200 and 1e300: 2 sigma^2 underflows to 0 and overflows to inf
    # an array is not a str, so it names no rule and fails the float conversion
    @pytest.mark.parametrize("given", ["guess", "", None, 0.0, -1.0, "-1", np.inf, np.nan,
                                       1e-200, "1e300", np.array([0.1, 0.2])])
    def test_bad_settings_raise(self, given):
        with pytest.raises(ConfigError, match="positive number, 'auto' or 'data'"):
            check_bandwidth(given)


class TestDataDrivenBandwidth:
    def test_reasonable_and_deterministic(self):
        x, _ = generate(CurveSpec("circle"), 300, 0)
        a = data_driven_bandwidth(x)
        b = data_driven_bandwidth(x)
        assert a.sigma == b.sigma
        assert 0.0 < a.sigma < 2.5  # within the circle's diameter

    @pytest.mark.parametrize("curve, n, sigma", [
        ("circle", 200, 0.0876374223101844),
        ("circle", 2000, 0.04121288735711504),
        ("half-circle", 200, 0.06880058843542239),
        ("half-circle", 2000, 0.03839474394439145),
        ("cardioid", 200, 0.22117484104166135),
        ("cardioid", 2000, 0.09352123189557814),
    ])
    def test_pinned_values(self, curve, n, sigma):
        # exact: the distances come from the kernel's strips, bit for bit
        _, _, z = noisy_sample(CurveSpec(curve), n, 3, 100.0, None)
        assert data_driven_bandwidth(z).sigma == sigma

    @pytest.mark.parametrize("curve", ["cardioid", "circle"])
    def test_floor_keeps_the_unclamped_sigma_in_13_n_squared_bytes(self, curve):
        n = 2000
        _, _, z = noisy_sample(CurveSpec(curve), n, 0, 100.0, None)
        sigma, smallest, sq = _unclamped_data_bandwidth(z)
        # at the grid's smallest sigma some pairs lie below the exponent floor
        assert sq.max() / (2.0 * smallest**2) > -exponent_floor(n)
        tracemalloc.start()
        try:
            got = data_driven_bandwidth(z).sigma
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == sigma
        # the packed distances and the pairs, then the pairs and the positive
        # ones or the terms: never an N x N array; the first strip's pairs
        # are copied out through a temporary of two 8-byte words per entry
        packed, pairs = 8 * (n * (n + 1) // 2 + n * STRIP), 4 * n * (n - 1)
        assert peak <= packed + pairs + 16 * STRIP * n + 2**20
        assert peak <= 13 * n * n + 2**20

    def test_coincident_points_rejected(self):
        x = DataMatrix(np.tile(np.random.default_rng(3).standard_normal((300, 1)), (1, 40)))
        with pytest.raises(CoincidentPointsError, match="coincide"):
            data_driven_bandwidth(x)

    def test_recovery_quality_with_heuristic_bandwidth(self):
        x, t = generate(CurveSpec("circle"), 500, 1)
        out = recover_labels(x, CurveKind.CLOSED_LOOP, "data")
        assert out.sigma == data_driven_bandwidth(x).sigma
        assert err_closed_time(t, out.labels).error <= 0.5


def _unclamped_data_bandwidth(z):
    """(sigma, the grid's smallest sigma, each pair's squared distance) of
    the data rule with no exponent floor, one fresh exp array per sigma."""
    packed = PackedSymmetric(z.n_points)
    _upper_strips(z.values, packed)
    sq = unpack(packed)[~np.tri(z.n_points, dtype=bool)]
    positive = sq[sq > 0]
    sigmas = np.geomspace(math.sqrt(float(np.quantile(positive, 0.01))) / 4.0,
                          math.sqrt(float(positive.max())), DATA_BANDWIDTH_GRID)
    mass = np.array([2.0 * np.exp(-sq / (2.0 * s * s)).sum() + z.n_points for s in sigmas])
    slope = np.gradient(np.log(mass / (np.sqrt(2.0 * math.pi) * sigmas)), np.log(sigmas))
    return float(sigmas[int(np.argmax(slope))]), float(sigmas[0]), sq


class TestEndToEnd:
    @pytest.mark.parametrize("sigma", ["auto", "data", 0.3])
    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_coincident_points_rejected_under_every_rule(self, kind, sigma):
        # a fixed or rate-formula sigma would build a connected graph whose
        # eigenvectors are noise (eigenvalues 0, 1, 1) and return their labels
        x = DataMatrix(np.ones((2, 50)))
        with pytest.raises(CoincidentPointsError, match="all 50 points coincide"):
            recover_labels(x, kind, sigma)

    def test_noiseless_circle_at_rate_bandwidth(self):
        n = 2000
        x, t = generate(CurveSpec("circle"), n, 0)
        out = recover_labels(x, CurveKind.CLOSED_LOOP, n ** (-1 / 7))
        assert err_closed_time(t, out.labels).error <= 0.15

    def test_open_recovery_is_monotone_in_fiedler(self):
        x, t = generate(CurveSpec("half-circle"), 400, 2)
        out = recover_labels(x, CurveKind.OPEN_CURVE, math.sqrt(0.05))
        # up to reflection, recovered order tracks the true order closely
        from spectime import err_open_time

        rep = err_open_time(t, out.labels, 0.1)
        assert rep.error < np.pi / 2
