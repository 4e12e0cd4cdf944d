import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from spectime import (
    CurveKind,
    CurveSpec,
    DataMatrix,
    denoise_auto,
    denoise_fixed_rank,
    err_closed_time,
    noisy_sample,
    recover_labels,
    select_bandwidth,
)
from spectime import denoise
from spectime.denoise import _left_basis
from spectime.errors import DegenerateSketchError, RankTooLargeError


def low_rank_matrix(rng, d, n, singular_values):
    r = len(singular_values)
    u, _ = np.linalg.qr(rng.standard_normal((d, r)))
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return u @ np.diag(singular_values) @ v.T


def projection(res):
    """The d x N projection B C of the denoised data."""
    return res.basis @ res.coords.values


class TestFixedRank:
    def test_projection_onto_own_column_space(self):
        rng = np.random.default_rng(0)
        x = low_rank_matrix(rng, 40, 30, [5.0, 3.0, 1.0])
        z = DataMatrix(x)
        res = denoise_fixed_rank(z, 3)
        assert np.linalg.norm(projection(res) - x) <= 1e-10 * np.linalg.norm(x)

    def test_diagonal_matrix_keeps_top_two(self):
        z = DataMatrix(np.diag([4.0, 3.0, 2.0, 1.0]))
        res = denoise_fixed_rank(z, 2)
        assert np.allclose(projection(res), np.diag([4.0, 3.0, 0.0, 0.0]), atol=1e-12)

    def test_full_rank_identity_projection(self):
        rng = np.random.default_rng(1)
        z = DataMatrix(rng.standard_normal((5, 8)))
        res = denoise_fixed_rank(z, 5)
        assert np.allclose(projection(res), z.values, atol=1e-12)

    def test_rank_bounds(self):
        z = DataMatrix(np.ones((4, 6)))
        with pytest.raises(RankTooLargeError):
            denoise_fixed_rank(z, 5)
        with pytest.raises(RankTooLargeError):
            denoise_fixed_rank(z, 0)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(2)
        res = denoise_fixed_rank(DataMatrix(rng.standard_normal((20, 10))), 4)
        gram = res.basis.T @ res.basis
        assert np.abs(gram - np.eye(4)).max() <= 1e-10


class TestAuto:
    def test_rank_rule_on_clean_low_rank(self):
        rng = np.random.default_rng(3)
        x = low_rank_matrix(rng, 60, 40, [10.0, 8.0, 6.0, 4.0, 2.0])
        z = DataMatrix(x + 1e-12 * rng.standard_normal(x.shape))
        res = denoise_auto(z, r0=10, eta=1e-3, seed=0)
        # the first-below rule may keep one sub-threshold direction
        assert res.r_hat in (5, 6)
        rel = np.linalg.norm(projection(res) - x) / np.linalg.norm(x)
        assert rel <= 1e-8

    def test_no_ratio_below_eta_keeps_r0(self):
        rng = np.random.default_rng(4)
        z = DataMatrix(rng.standard_normal((30, 25)))  # full-spectrum noise
        res = denoise_auto(z, r0=5, eta=1e-6, seed=1)
        assert res.r_hat == 5

    def test_all_zero_data_degenerate(self):
        with pytest.raises(DegenerateSketchError):
            denoise_auto(DataMatrix(np.zeros((10, 8))), r0=3, eta=0.1, seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        z = DataMatrix(rng.standard_normal((25, 20)))
        a = denoise_auto(z, r0=6, eta=1e-4, seed=42)
        b = denoise_auto(z, r0=6, eta=1e-4, seed=42)
        assert a.r_hat == b.r_hat
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(projection(a), projection(b))

    def test_eta_validation(self):
        z = DataMatrix(np.ones((4, 4)))
        with pytest.raises(ValueError):
            denoise_auto(z, r0=2, eta=1.5, seed=0)


class TestProjectionProperties:
    def test_idempotent_reprojection(self):
        rng = np.random.default_rng(6)
        z = DataMatrix(rng.standard_normal((30, 20)))
        res = denoise_fixed_rank(z, 4)
        twice = res.basis @ (res.basis.T @ projection(res))
        assert np.linalg.norm(twice - projection(res)) <= 1e-10 * np.linalg.norm(z.values)

    def test_signal_never_grows(self):
        rng = np.random.default_rng(7)
        x = low_rank_matrix(rng, 80, 50, [9.0, 5.0, 2.0])
        z = DataMatrix(x + 0.01 * rng.standard_normal(x.shape))
        res = denoise_fixed_rank(z, 3)
        proj_x = res.basis @ (res.basis.T @ x)
        assert np.linalg.norm(proj_x - x) <= np.linalg.norm(x)

    def test_small_signal_loss_when_well_separated(self):
        # at 10x separation the loss is ~4%; 50x brings it under 1%
        rng = np.random.default_rng(8)
        x = low_rank_matrix(rng, 100, 60, [10.0, 8.0, 6.0])
        noise = rng.standard_normal(x.shape)
        noise *= (6.0 / 50.0) / np.linalg.norm(noise, 2)
        res = denoise_fixed_rank(DataMatrix(x + noise), 3)
        proj_x = res.basis @ (res.basis.T @ x)
        assert np.linalg.norm(proj_x - x) <= 0.01 * np.linalg.norm(x)

    def test_uniform_error_reduction(self):
        # the point of projecting: per-point noise scales with sqrt(rank),
        # not sqrt(d)
        rng = np.random.default_rng(9)
        d, n = 2000, 500
        x = low_rank_matrix(rng, d, n, [10.0, 8.0, 6.0, 4.0, 2.0])
        eps = 2.0 / (10.0 * (np.sqrt(d) + np.sqrt(n)))  # ||E|| ~ min sv / 10
        z = DataMatrix(x + eps * rng.standard_normal(x.shape))
        res = denoise_fixed_rank(z, 5)
        per_point_before = np.linalg.norm(z.values - x, axis=0).max()
        per_point_after = np.linalg.norm(projection(res) - x, axis=0).max()
        assert per_point_after <= per_point_before / 3.0


def both_denoisers(z):
    return [denoise_fixed_rank(z, 3), denoise_auto(z, r0=10, eta=1e-3, seed=11)]


class TestCoordinates:
    """Denoisers return the coordinates C = B^T Z, read-only; the projection
    z_tilde = B C has their distances."""

    def test_z_tilde_is_basis_times_coordinates_bit_for_bit(self):
        rng = np.random.default_rng(10)
        z = DataMatrix(rng.standard_normal((40, 30)))
        for res in both_denoisers(z):
            assert res.coords.values.shape == (res.r_hat, z.n_points)
            assert np.array_equal(res.coords.values, res.basis.T @ z.values)
            assert np.array_equal(projection(res), res.basis @ (res.basis.T @ z.values))
            assert not res.coords.values.flags.writeable

    def test_recovery_from_coordinates_matches_recovery_from_z_tilde(self):
        d, n = 60, 200
        _, _, z = noisy_sample(CurveSpec("embedded", d), n, 12, 5.0, None)
        eps = np.finfo(np.float64).eps
        sigma = select_bandwidth(n, kind=CurveKind.CLOSED_LOOP).sigma
        for res in both_denoisers(z):
            c, zt = res.coords.values, projection(res)
            # B C has the distances of C in exact arithmetic; taken from the
            # differences, they agree within the bound of the Gram form that
            # the kernel uses, (rows + 2) * eps * (n_i + n_j) for each side
            norms = np.einsum("ij,ij->j", zt, zt)
            bound = (d + res.r_hat + 4) * eps * np.add.outer(norms, norms)
            gap = squareform(pdist(c.T, "sqeuclidean") - pdist(zt.T, "sqeuclidean"))
            assert np.all(np.abs(gap) <= bound)
            from_coords = recover_labels(res.coords, CurveKind.CLOSED_LOOP, sigma)
            from_z_tilde = recover_labels(DataMatrix(zt), CurveKind.CLOSED_LOOP, sigma)
            assert err_closed_time(from_z_tilde.labels, from_coords.labels).error <= 1e-8


def first_below(eta, r0):
    """denoise_auto's rank rule on a nonzero spectrum."""
    def rule(s):
        below = np.nonzero(s / s[0] < eta)[0]
        return int(below[0]) + 1 if below.size else r0
    return rule


def svd_reference(z, r):
    """The thin-SVD basis and coordinates that the SVD route returns."""
    u, _, _ = np.linalg.svd(z, full_matrices=False)
    return u[:, :r], u[:, :r].T @ z


class TestGramRoute:
    """The Gram eigenproblem's basis against the thin SVD's, and the inputs
    its certificate refuses."""

    @settings(max_examples=120, deadline=None)
    @given(d=st.integers(1, 60), n=st.integers(2, 60), low_rank=st.booleans(),
           fixed=st.booleans(), pick=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(d=12, n=50, low_rank=True, fixed=True, pick=1.0, seed=0)  # d < N: a a^T
    @example(d=50, n=12, low_rank=True, fixed=False, pick=1.0, seed=1)  # d > N: a^T a
    # the ratio rule keeps a noise direction at s_r^2 = 2.6e-12 < delta = 1.6e-11
    @example(d=29, n=29, low_rank=True, fixed=False, pick=0.96875, seed=29)
    def test_matches_svd(self, d, n, low_rank, fixed, pick, seed):
        rng = np.random.default_rng(seed)
        m = min(d, n)
        if low_rank:  # rank k down to a singular value of 1, noise of norm 1e-3 to 1e-1
            k = 1 + int(pick * (m - 1))
            x = low_rank_matrix(rng, d, n, np.geomspace(10.0, 1.0, k))
            noise = 10.0 ** rng.uniform(-3.0, -1.0) / (np.sqrt(d) + np.sqrt(n))
            a = x + noise * rng.standard_normal((d, n))
        else:
            k = m
            a = rng.standard_normal((d, n))
        r_fixed = 1 + int(pick * (k - 1))  # a split at a resolved gap
        rule = (lambda s: r_fixed) if fixed else first_below(1e-3, m)
        s, basis, route = _left_basis(a, rule)
        u, s_svd, _ = np.linalg.svd(a, full_matrices=False)
        r = rule(s_svd)
        # condition 3 of the certificate: the Gram's w_r above its rounding margin
        gram = a.T @ a if n <= d else a @ a.T
        w = np.linalg.eigh(gram)[0][::-1]
        if not w[r - 1] > 2.0 * (d + n) * np.finfo(np.float64).eps * float(np.trace(gram)):
            assert route == "svd"
            assert np.array_equal(s, s_svd) and np.array_equal(basis, u[:, :r])
            return
        assert route == "gram"
        assert basis.shape == (d, r)
        # the Gram holds s_i**2, to 1e-12 s_1**2: s_i is within 1e-12 s_1**2 / (2 s_i)
        assert np.abs(s[:r] ** 2 - s_svd[:r] ** 2).max() <= 1e-12 * s_svd[0] ** 2
        assert np.abs(basis.T @ basis - np.eye(r)).max() <= 1e-12
        projector = basis @ basis.T
        exact = u[:, :r] @ u[:, :r].T
        # the projected data agree everywhere; the projectors where the split
        # has a gap (the ratio rule may split the noise floor's cluster)
        assert np.linalg.norm((projector - exact) @ a, 2) <= 1e-10 * s_svd[0]
        if fixed:
            assert np.abs(projector - exact).max() <= 1e-10

    def test_clean_low_rank_takes_the_svd_bit_for_bit(self):
        # test_rank_rule_on_clean_low_rank's data: the kept sixth direction is
        # at rounding level, below the Gram's margin
        rng = np.random.default_rng(3)
        x = low_rank_matrix(rng, 60, 40, [10.0, 8.0, 6.0, 4.0, 2.0])
        z = DataMatrix(x + 1e-12 * rng.standard_normal(x.shape))
        res = denoise_auto(z, r0=10, eta=1e-3, seed=0)
        assert res.route == "svd"
        y = z.values @ np.random.default_rng(0).standard_normal((40, 10))
        basis, coords = svd_reference(y, res.r_hat)
        assert np.array_equal(res.basis, basis)
        assert np.array_equal(res.coords.values, basis.T @ z.values)
        s = np.linalg.svd(y, full_matrices=False)[1]
        assert res.ratio == s[res.r_hat - 1] / s[0]

    def test_all_zero_data_takes_the_svd(self):
        # denoise_auto raises DegenerateSketchError (test_all_zero_data_degenerate)
        z = DataMatrix(np.zeros((10, 8)))
        res = denoise_fixed_rank(z, 2)
        basis, coords = svd_reference(z.values, 2)
        assert res.route == "svd" and res.ratio == 0.0
        assert np.array_equal(res.basis, basis)
        assert np.array_equal(res.coords.values, coords)

    def test_eta_inside_the_rounding_margin_takes_the_svd(self):
        rng = np.random.default_rng(14)
        z = DataMatrix(low_rank_matrix(rng, 50, 40, [10.0, 5.0, 2.0, 1.0, 0.5]))
        g = np.random.default_rng(0).standard_normal((40, 8))
        y = z.values @ g
        w = np.linalg.eigvalsh(y.T @ y)[::-1]
        eta = float(np.sqrt(w[2] / w[0]))  # on the Gram's third ratio
        res = denoise_auto(z, r0=8, eta=eta, seed=0)
        assert res.route == "svd"
        s = np.linalg.svd(y, full_matrices=False)[1]
        below = np.nonzero(s / s[0] < eta)[0]
        r_hat = int(below[0]) + 1 if below.size else 8
        assert res.r_hat == r_hat
        assert np.array_equal(res.basis, svd_reference(y, r_hat)[0])
        # a threshold clear of every ratio takes the Gram route
        assert denoise_auto(z, r0=8, eta=0.5 * eta, seed=0).route == "gram"

    def test_basis_off_the_orthonormal_bound_takes_the_svd(self, monkeypatch):
        # a bound no basis meets, even after the Cholesky step
        monkeypatch.setattr(denoise, "ORTHONORMAL_TOL", 0.0)
        rng = np.random.default_rng(16)
        z = DataMatrix(rng.standard_normal((40, 30)))
        res = denoise_fixed_rank(z, 4)
        basis, coords = svd_reference(z.values, 4)
        assert res.route == "svd"
        assert np.array_equal(res.basis, basis)
        assert np.array_equal(res.coords.values, coords)

    def test_noisy_embedded_circle_takes_the_gram_route(self):
        _, _, z = noisy_sample(CurveSpec("embedded", 500), 400, 15, 1.0, None)
        res = denoise_auto(z, r0=100, eta=1e-3, seed=2)
        assert res.route == "gram" and res.r_hat == 100
        assert np.abs(res.basis.T @ res.basis - np.eye(100)).max() <= 1e-12
        y = z.values @ np.random.default_rng(2).standard_normal((400, 100))
        s = np.linalg.svd(y, full_matrices=False)[1]
        assert abs(res.ratio - s[99] / s[0]) <= 1e-12
