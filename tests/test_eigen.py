import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence

from spectime import (
    CurveKind,
    CurveSpec,
    KernelParams,
    LaplacianMatrix,
    build_kernel,
    build_laplacian,
    generate,
    smallest_eigenpairs,
)
from spectime import eigen
from spectime.eigen import SHIFT, _fix_signs, _lanczos_smallest
from spectime.errors import NoConvergenceError


def principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the column spaces of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def circle_laplacian(n, sigma=None, seed=0):
    x, _ = generate(CurveSpec("circle"), n, seed)
    params = KernelParams(sigma if sigma is not None else n ** (-1 / 7))
    return build_laplacian(build_kernel(x, params))


@pytest.fixture
def no_evr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense solver was called")

    monkeypatch.setattr(eigen, "eigh", refuse)


@pytest.fixture
def evr_calls(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(eigen, "eigh", spy)
    return calls


class TestClosedForm:
    def test_two_by_two(self):
        l = np.array([[0.5, -0.5], [-0.5, 0.5]])
        res = smallest_eigenpairs(l, k=2)
        assert np.allclose(res.eigenvalues, [0.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(res.eigenvectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
        assert np.allclose(res.eigenvectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)

    def test_closed_loop_null_pair(self):
        x, _ = generate(CurveSpec("circle"), 150, 3)
        lap = build_laplacian(build_kernel(x, KernelParams(0.35)))
        res = smallest_eigenpairs(lap, k=1)
        assert res.eigenvalues[0] <= 1e-10
        v = 1.0 / lap.inv_sqrt_degrees  # sqrt(d~)
        v /= np.linalg.norm(v)
        assert np.abs(np.abs(res.eigenvectors[:, 0] @ v) - 1.0) <= 1e-8


class TestContracts:
    def test_residual_certificates(self):
        lap = circle_laplacian(200, sigma=0.3)
        res = smallest_eigenpairs(lap, k=4, tol=1e-8)
        for j in range(4):
            r = np.linalg.norm(lap.l @ res.eigenvectors[:, j]
                               - res.eigenvalues[j] * res.eigenvectors[:, j])
            assert r <= 1e-8

    def test_columns_orthonormal(self):
        lap = circle_laplacian(180, sigma=0.3, seed=5)
        res = smallest_eigenpairs(lap, k=5)
        gram = res.eigenvectors.T @ res.eigenvectors
        assert np.abs(np.linalg.norm(res.eigenvectors, axis=0) - 1.0).max() <= 1e-10
        assert np.abs(gram - np.eye(5)).max() <= 1e-8

    def test_eigenvalues_ascending(self):
        lap = circle_laplacian(120, sigma=0.4, seed=6)
        res = smallest_eigenpairs(lap, k=6)
        assert np.all(np.diff(res.eigenvalues) >= 0)

    def test_matches_dense_oracle_small_instance(self):
        lap = circle_laplacian(200, sigma=0.3, seed=0)
        oracle = np.sort(np.linalg.eigvalsh(lap.l))
        res = smallest_eigenpairs(lap, k=3)
        assert np.abs(res.eigenvalues - oracle[:3]).max() <= 1e-8

    def test_near_double_eigenvalue_on_circle(self):
        # The loop's second and third eigenvalues form a near-double pair:
        # their split is small against the gap to the fourth eigenvalue.
        # (Their plain ratio fluctuates 10-30% with the sampling at these
        # sizes, so the cluster-separation form is the stable property.)
        lap = circle_laplacian(500, sigma=500 ** (-1 / 7), seed=0)
        oracle = np.sort(np.linalg.eigvalsh(lap.l))
        res = smallest_eigenpairs(lap, k=4)
        assert np.abs(res.eigenvalues - oracle[:4]).max() <= 1e-8
        split = res.eigenvalues[2] - res.eigenvalues[1]
        gap_above = res.eigenvalues[3] - res.eigenvalues[2]
        assert split <= 0.25 * gap_above

    def test_sign_convention_deterministic(self):
        lap = circle_laplacian(100, sigma=0.4, seed=7)
        a = smallest_eigenpairs(lap, k=3)
        b = smallest_eigenpairs(lap, k=3)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for j in range(3):
            col = a.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_k_bounds(self):
        l = np.eye(3)
        with pytest.raises(ValueError):
            smallest_eigenpairs(l, k=0)
        with pytest.raises(ValueError):
            smallest_eigenpairs(l, k=4)


class TestDenseSubset:
    """The dense path solves only the k wanted pairs; it must agree with a
    full decomposition."""

    def random_symmetric(self, n, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        return (a + a.T) / 2.0

    def assert_matches_full(self, a, k):
        w, v = np.linalg.eigh(a)
        res = smallest_eigenpairs(a, k=k)
        scale = max(1.0, np.abs(w).max())
        assert np.abs(res.eigenvalues - w[:k]).max() <= 1e-10 * scale
        # a generic random matrix has simple eigenvalues: vectors match up to sign
        assert np.abs(res.eigenvectors - _fix_signs(v[:, :k])).max() <= 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_full_eigh(self, k):
        self.assert_matches_full(self.random_symmetric(200, k), k)

    def test_matches_full_eigh_when_k_exceeds_quarter(self, monkeypatch):
        # above the cutoff, k > n // 4 still takes the dense path
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        self.assert_matches_full(self.random_symmetric(60, 4), 20)

    def test_laplacian_subspace_matches_full_eigh(self):
        lap = circle_laplacian(300, sigma=0.33, seed=4)
        w, v = np.linalg.eigh(lap.l)
        res = smallest_eigenpairs(lap, k=3)
        assert np.abs(res.eigenvalues - w[:3]).max() <= 1e-10
        # lambda_2 ~ lambda_3 on a loop: compare subspaces, not vectors
        assert principal_angle(res.eigenvectors, v[:, :3]) <= 1e-6


class TestShiftInvert:
    """The dense path factors A + SHIFT*I and runs Lanczos on its inverse;
    only input that is not positive definite after the shift, or
    k >= n - 1, reaches LAPACK's dense solver."""

    @pytest.mark.parametrize(
        "curve, kind, sigma",
        [
            ("circle", CurveKind.CLOSED_LOOP, 0.33),
            ("cardioid", CurveKind.OPEN_CURVE, np.sqrt(0.02)),
            ("half-circle", CurveKind.OPEN_CURVE, np.sqrt(0.05)),
        ],
    )
    def test_laplacian_never_reaches_dense_solver(self, no_evr, curve, kind, sigma):
        # k as recovery asks for it: u2, u3 on a loop, u2 on an open curve
        k = 3 if kind is CurveKind.CLOSED_LOOP else 2
        x, _ = generate(CurveSpec(curve), 400, 8)
        lap = build_laplacian(build_kernel(x, KernelParams(sigma)))
        w, v = np.linalg.eigh(lap.l)
        res = smallest_eigenpairs(lap, k=k)
        assert np.abs(res.eigenvalues - w[:k]).max() <= 1e-10
        assert principal_angle(res.eigenvectors, v[:, :k]) <= 1e-6

    def test_negative_eigenvalue_above_minus_shift_stays_on_shift_invert(self, no_evr):
        lap = circle_laplacian(300, sigma=0.33, seed=4).l - 0.5 * SHIFT * np.eye(300)
        w, v = np.linalg.eigh(lap)
        res = smallest_eigenpairs(lap, k=3)
        assert w[0] < 0
        assert np.abs(res.eigenvalues - w[:3]).max() <= 1e-10
        assert principal_angle(res.eigenvectors, v[:, :3]) <= 1e-6

    def test_eigenvalue_below_minus_shift_falls_back(self, evr_calls):
        lap = circle_laplacian(300, sigma=0.33, seed=4).l - 2.0 * SHIFT * np.eye(300)
        res = smallest_eigenpairs(lap, k=3)
        assert len(evr_calls) == 1
        w, v = eigh(lap, subset_by_index=[0, 2], driver="evr")
        assert np.array_equal(res.eigenvalues, w)
        assert np.array_equal(res.eigenvectors, _fix_signs(v))

    @pytest.mark.parametrize("k", [7, 8])
    def test_k_at_least_n_minus_one_falls_back(self, evr_calls, k):
        lap = circle_laplacian(8, sigma=0.6, seed=2)
        res = smallest_eigenpairs(lap, k=k)
        assert len(evr_calls) == 1
        w = np.linalg.eigvalsh(lap.l)
        assert np.abs(res.eigenvalues - w[:k]).max() <= 1e-10


class TestNoConvergenceCount:
    """An unreachable residual target reports how many times the iterative
    solver applied its operator."""

    def test_shift_invert_path(self, no_evr):
        with pytest.raises(NoConvergenceError) as err:
            smallest_eigenpairs(circle_laplacian(300, sigma=0.33), k=3, tol=1e-300)
        assert err.value.iterations > 0

    def test_lanczos_path(self, monkeypatch):
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        with pytest.raises(NoConvergenceError) as err:
            smallest_eigenpairs(circle_laplacian(300, sigma=0.33), k=3, tol=1e-300)
        assert err.value.iterations > 0


class TestIterativePath:
    def test_matches_dense_oracle(self):
        lap = circle_laplacian(300, sigma=0.33, seed=1)
        w_dense, v_dense = np.linalg.eigh(lap.l)
        values, vectors, _ = _lanczos_smallest(lap.l, 3, 1e-10)
        order = np.argsort(values)
        values = values[order]
        vectors = vectors[:, order]
        assert np.abs(values - w_dense[:3]).max() <= 1e-8
        # compare subspaces, not vectors: lambda_2 ~ lambda_3 on a loop
        assert principal_angle(vectors, v_dense[:, :3]) <= 1e-6

    def test_indefinite_matrix_needs_no_spectral_bound(self):
        # eigenvalues far outside [0, 1]: the flip I - A is indefinite
        a = np.random.default_rng(9).standard_normal((300, 300))
        a = 10.0 * (a + a.T)
        w_dense, v_dense = np.linalg.eigh(a)
        values, vectors, _ = _lanczos_smallest(a, 3, 1e-10)
        order = np.argsort(values)
        scale = np.abs(w_dense).max()
        assert np.abs(values[order] - w_dense[:3]).max() <= 1e-10 * scale
        assert principal_angle(vectors, v_dense[:, :3]) <= 1e-6

    def test_iterative_respects_certificate(self):
        lap = circle_laplacian(300, sigma=0.33, seed=2)
        values, vectors, _ = _lanczos_smallest(lap.l, 2, 1e-8)
        for j in range(2):
            r = np.linalg.norm(lap.l @ vectors[:, j] - values[j] * vectors[:, j])
            assert r <= 1e-8

    def test_large_path_via_public_api(self):
        # above the dense cutoff the Lanczos branch is used transparently
        lap = circle_laplacian(2100, seed=3)
        res = smallest_eigenpairs(lap, k=3)
        assert res.residuals.max() <= 1e-8
        assert res.eigenvalues[0] <= 1e-9


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestInPlaceFactor:
    """The dense path factors a LaplacianMatrix in its own buffer and hands
    it back unchanged, bit for bit, however the solve ends."""

    @pytest.fixture
    def lap(self):
        # sigma well below the loop's diameter: kernel entries underflow, so
        # L holds -0.0 entries that a sloppy restore would turn into 0.0
        lap = circle_laplacian(300, sigma=0.05, seed=4)
        assert np.signbit(lap.l[lap.l == 0.0]).any()
        return lap

    def test_allocates_less_than_a_quarter_of_the_matrix(self):
        n = 1000
        lap = circle_laplacian(n, seed=5)
        tracemalloc.start()
        try:
            smallest_eigenpairs(lap, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n <= eigen.DENSE_CUTOFF
        assert peak < n * n * 8 / 4

    def test_laplacian_unchanged_after_return(self, lap, no_evr):
        before = lap.l.copy()
        smallest_eigenpairs(lap, k=3)
        assert same_bits(lap.l, before)

    def test_same_pairs_as_the_copy_path(self, lap):
        res = smallest_eigenpairs(lap, k=3)
        ref = smallest_eigenpairs(lap.l.copy(), k=3)  # a bare ndarray is copied
        for field in ("eigenvalues", "eigenvectors", "residuals"):
            assert same_bits(getattr(res, field), getattr(ref, field))

    def test_laplacian_unchanged_after_failed_factor(self, evr_calls):
        a = np.random.default_rng(3).standard_normal((300, 300))
        a = (a + a.T) / 2.0  # bit-exactly symmetric and indefinite
        lap = LaplacianMatrix(l=a.copy(), sigma=1.0, inv_sqrt_degrees=np.ones(300))
        res = smallest_eigenpairs(lap, k=3)
        assert len(evr_calls) == 1
        assert same_bits(lap.l, a)
        w, v = eigh(a, subset_by_index=[0, 2], driver="evr")
        assert np.array_equal(res.eigenvalues, w)

    def test_laplacian_unchanged_after_no_convergence(self, lap, monkeypatch):
        def give_up(op, k, **kwargs):
            op.matvec(np.ones(op.shape[0]))
            raise ArpackNoConvergence("forced", np.empty(0), np.empty((op.shape[0], 0)))

        monkeypatch.setattr(eigen, "eigsh", give_up)
        before = lap.l.copy()
        with pytest.raises(NoConvergenceError) as err:
            smallest_eigenpairs(lap, k=3)
        assert err.value.iterations == 1
        assert same_bits(lap.l, before)

    def test_read_only_inputs_are_copied(self, lap):
        ref = smallest_eigenpairs(lap, k=3)
        frozen = lap.l.copy()
        frozen.flags.writeable = False
        for arg in (frozen, LaplacianMatrix(frozen, lap.sigma, lap.inv_sqrt_degrees)):
            res = smallest_eigenpairs(arg, k=3)
            assert same_bits(res.eigenvectors, ref.eigenvectors)
        assert same_bits(frozen, lap.l)
