import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky, eigh

from spectime import (
    CurveKind,
    CurveSpec,
    KernelParams,
    LaplacianMatrix,
    build_kernel,
    build_laplacian,
    generate,
    noise_for_snr,
    select_bandwidth,
    smallest_eigenpairs,
)
from spectime import eigen
from spectime.eigen import SHIFT, _block_smallest, _fix_signs
from spectime.errors import NoConvergenceError

from oracles import pack, unpack


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


def laplacian_of(a: np.ndarray) -> LaplacianMatrix:
    """A bare symmetric matrix, packed, in the solver's one input type."""
    return LaplacianMatrix(pack(a), 1.0, np.ones(a.shape[0]))


@pytest.fixture
def factor_first(monkeypatch):
    """The probe always predicts that the factor pays: a solve the probe
    does not finish factors, as if no probe had run."""
    monkeypatch.setattr(eigen, "_factor_pays", lambda theta, k, width: True)


def assert_matches_eigh(res, a, k):
    """Eigenvalues within 1e-10 max|lambda| of numpy's full eigh, and the
    same k-dimensional eigenspace."""
    w, v = np.linalg.eigh(a)
    assert np.abs(res.eigenvalues - w[:k]).max() <= 1e-10 * np.abs(w).max()
    assert principal_angle(res.eigenvectors, v[:, :k]) <= 1e-6


def test_import_and_dense_recovery_load_no_scipy():
    # the dense path factors on numpy, so the runtime needs no scipy module
    src = str(Path(eigen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        "import sys, spectime as st\n"
        "x, _ = st.generate(st.CurveSpec('circle'), 300, seed=0)\n"
        "st.recover_labels(st.noise_for_snr(x, 100.0, seed=1), st.CurveKind.CLOSED_LOOP)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestClosedForm:
    def test_two_by_two(self):
        l = np.array([[0.5, -0.5], [-0.5, 0.5]])
        res = smallest_eigenpairs(laplacian_of(l), k=2)
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
        res = smallest_eigenpairs(lap, k=4)
        for j in range(4):
            r = np.linalg.norm(unpack(lap.l) @ res.eigenvectors[:, j]
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
        oracle = np.sort(np.linalg.eigvalsh(unpack(lap.l)))
        res = smallest_eigenpairs(lap, k=3)
        assert np.abs(res.eigenvalues - oracle[:3]).max() <= 1e-8

    def test_near_double_eigenvalue_on_circle(self):
        # The loop's second and third eigenvalues form a near-double pair:
        # their split is small against the gap to the fourth eigenvalue.
        # (Their plain ratio fluctuates 10-30% with the sampling at these
        # sizes, so the cluster-separation form is the stable property.)
        lap = circle_laplacian(500, sigma=500 ** (-1 / 7), seed=0)
        oracle = np.sort(np.linalg.eigvalsh(unpack(lap.l)))
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
        l = laplacian_of(np.eye(3))
        with pytest.raises(ValueError):
            smallest_eigenpairs(l, k=0)
        with pytest.raises(ValueError):
            smallest_eigenpairs(l, k=4)


class TestRefusedInput:
    """The solver takes a LaplacianMatrix; anything else is refused before
    its operator is applied, with the array untouched."""

    @pytest.fixture
    def applied(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("refused input reached the solver")

        monkeypatch.setattr(eigen, "_block_smallest", spy)
        monkeypatch.setattr(eigen, "_dense_smallest", spy)
        return calls

    def test_bare_ndarray_raises_type_error(self, applied):
        a = unpack(circle_laplacian(100, sigma=0.4).l)
        before = a.copy()
        with pytest.raises(TypeError, match="build_laplacian"):
            smallest_eigenpairs(a, k=2)
        with pytest.raises(TypeError, match="build_laplacian"):
            smallest_eigenpairs(np.eye(3), 1)
        assert same_bits(a, before) and applied == []


class TestDenseSubset:
    """The dense path solves only the k wanted pairs; it must agree with a
    full decomposition."""

    def random_symmetric(self, n, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        return (a + a.T) / 2.0

    def assert_matches_full(self, a, k):
        w, v = np.linalg.eigh(a)
        res = smallest_eigenpairs(laplacian_of(a), k=k)
        scale = max(1.0, np.abs(w).max())
        assert np.abs(res.eigenvalues - w[:k]).max() <= 1e-10 * scale
        # a generic random matrix has simple eigenvalues: vectors match up to sign
        assert np.abs(res.eigenvectors - _fix_signs(v[:, :k])).max() <= 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_full_eigh(self, k):
        self.assert_matches_full(self.random_symmetric(200, k), k)

    def test_matches_full_eigh_when_k_exceeds_quarter(self):
        # k > n // 4 takes the block path, whose basis reaches n = 60 rows
        self.assert_matches_full(self.random_symmetric(60, 4), 20)

    def test_laplacian_subspace_matches_full_eigh(self):
        lap = circle_laplacian(300, sigma=0.33, seed=4)
        w, v = np.linalg.eigh(unpack(lap.l))
        res = smallest_eigenpairs(lap, k=3)
        assert np.abs(res.eigenvalues - w[:3]).max() <= 1e-10
        # lambda_2 ~ lambda_3 on a loop: compare subspaces, not vectors
        assert principal_angle(res.eigenvectors, v[:, :3]) <= 1e-6


class TestShiftInvert:
    """The dense path factors A + SHIFT*I and runs the block iteration on
    its negated inverse; input that is not positive definite after the
    shift is refused."""

    @pytest.mark.parametrize(
        "curve, kind, sigma",
        [
            ("circle", CurveKind.CLOSED_LOOP, 0.33),
            ("cardioid", CurveKind.OPEN_CURVE, np.sqrt(0.02)),
            ("half-circle", CurveKind.OPEN_CURVE, np.sqrt(0.05)),
        ],
    )
    def test_laplacian_never_reaches_dense_solver(self, factor_first, curve, kind, sigma):
        # k as recovery asks for it: u2, u3 on a loop, u2 on an open curve;
        # a Laplacian's factor exists
        k = 3 if kind is CurveKind.CLOSED_LOOP else 2
        x, _ = generate(CurveSpec(curve), 400, 8)
        lap = build_laplacian(build_kernel(x, KernelParams(sigma)))
        w, v = np.linalg.eigh(unpack(lap.l))
        res = smallest_eigenpairs(lap, k=k)
        assert np.abs(res.eigenvalues - w[:k]).max() <= 1e-10
        assert principal_angle(res.eigenvectors, v[:, :k]) <= 1e-6
        assert res.path == "dense" and res.applications > 0

    @pytest.mark.parametrize("sigma2", [0.02, 0.002])
    def test_slow_cardioid_spectrum(self, sigma2):
        # lambda_2 of the cardioid (4.5e-4 and 4.0e-5) is small against the
        # spectrum's spread: the block iteration on L takes 27 and 171
        # passes here, the factor's inverse 10 and 15 passes of 2 rows
        x, _ = generate(CurveSpec("cardioid"), 2000, 0)
        lap = build_laplacian(build_kernel(x, KernelParams(np.sqrt(sigma2))))
        w, v = eigh(unpack(lap.l), subset_by_index=[0, 1])
        res = smallest_eigenpairs(lap, k=2)
        assert res.path == "dense"
        assert np.abs(res.eigenvalues - w).max() <= 1e-10
        assert principal_angle(res.eigenvectors, v) <= 1e-6

    def test_negative_eigenvalue_above_minus_shift_stays_on_shift_invert(self, factor_first):
        lap = unpack(circle_laplacian(300, sigma=0.33, seed=4).l) - 0.5 * SHIFT * np.eye(300)
        w, v = np.linalg.eigh(lap)
        res = smallest_eigenpairs(laplacian_of(lap), k=3)
        assert w[0] < 0 and res.path == "dense"
        assert np.abs(res.eigenvalues - w[:3]).max() <= 1e-10
        assert principal_angle(res.eigenvectors, v[:, :3]) <= 1e-6

    def test_eigenvalue_below_minus_shift_is_refused(self, factor_first):
        # no graph Laplacian has lambda_min <= -SHIFT; a hand-built one
        # handed to the factor raises, with its l as it was
        a = unpack(circle_laplacian(300, sigma=0.33, seed=4).l) - 2.0 * SHIFT * np.eye(300)
        lap = laplacian_of(a)
        with pytest.raises(NoConvergenceError, match="SHIFT") as err:
            smallest_eigenpairs(lap, k=3)
        assert err.value.applications == 0
        assert same_bits(unpack(lap.l), a)

    @pytest.mark.parametrize("k", [7, 8])
    def test_k_at_least_n_minus_one_takes_the_block_path(self, k):
        # k > n // 4 never reaches the factor; one pass of n = 8 rows
        # solves the whole space
        lap = circle_laplacian(8, sigma=0.6, seed=2)
        res = smallest_eigenpairs(lap, k=k)
        assert res.path == "block" and res.applications == 8
        assert_matches_eigh(res, unpack(lap.l), k)


class TestNoConvergenceCount:
    """An unreachable residual target reports how many times the iterative
    solver applied its operator."""

    @pytest.fixture(autouse=True)
    def unreachable(self, monkeypatch):
        monkeypatch.setattr(eigen, "DEFAULT_TOL", 1e-300)

    def test_shift_invert_path(self):
        with pytest.raises(NoConvergenceError) as err:
            smallest_eigenpairs(circle_laplacian(300, sigma=0.33), k=3)
        assert err.value.applications > 0

    def test_block_path(self, monkeypatch):
        # the spent budget hands the Laplacian to the factor, whose target is
        # unreachable too
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        with pytest.raises(NoConvergenceError) as err:
            smallest_eigenpairs(circle_laplacian(300, sigma=0.33), k=3)
        assert err.value.applications > 0


class TestNaNInput:
    """A NaN entry cannot be certified on any path: each one raises
    NoConvergenceError, never a raw LAPACK or numpy error, and never
    hands back pairs."""

    # the first pass over A meets the NaN, whatever k is
    @pytest.mark.parametrize("k", [5, 4, 1])
    def test_identity_with_nan_pair(self, k):
        a = np.eye(5)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(NoConvergenceError):
            smallest_eigenpairs(laplacian_of(a), k)

    # every solve starts on the block iteration on A, which meets the NaN
    # in its first pass of 5 rows, whatever k is, before any factor
    @pytest.mark.parametrize("k", [5, 4, 1])
    def test_indefinite_with_nan_pair_reaches_the_block_path(self, factor_first, k):
        a = np.eye(5)
        a[0, 0] = -1.0
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(NoConvergenceError, match="non-finite") as err:
            smallest_eigenpairs(laplacian_of(a), k)
        assert err.value.applications == 5

    def test_block_path(self, monkeypatch):
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        a = np.eye(80)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(NoConvergenceError, match="non-finite") as err:
            smallest_eigenpairs(laplacian_of(a), 3)
        assert err.value.applications == eigen.BLOCK

    def test_inf_pair_raises_without_numpy_warnings(self):
        # inf * 0 in the first pass is NaN; the finite check after that
        # pass raises the typed error
        a = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergenceError, match="non-finite"):
                smallest_eigenpairs(laplacian_of(a), 1)

    def test_nan_residual_fails_the_certificate(self, monkeypatch):
        # a block iteration that hands back a NaN entry
        def nan_vector(apply, n, k, width, tol, probe=None, factorable=False):
            v = np.eye(n)[:, :k]
            v[0, 0] = np.nan
            return np.arange(k, dtype=float), v, 0

        monkeypatch.setattr(eigen, "_block_smallest", nan_vector)
        with pytest.raises(NoConvergenceError, match="residual nan"):
            smallest_eigenpairs(laplacian_of(np.diag(np.arange(5.0))), 2)


class TestIterativePath:
    def test_matches_dense_oracle(self):
        lap = circle_laplacian(300, sigma=0.33, seed=1)
        w_dense, v_dense = np.linalg.eigh(unpack(lap.l))
        values, vectors, _ = _block_smallest(lap.l.apply, 300, 3, eigen.BLOCK, 1e-10)
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
        values, vectors, _ = _block_smallest(pack(a).apply, 300, 3, eigen.BLOCK, 1e-10)
        order = np.argsort(values)
        scale = np.abs(w_dense).max()
        assert np.abs(values[order] - w_dense[:3]).max() <= 1e-10 * scale
        assert principal_angle(vectors, v_dense[:, :3]) <= 1e-6

    def test_iterative_respects_certificate(self):
        lap = circle_laplacian(300, sigma=0.33, seed=2)
        values, vectors, _ = _block_smallest(lap.l.apply, 300, 2, eigen.BLOCK, 1e-8)
        for j in range(2):
            r = np.linalg.norm(unpack(lap.l) @ vectors[:, j] - values[j] * vectors[:, j])
            assert r <= 1e-8

    def test_large_path_via_public_api(self):
        # above the dense cutoff the block branch is used transparently
        lap = circle_laplacian(2100, seed=3)
        res = smallest_eigenpairs(lap, k=3)
        assert res.residuals.max() <= 1e-8
        assert res.eigenvalues[0] <= 1e-9
        # 4 passes of BLOCK rows when this bound was set; more is a slowdown
        assert res.path == "block"
        assert res.applications <= 4 * eigen.BLOCK

    @pytest.mark.parametrize(
        "curve, k, sigma",
        [("circle", 3, 0.33), ("half-circle", 2, np.sqrt(0.05)), ("cardioid", 2, np.sqrt(0.02))],
    )
    def test_laplacians_match_dense_oracle(self, monkeypatch, curve, k, sigma):
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        x, _ = generate(CurveSpec(curve), 400, 8)
        lap = build_laplacian(build_kernel(x, KernelParams(sigma)))
        w, v = np.linalg.eigh(unpack(lap.l))
        res = smallest_eigenpairs(lap, k=k)
        assert res.path == "block"
        assert np.abs(res.eigenvalues - w[:k]).max() <= 1e-10
        assert principal_angle(res.eigenvectors, v[:, :k]) <= 1e-6

    def test_basis_reaching_n_solves_the_whole_space(self, monkeypatch):
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        a = np.random.default_rng(0).standard_normal((40, 40))
        a = a + a.T
        w = np.linalg.eigvalsh(a)
        res = smallest_eigenpairs(laplacian_of(a), k=10)
        assert res.applications == 40  # blocks of 12, 12, 12 and 4 rows
        assert np.abs(res.eigenvalues - w[:10]).max() <= 1e-10 * np.abs(w).max()

    def test_block_that_loses_rank_is_redrawn(self, monkeypatch):
        # eigenvalues 0 (three times) and 1: the second block, the image of
        # the first, adds 3 directions, and its other 9 rows are redrawn
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((100, 100)))
        p = q[:, 3:] @ q[:, 3:].T
        a = (p + p.T) / 2.0
        res = smallest_eigenpairs(laplacian_of(a), k=3)
        assert res.applications == 2 * eigen.BLOCK
        assert np.abs(res.eigenvalues).max() <= 1e-12
        assert principal_angle(res.eigenvectors, q[:, :3]) <= 1e-6
        gram = res.eigenvectors.T @ res.eigenvectors
        assert np.abs(gram - np.eye(3)).max() <= 1e-12

    def test_more_pairs_than_a_block_when_the_first_block_is_exact(self, monkeypatch):
        # every vector is an eigenvector of 2I: k = 20 > BLOCK widens the
        # block to 20 rows, whose Ritz pairs are exact after one pass
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        res = smallest_eigenpairs(laplacian_of(2.0 * np.eye(100)), k=20)
        assert res.applications == 20
        assert np.abs(res.eigenvalues - 2.0).max() <= 1e-14

    def test_eigenvalue_repeated_more_often_than_a_block(self, monkeypatch):
        # eigenvalue 0 twenty times and 1 eighty times: a Krylov space of
        # 12 start rows holds only 12 zeros, one of k = 15 rows holds 15
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((100, 100)))
        p = q[:, 20:] @ q[:, 20:].T
        res = smallest_eigenpairs(laplacian_of((p + p.T) / 2.0), k=15)
        assert res.path == "block"
        assert np.abs(res.eigenvalues).max() <= 1e-12
        assert np.abs(q[:, 20:].T @ res.eigenvectors).max() <= 1e-10  # in the null space

    def test_redrawn_rows_are_orthonormal_and_orthogonal_to_the_basis(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.standard_normal((50, 6)))[0].T
        block = np.vstack([3.0 * basis[:2], rng.standard_normal((2, 50))])
        block = np.vstack([block, block[2] - block[3], np.zeros(50)])
        out = eigen._orthonormal(block, basis, np.random.default_rng(0))
        assert out.shape == (6, 50)
        assert np.abs(out @ out.T - np.eye(6)).max() <= 1e-12
        assert np.abs(out @ basis.T).max() <= 1e-12


def noisy_laplacian(curve: str, n: int, snr: float, sigma: float | None = None, seed: int = 0):
    """L of a noisy sample at ``sigma``, or at the auto bandwidth when None."""
    spec = CurveSpec(curve)
    x, _ = generate(spec, n, seed)
    params = select_bandwidth(n, kind=spec.kind) if sigma is None else KernelParams(sigma)
    return build_laplacian(build_kernel(noise_for_snr(x, snr, seed + 1), params))


class TestPathByInput:
    """At N <= DENSE_CUTOFF the probe picks the path from the solve's own
    Ritz values: the block path on a well-separated spectrum, the factor on
    a clustered one."""

    @pytest.mark.parametrize("curve, k", [("circle", 3), ("half-circle", 2)])
    def test_separated_spectrum_takes_the_block_path(self, curve, k):
        res = smallest_eigenpairs(noisy_laplacian(curve, 2000, 100.0), k=k)
        assert res.path == "block"

    @pytest.mark.parametrize("snr", [100.0, 1000.0])
    def test_clustered_cardioid_takes_the_factor(self, snr):
        res = smallest_eigenpairs(noisy_laplacian("cardioid", 2000, snr, 0.1414), k=2)
        assert res.path == "dense"

    def test_indefinite_input_takes_the_block_path(self):
        # theta_1 <= -SHIFT after the probe: A + SHIFT*I has no factor to try
        a = np.random.default_rng(7).standard_normal((300, 300))
        a = (a + a.T) / 2.0
        res = smallest_eigenpairs(laplacian_of(a), k=3)
        assert res.path == "block"
        assert_matches_eigh(res, a, 3)

    @pytest.mark.parametrize("curve, k, sigma", [("circle", 3, None), ("cardioid", 2, 0.1414)])
    def test_forced_paths_agree_within_the_certificate(self, monkeypatch, curve, k, sigma):
        lap = noisy_laplacian(curve, 1000, 100.0, sigma)
        before = lap.l.data.copy()
        found = {}
        for path, pays in (("dense", True), ("block", False)):
            with monkeypatch.context() as m:
                m.setattr(eigen, "_factor_pays", lambda theta, k, width: pays)
                a = smallest_eigenpairs(lap, k=k)
                b = smallest_eigenpairs(lap, k=k)
            assert a.path == b.path == path
            for field in ("eigenvalues", "eigenvectors", "residuals"):
                assert same_bits(getattr(a, field), getattr(b, field))
            assert same_bits(lap.l.data, before)
            found[path] = a
        dense, block = found["dense"], found["block"]
        # each eigenvalue lies within its residual of one of A's
        assert (np.abs(dense.eigenvalues - block.eigenvalues)
                <= dense.residuals + block.residuals).all()


class TestMoreThanAQuarterOfThePairs:
    """k > N/4 solves on the block path, whose basis reaches N rows and
    hands its Ritz pairs to the certificate."""

    @pytest.mark.parametrize("n, sigma, k, snr", [
        (60, 0.3, 16, None), (100, 0.4, 26, None), (200, 0.3, 51, None),
        (1000, 0.3, 251, 100.0), (2000, 0.3, 501, 100.0),
    ])
    def test_circle_certifies_on_the_block_path(self, n, sigma, k, snr):
        lap = circle_laplacian(n, sigma) if snr is None else noisy_laplacian("circle", n, snr, sigma)
        res = smallest_eigenpairs(lap, k=k)
        assert res.path == "block" and res.applications == n
        # k pairs, each certified, with orthonormal vectors and the k smallest
        # eigenvalues within ||residuals||_F of numpy's (the k-th and k+1-th
        # are 6e-11 apart at N=200, so the k-space itself is not pinned);
        # a basis that reaches N keeps orthonormal rows to rounding (a
        # single QR after the projections left 2.2e-9 at N=200, k=51 and
        # 2.6e-9 at N=1000, k=251)
        w = np.linalg.eigvalsh(unpack(lap.l))
        assert np.abs(res.eigenvalues - w[:k]).max() <= np.linalg.norm(res.residuals)
        assert np.abs(res.eigenvectors.T @ res.eigenvectors - np.eye(k)).max() <= 1e-13
        if n <= 100:
            assert_matches_eigh(res, unpack(lap.l), k)

    def test_whole_space_residual_is_judged_by_the_certificate(self, monkeypatch):
        # the whole-space Ritz residual r is what rounding leaves; a target
        # that puts r between half the bound and the bound returns the
        # pairs, and one that puts it above the bound raises
        lap = circle_laplacian(200, sigma=0.3)
        values, vectors, applied = _block_smallest(lap.l.apply, 200, 51, 51, 1e-300)
        assert applied == 200
        r = np.linalg.norm(vectors.T @ unpack(lap.l) - vectors.T * values[:, None], axis=1).max()
        scale = max(1.0, np.abs(values).max())
        monkeypatch.setattr(eigen, "DEFAULT_TOL", 1.5 * r / scale)
        res = smallest_eigenpairs(lap, k=51)
        assert res.path == "block" and res.applications == 200
        assert 0.5 * 1.5 * r < res.residuals.max() <= 1.5 * r
        monkeypatch.setattr(eigen, "DEFAULT_TOL", 0.5 * r / scale)
        with pytest.raises(NoConvergenceError, match="exceeds"):
            smallest_eigenpairs(lap, k=51)


@pytest.fixture(scope="module")
def circle_2100():
    return circle_laplacian(2100, seed=5)


class TestBlockPathContracts:
    """Above the cutoff: reproducible bits, L untouched, O(N) extra memory."""

    def test_two_calls_return_the_same_bits(self, circle_2100):
        a = smallest_eigenpairs(circle_2100, k=3)
        b = smallest_eigenpairs(circle_2100, k=3)
        assert a.path == "block"
        for field in ("eigenvalues", "eigenvectors", "residuals"):
            assert same_bits(getattr(a, field), getattr(b, field))
        assert a.applications == b.applications

    def test_laplacian_unchanged_after_return(self, circle_2100):
        before = circle_2100.l.data.copy()
        smallest_eigenpairs(circle_2100, k=3)
        assert same_bits(circle_2100.l.data, before)

    def test_allocates_less_than_a_quarter_of_the_matrix(self, circle_2100):
        n = circle_2100.n
        tracemalloc.start()
        try:
            res = smallest_eigenpairs(circle_2100, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.path == "block"
        assert peak < n * n * 8 / 4


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestInPlaceFactor:
    """The dense path factors a LaplacianMatrix into a packed matrix of its
    own and leaves L as it was, bit for bit, however the solve ends."""

    @pytest.fixture
    def lap(self):
        # sigma well below the loop's diameter: the kernel clamps far pairs
        # at its exponent floor, and those entries of L are set to -0.0, which
        # a write to L would be likely to turn into 0.0
        lap = circle_laplacian(300, sigma=0.05, seed=4)
        data = lap.l.data
        data[np.abs(data) < 1e-300] = -0.0
        assert np.signbit(data[data == 0.0]).any()
        return lap

    def test_allocates_one_packed_factor_and_less_than_a_quarter_more(self):
        # a clustered spectrum, which the probe hands to the factor; the
        # probe's buffers are freed before the factor allocates its packed
        # matrix, of L's size
        n = 2000
        x, _ = generate(CurveSpec("cardioid"), n, 5)
        lap = build_laplacian(build_kernel(x, KernelParams(0.1414)))
        tracemalloc.start()
        try:
            res = smallest_eigenpairs(lap, k=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n <= eigen.DENSE_CUTOFF and res.path == "dense"
        assert peak < lap.l.data.nbytes + n * n * 8 / 4

    def test_laplacian_unchanged_after_return(self, lap):
        before = lap.l.data.copy()
        assert smallest_eigenpairs(lap, k=3).path == "dense"
        assert same_bits(lap.l.data, before)

    def test_two_dense_solves_return_the_same_bits(self, lap):
        # the second solve factors the L the first one read
        res = smallest_eigenpairs(lap, k=3)
        ref = smallest_eigenpairs(lap, k=3)
        assert res.path == ref.path == "dense" and res.applications == ref.applications
        for field in ("eigenvalues", "eigenvectors", "residuals"):
            assert same_bits(getattr(res, field), getattr(ref, field))

    def test_laplacian_unchanged_after_failed_factor(self, factor_first):
        a = np.random.default_rng(3).standard_normal((300, 300))
        a = (a + a.T) / 2.0  # bit-exactly symmetric and indefinite
        lap = laplacian_of(a)
        with pytest.raises(NoConvergenceError, match="no graph Laplacian"):
            smallest_eigenpairs(lap, k=3)
        assert same_bits(unpack(lap.l), a)

    def test_laplacian_unchanged_after_no_convergence(self, monkeypatch, lap):
        # an unreachable target spends the budget of PASSES_PER_PAIR * k
        # passes of k rows on the factor, then raises
        monkeypatch.setattr(eigen, "DEFAULT_TOL", 1e-300)
        before = lap.l.data.copy()
        with pytest.raises(NoConvergenceError) as err:
            smallest_eigenpairs(lap, k=3)
        assert err.value.applications == eigen.PASSES_PER_PAIR * 3 * 3
        assert same_bits(lap.l.data, before)

    def test_concurrent_solves_share_one_laplacian(self, factor_first, lap):
        # four threads, more than the cores, solve one L on the dense and the
        # block path at once; L is only read, so each solve certifies its
        # pairs and L stays as it was
        before = lap.l.data.copy()
        results, interval = [], sys.getswitchinterval()

        def solve():
            results.append(smallest_eigenpairs(lap, k=3))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, daemon=True) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 4
        serial = smallest_eigenpairs(lap, k=3)
        for res in results:
            assert res.path == "dense" and res.residuals.max() <= eigen.DEFAULT_TOL
            assert np.abs(res.eigenvalues - serial.eigenvalues).max() <= 1e-10
        assert same_bits(lap.l.data, before)


class TestSpentBudget:
    """A block iteration that spends its budget with theta_1 > -SHIFT
    factors the Laplacian in place instead of raising, at any N; one with
    theta_1 <= -SHIFT, which has no factor, raises."""

    @pytest.fixture
    def clustered(self, monkeypatch):
        # eigenvalues 2 (i/N)^4: the block iteration on A spends its budget
        # at k=2; no probe runs, so the spent budget is the only hand-over
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 16)
        n = 300
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
        a = (q * (2.0 * (np.arange(n) / n) ** 4)) @ q.T
        return (a + a.T) / 2.0

    def test_owned_laplacian_is_factored(self, clustered):
        lap = laplacian_of(clustered)
        res = smallest_eigenpairs(lap, k=2)
        assert res.path == "dense" and same_bits(unpack(lap.l), clustered)
        # the spent block applications are not counted
        assert res.applications == eigen._dense_smallest(pack(clustered), 2)[2]
        assert_matches_eigh(res, clustered, 2)

    def test_eigenvalue_below_minus_shift_raises(self, clustered):
        lap = laplacian_of(clustered - 2.0 * SHIFT * np.eye(300))
        with pytest.raises(NoConvergenceError, match="Ritz residual") as err:
            smallest_eigenpairs(lap, k=2)
        assert err.value.applications == eigen.PASSES_PER_PAIR * 2 * eigen.BLOCK

    def test_slow_cardioid_past_the_cutoff_certifies_on_the_factor(self):
        # the N=2000 case certifies on the factor through the probe; at
        # N=2100 no probe runs and the block path spends its 2400 applications
        lap = noisy_laplacian("cardioid", 2100, 100.0, 0.0632, seed=16)
        res = smallest_eigenpairs(lap, k=2)
        assert lap.n > eigen.DENSE_CUTOFF and res.path == "dense"
        assert res.eigenvalues[0] <= 1e-12 < res.eigenvalues[1]


def spd_with_signed_zeros(n: int, seed: int = 0) -> np.ndarray:
    """A well-conditioned, bit-exactly symmetric positive definite matrix
    with -0.0 entries in both triangles."""
    g = np.random.default_rng(seed).standard_normal((n, n))
    a = g @ g.T / n + np.eye(n)
    a = (a + a.T) / 2.0
    a[np.abs(a) < 0.05] = -0.0
    return a


def undo_inverted_blocks(u) -> np.ndarray:
    """The upper factor U of the packed matrix _factor returns, with each
    stored diagonal-block inverse inverted back."""
    out = np.zeros(u.shape)
    for rows, strip in u.strips:
        out[rows, rows.start:] = strip
        out[rows, rows] = np.linalg.inv(strip[:, : rows.stop - rows.start])
    return out


class TestBlockedFactor:
    """The dense path's Cholesky factor of A + SHIFT*I, built from numpy one
    packed strip at a time, against scipy's LAPACK factor; A is only read."""

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_matches_scipy_cholesky(self, n):
        a = spd_with_signed_zeros(n)
        packed = pack(a)
        before = packed.data.copy()
        u = eigen._factor(packed)
        assert np.abs(undo_inverted_blocks(u) - cholesky(a + SHIFT * np.eye(n))).max() <= 1e-13
        assert same_bits(packed.data, before)

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_solve_inverts_the_factored_matrix(self, n):
        a = spd_with_signed_zeros(n)
        u = eigen._factor(pack(a))
        rows = np.random.default_rng(1).standard_normal((3, n))
        out = np.empty_like(rows)
        eigen._solve(u, rows, out)
        assert np.abs(out @ (a + SHIFT * np.eye(n)) + rows).max() <= 1e-12

    def test_indefinite_later_block_raises_and_laplacian_comes_back(self):
        n = 300
        a = spd_with_signed_zeros(n)
        a[280, 280] = -1.0  # only the third diagonal block is indefinite
        packed = pack(a)
        before = packed.data.copy()
        with pytest.raises(np.linalg.LinAlgError):
            eigen._factor(packed)
        assert same_bits(packed.data, before)
        # the probe hands it to the factor, which fails there too: refused,
        # with l as it was
        lap = laplacian_of(a)
        with pytest.raises(NoConvergenceError, match="SHIFT"):
            smallest_eigenpairs(lap, k=2)
        assert same_bits(lap.l.data, before)


@pytest.mark.parametrize("curve, k", [("circle", 3), ("half-circle", 2)])
def test_packed_laplacian_at_3000_matches_scipy_eigh(curve, k):
    # the block path's pairs against LAPACK's of the unpacked L: each
    # eigenvalue within the residuals' norm of LAPACK's, and the eigenspace
    # within the Davis-Kahan angle that norm allows over the gap above it
    lap = noisy_laplacian(curve, 3000, 100.0)
    res = smallest_eigenpairs(lap, k=k)
    w, v = eigh(unpack(lap.l), subset_by_index=[0, k])
    spread = np.linalg.norm(res.residuals)
    assert res.path == "block"
    assert res.residuals.max() <= eigen.DEFAULT_TOL * max(1.0, np.abs(w).max())
    assert np.abs(res.eigenvalues - w[:k]).max() <= spread
    u = res.eigenvectors
    sin_angle = np.linalg.norm(u - v[:, :k] @ (v[:, :k].T @ u), 2)  # accurate at small angles
    assert sin_angle <= spread / (w[k] - w[k - 1] - spread) + 1e-12  # 1e-12: LAPACK's own error
