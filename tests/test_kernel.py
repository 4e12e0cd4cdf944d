import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spectime import (
    CurveKind,
    DataMatrix,
    KernelParams,
    build_kernel,
    build_laplacian,
    generate,
    noise_for_snr,
    noisy_sample,
    recover_labels,
    select_bandwidth,
    smallest_eigenpairs,
    CurveSpec,
)
from spectime import kernel
from spectime.errors import DisconnectedGraphError
from spectime.kernel import (
    STRIP,
    KernelMatrix,
    PackedSymmetric,
    _upper_strips,
    exponent_floor,
    symmetric_product,
)

from oracles import gaussian_kernel_pdist, laplacian_outer_product, pack, unpack

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def assert_degrees(km):
    """Each degree within N eps d_i of the exact row sum of K."""
    k = unpack(km.k)
    exact = np.array([math.fsum(row) for row in k])
    assert np.all(np.abs(km.degrees - exact) <= k.shape[0] * np.finfo(np.float64).eps * exact)


def assert_symmetric_laplacian(km):
    """L, built over km.k, equals its transpose bit for bit, its diagonal
    blocks included."""
    lap = unpack(build_laplacian(km).l)
    assert np.array_equal(lap, lap.T)


class TestGaussianKernel:
    """The pair formula, read off ``build_kernel`` entries."""

    def test_zero_distance(self):
        z = DataMatrix(np.array([[1.0, 1.0], [2.0, 2.0]]))
        v = unpack(build_kernel(z, KernelParams(1.0)).k)[0, 1]
        assert v == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_unit_sigma_sqrt2_distance(self):
        # ||x - y|| = sqrt(2) so the exponent is -1
        z = DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        v = unpack(build_kernel(z, KernelParams(1.0)).k)[0, 1]
        assert v == pytest.approx(math.exp(-1.0) * INV_SQRT_2PI, abs=1e-15)

    def test_symmetry_random_pairs(self):
        x = np.random.default_rng(0).standard_normal((3, 100))
        km = build_kernel(DataMatrix(x), KernelParams(0.7))
        assert np.abs(unpack(km.k) - gaussian_kernel_pdist(x, 0.7)).max() <= 1e-14
        assert_symmetric_laplacian(km)


class TestBuildKernel:
    def test_identical_points(self):
        z = DataMatrix(np.zeros((2, 2)))
        km = build_kernel(z, KernelParams(1.0))
        assert np.allclose(unpack(km.k), INV_SQRT_2PI)
        assert np.allclose(km.degrees, 2 * INV_SQRT_2PI)

    def test_collinear_ratio(self):
        z = DataMatrix(np.array([[0.0, 1.0, 2.0]]))
        km = build_kernel(z, KernelParams(1.0))
        k = unpack(km.k)
        assert k[0, 2] / k[0, 1] == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_degrees_dominate_self_term(self):
        rng = np.random.default_rng(1)
        km = build_kernel(DataMatrix(rng.standard_normal((3, 20))), KernelParams(0.5))
        assert np.all(km.degrees >= km.k.diagonal())

    def test_bit_exact_symmetry(self):
        rng = np.random.default_rng(2)
        km = build_kernel(DataMatrix(rng.standard_normal((4, 50))), KernelParams(0.8))
        assert_symmetric_laplacian(km)

    @pytest.mark.parametrize("d", [2, 300])
    @pytest.mark.parametrize("offset", [0.0, 100.0])
    def test_matches_pdist_oracle(self, d, offset):
        # The Gram form (n_i + n_j) - 2 G_ij loses about eps * (n_i + n_j)
        # of the squared distance to cancellation; an offset of 100 inflates
        # the norms 1e4-fold, so the bound scales with them.
        rng = np.random.default_rng(10 + d)
        x = rng.standard_normal((d, 600)) / math.sqrt(d) + offset
        sigma = 0.5
        k = unpack(build_kernel(DataMatrix(x), KernelParams(sigma)).k)
        oracle = gaussian_kernel_pdist(x, sigma)
        eps = np.finfo(np.float64).eps
        sq_tol = 64 * eps * 2 * float((x * x).sum(axis=0).max())
        pref = 1.0 / (math.sqrt(2 * math.pi) * sigma)
        assert np.all(np.abs(k - oracle) <= oracle * sq_tol / (2 * sigma**2) + 8 * eps * pref)

    def test_bit_exact_symmetry_blocked_gram(self):
        # large enough that BLAS splits the Gram product into blocks
        rng = np.random.default_rng(11)
        km = build_kernel(DataMatrix(rng.standard_normal((300, 600))), KernelParams(20.0))
        assert_symmetric_laplacian(km)

    @pytest.mark.parametrize("d", [2, 300])
    def test_coincident_points_at_distance_zero(self, d):
        # the Gram form leaves rounding residue where pdist gives exactly 0;
        # at sigma = 1e-4 a residue of 1e-24 would already move k below its
        # prefactor, so k equal to it means a distance of exactly 0
        rng = np.random.default_rng(12)
        x = rng.standard_normal((d, 200))
        x = np.hstack([x, x])
        for sigma in (1.0, 1e-4):
            km = build_kernel(DataMatrix(x), KernelParams(sigma))
            pref = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
            assert np.all(unpack(km.k)[np.arange(200), np.arange(200, 400)] == pref)
            assert np.all(km.k.diagonal() == pref)

    def test_diagonal_is_prefactor(self):
        sigma = 0.37
        km = build_kernel(DataMatrix(np.random.default_rng(3).standard_normal((2, 10))),
                          KernelParams(sigma))
        assert np.allclose(km.k.diagonal(), 1.0 / (math.sqrt(2 * math.pi) * sigma))


class TestStrips:
    """The kernel is built one packed strip of the upper triangle at a
    time, and the degrees are summed over the strips; N = 1500 spans 12
    strips, the last one partial."""

    def test_strip_layout(self):
        # 12 strips tile the flat buffer in order, each of STRIP rows but the
        # last, from its diagonal on
        a = PackedSymmetric(1500)
        assert a.shape == (1500, 1500) and len(a.strips) == 12
        at = 0
        for i, (rows, strip) in enumerate(a.strips):
            assert rows == slice(i * STRIP, min((i + 1) * STRIP, 1500))
            assert strip.shape == (rows.stop - rows.start, 1500 - rows.start)
            assert strip.flags.c_contiguous and strip.ctypes.data == a.data[at:].ctypes.data
            at += strip.size
        assert at == a.data.size and a.strips[-1][0].stop == 1500

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1500, 3001])
    def test_buffer_holds_half_the_matrix(self, n):
        # the upper triangle and the diagonal blocks' lower parts, no more
        assert PackedSymmetric(n).data.size <= n * (n + 1) // 2 + n * STRIP

    def test_built_kernel_and_laplacian_are_n_by_n_and_packed(self):
        n = 1500
        km = build_kernel(DataMatrix(np.random.default_rng(25).standard_normal((2, n))),
                          KernelParams(0.3))
        assert km.k.shape == (n, n)
        lap = build_laplacian(km)
        assert lap.l.shape == (n, n) and lap.n == n
        assert lap.l.data.size <= n * (n + 1) // 2 + n * STRIP

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_apply_matches_the_dense_product(self, n):
        # rows given C-ordered and as the transpose of an (n, w) array, as
        # the eigensolver's certificate passes its vectors
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        a = pack(g + g.T)
        dense = unpack(a)
        for rows in (rng.standard_normal((12, n)), rng.standard_normal((n, 3)).T):
            out = np.full(rows.shape, np.nan)
            a.apply(rows, out)
            assert np.abs(out - rows @ dense).max() <= 1e-12 * max(1.0, np.abs(dense).max()) * n

    @pytest.mark.parametrize("d", [1, 2, 300])
    @pytest.mark.parametrize("n", [2, 3, 1500])
    def test_strip_boundaries(self, d, n):
        rng = np.random.default_rng(20 + d + n)
        x = rng.standard_normal((d, n)) / math.sqrt(d)
        h = n // 2  # columns i and i + h coincide: in different strips at N = 1500
        x[:, h : 2 * h] = x[:, :h]
        sigma = 0.5
        pref = 1.0 / (math.sqrt(2 * math.pi) * sigma)
        km = build_kernel(DataMatrix(x), KernelParams(sigma))
        eps = np.finfo(np.float64).eps
        oracle = gaussian_kernel_pdist(x, sigma)
        sq_tol = 64 * eps * 2 * float((x * x).sum(axis=0).max())
        k = unpack(km.k)
        assert np.all(np.abs(k - oracle) <= oracle * sq_tol / (2 * sigma**2) + 8 * eps * pref)
        assert_degrees(km)
        # at sigma = 1e-4 k equals its prefactor only at a distance of exactly 0
        tiny = 1e-4
        k0 = unpack(build_kernel(DataMatrix(x), KernelParams(tiny)).k)
        pref0 = 1.0 / (math.sqrt(2 * math.pi) * tiny)
        assert np.all(k0.diagonal() == pref0)
        i = np.arange(h)
        assert np.all(k[i, i + h] == pref) and np.all(k0[i, i + h] == pref0)
        assert_symmetric_laplacian(km)

    @pytest.mark.parametrize("n", [2000, 3001])
    def test_peak_memory_one_n_by_n_array(self, n):
        # the packed kernel, half an N x N array, plus the workers' chunk
        # buffers; at N = 3001 there are four strip groups, so their (G, N)
        # sums are live
        z = DataMatrix(np.random.default_rng(21).standard_normal((2, n)))
        tracemalloc.start()
        try:
            build_kernel(z, KernelParams(0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * (n + 1) // 2 + n * STRIP) + 3 * 2**20

    @pytest.mark.parametrize("n", [2000, 3001])
    @pytest.mark.parametrize("workers", [3, 16])
    def test_peak_memory_at_many_workers(self, monkeypatch, workers, n):
        # the workers' chunk buffers share one budget, so the bound holds at any W
        monkeypatch.setattr(kernel, "_worker_count", lambda n: workers)
        self.test_peak_memory_one_n_by_n_array(n)


class TestWorkers:
    """Every N x N pass runs on W worker threads; K's upper triangle, the
    degrees, L and D~^-1/2 must not depend on W at a fixed BLAS thread
    count, though the degrees and d~ add sums across strips."""

    @staticmethod
    def _outputs(x, monkeypatch, workers):
        monkeypatch.setattr(kernel, "_worker_count", lambda n: workers)
        km = build_kernel(DataMatrix(x), KernelParams(0.4))
        k, degrees = km.k.data.copy(), km.degrees
        lap = build_laplacian(km)
        return k, degrees, lap.l.data, lap.inv_sqrt_degrees

    @pytest.mark.parametrize("n, d", [(3001, 2), (1500, 300)])
    def test_bit_identical_across_worker_counts(self, monkeypatch, n, d):
        # 16 workers, more than the cores and the strip groups, with frequent
        # thread switches: each strip group belongs to one worker and adds its
        # strips in strip order, so a group split across workers or a strip
        # added out of order would change the sums' rounding
        x = np.random.default_rng(n + d).standard_normal((d, n)) / math.sqrt(d) + 0.3
        one = self._outputs(x, monkeypatch, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3, 16):
                for a, b in zip(one, self._outputs(x, monkeypatch, workers)):
                    assert np.array_equal(a, b)
        finally:
            sys.setswitchinterval(interval)

    def test_a_failing_strip_raises_and_leaves_no_worker_waiting(self, monkeypatch):
        # N = 3001 has four strip groups on three workers; strip 0 raises on
        # one worker while the others run their own groups' strips to the end,
        # and the call must raise once, not wait or return a partial sum
        monkeypatch.setattr(kernel, "_worker_count", lambda n: 3)

        def task(rows, strip, buf):
            if rows.start == 0:
                raise RuntimeError("strip 0")
            return buf[: 3001 - rows.stop]

        raised = []

        def call():
            try:
                kernel._strip_sums(PackedSymmetric(3001), task, np.float64)
            except RuntimeError as error:
                raised.append(error)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and len(raised) == 1

    def test_one_worker_per_32_mb_of_matrix(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert kernel._worker_count(2048) == 1
        assert kernel._worker_count(2897) == min(cpus, 2)
        assert kernel._worker_count(8000) == min(cpus, 15)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_after_parent_built_a_kernel(self, monkeypatch):
        # a pool kept past its call would leave the child threads that do not exist
        monkeypatch.setattr(kernel, "_worker_count", lambda n: 2)
        x = np.random.default_rng(22).standard_normal((2, 600))
        parent = build_kernel(DataMatrix(x), KernelParams(0.5)).k.data
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_kernel_into, args=(queue, x, 0.5))
        child.start()
        try:
            k = queue.get(timeout=60)  # drained before the join
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.terminate()
        assert not child.is_alive() and child.exitcode == 0
        assert np.array_equal(k, parent)


def _kernel_into(queue, x, sigma):
    queue.put(build_kernel(DataMatrix(x), KernelParams(sigma)).k.data)


class TestExponentFloor:
    """Exponents below F = ln(tiny N^2) + 1 are clamped at F, so neither K
    nor L holds a subnormal entry.  On the sweep's cardioid (N = 2000,
    sigma = 0.1414, SNR 100) about 2.5% of the pairs lie below F; the
    N = 2000 circle at ``"auto"`` sigma has no pair near it."""

    N = 2000
    SIGMA = 0.1414
    TINY = np.finfo(np.float64).tiny

    @pytest.fixture(scope="class")
    def cardioid(self):
        return noisy_sample(CurveSpec("cardioid"), self.N, 16, 100.0)[2]

    @staticmethod
    def _unfloored(z, sigma):
        """(upper-triangle exponents, K) of the kernel formula with no floor,
        step for step as the strip pass computes it."""
        sq = PackedSymmetric(z.n_points)
        _upper_strips(z.values, sq)
        exponents = unpack(sq) / (-2.0 * sigma**2)
        return exponents, np.exp(exponents) * (1.0 / (math.sqrt(2.0 * math.pi) * sigma))

    @classmethod
    def _subnormal(cls, a):
        return int(np.count_nonzero((a != 0.0) & (np.abs(a) < cls.TINY)))

    def test_k_and_l_hold_no_subnormal_entry(self, cardioid):
        km = build_kernel(cardioid, KernelParams(self.SIGMA))
        assert self._subnormal(km.k.data) == 0
        assert self._subnormal(build_laplacian(km).l.data) == 0
        _, unfloored = self._unfloored(cardioid, self.SIGMA)
        assert self._subnormal(unfloored) > 10_000  # what the floor removes

    def test_entries_at_or_above_the_floor_match_the_formula(self, cardioid):
        k = unpack(build_kernel(cardioid, KernelParams(self.SIGMA)).k)
        exponents, unfloored = self._unfloored(cardioid, self.SIGMA)
        upper = np.triu(np.ones((self.N, self.N), dtype=bool))
        kept = upper & (exponents >= exponent_floor(self.N))
        assert np.array_equal(k[kept], unfloored[kept])
        assert np.count_nonzero(upper & ~kept) > 10_000
        prefactor = 1.0 / (math.sqrt(2.0 * math.pi) * self.SIGMA)
        assert np.all(k[upper & ~kept] == np.exp(exponent_floor(self.N)) * prefactor)

    def test_eigenpairs_match_the_unfloored_laplacian(self, cardioid):
        km = build_kernel(cardioid, KernelParams(self.SIGMA))
        _, unfloored = self._unfloored(cardioid, self.SIGMA)
        degrees = symmetric_product(pack(unfloored), np.ones(self.N))
        assert np.array_equal(degrees, km.degrees)  # the clamped entries are far below ulp(d_i)
        pairs = [smallest_eigenpairs(build_laplacian(m), 2)
                 for m in (km, KernelMatrix(pack(unfloored), degrees, self.SIGMA))]
        assert pairs[0].path == pairs[1].path == "dense"
        assert pairs[0].applications == pairs[1].applications
        assert np.array_equal(pairs[0].eigenvalues, pairs[1].eigenvalues)
        assert np.array_equal(pairs[0].eigenvectors, pairs[1].eigenvectors)

    def test_circle_at_auto_sigma_equals_the_unfloored_formula(self):
        _, _, z = noisy_sample(CurveSpec("circle"), self.N, 0, 100.0)
        sigma = select_bandwidth(self.N, kind=CurveKind.CLOSED_LOOP).sigma
        k = unpack(build_kernel(z, KernelParams(sigma)).k)
        exponents, unfloored = self._unfloored(z, sigma)
        assert exponents.min() > exponent_floor(self.N)
        assert np.array_equal(k, unfloored)


class TestBuildLaplacian:
    def test_two_identical_points(self):
        km = build_kernel(DataMatrix(np.zeros((2, 2))), KernelParams(1.0))
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(unpack(build_laplacian(km).l), expected, atol=1e-15)

    def test_closed_positive_semidefinite(self):
        x, _ = generate(CurveSpec("circle"), 60, 5)
        lap = build_laplacian(build_kernel(x, KernelParams(0.6)))
        assert np.linalg.eigvalsh(unpack(lap.l)).min() >= -1e-10

    def test_open_half_circle_smallest_eigenvalue_near_zero(self):
        # dense eigendecomposition oracle on 50 noiseless half-circle points
        x, _ = generate(CurveSpec("half-circle"), 50, 0)
        km = build_kernel(x, KernelParams(math.sqrt(0.05)))
        lap = build_laplacian(km)
        assert abs(np.linalg.eigvalsh(unpack(lap.l)).min()) <= 1e-10

    def test_open_null_vector_sqrt_density_normalized_degrees(self):
        rng = np.random.default_rng(10)
        km = build_kernel(DataMatrix(rng.standard_normal((3, 40))), KernelParams(0.9))
        # alpha = 1 kernel K~ = D^-1 K D^-1, formed explicitly as an oracle
        # before build_laplacian writes L over km.k
        d_tilde = (unpack(km.k) / np.outer(km.degrees, km.degrees)).sum(axis=1)
        lap = build_laplacian(km)
        v = np.sqrt(d_tilde)
        assert np.linalg.norm(unpack(lap.l) @ v) / np.linalg.norm(v) <= 1e-10
        assert np.allclose(lap.inv_sqrt_degrees, 1.0 / v, rtol=1e-12, atol=0.0)

    def test_open_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        km = build_kernel(DataMatrix(rng.standard_normal((2, 60))), KernelParams(0.6))
        lap = build_laplacian(km)
        assert np.linalg.eigvalsh(unpack(lap.l)).min() >= -1e-10

    def test_open_random_walk_eigenvector(self):
        # D~^-1/2 u is an eigenvector of the random-walk matrix D~^-1 K~
        rng = np.random.default_rng(12)
        km = build_kernel(DataMatrix(rng.standard_normal((2, 50))), KernelParams(0.7))
        k_tilde = unpack(km.k) / np.outer(km.degrees, km.degrees)  # read before L overwrites km.k
        lap = build_laplacian(km)
        w, u = np.linalg.eigh(unpack(lap.l))
        f = lap.inv_sqrt_degrees * u[:, 1]
        walk = k_tilde / k_tilde.sum(axis=1)[:, None]
        assert np.linalg.norm(walk @ f - (1.0 - w[1]) * f) <= 1e-10 * np.linalg.norm(f)

    def test_diagonal_below_one(self):
        rng = np.random.default_rng(6)
        km = build_kernel(DataMatrix(rng.standard_normal((2, 30))), KernelParams(0.5))
        assert np.all(build_laplacian(km).l.diagonal() < 1.0)


class TestOneBuffer:
    """``build_laplacian`` writes L over the kernel's own packed matrix, and
    its strips must reproduce the whole-matrix product."""

    def test_build_laplacian_writes_over_the_kernel(self):
        x, _ = generate(CurveSpec("circle"), 400, 13)
        km = build_kernel(noise_for_snr(x, 100.0, 14), KernelParams(0.3))
        degrees = km.degrees.copy()
        lap = build_laplacian(km)
        assert lap.l is km.k
        assert np.array_equal(km.degrees, degrees)

    def test_row_blocks_match_whole_matrix_product(self):
        # 1200 rows span 10 strips and several chunks of each, the last ones
        # partial; the oracle is given the implementation's c, whose sums run
        # in another order than a whole-matrix product's
        x, _ = generate(CurveSpec("circle"), 1200, 15)
        km = build_kernel(x, KernelParams(0.2))
        k, inv = unpack(km.k), 1.0 / km.degrees
        lap = build_laplacian(km)
        c = inv * lap.inv_sqrt_degrees
        assert np.allclose(c, inv / np.sqrt(inv * (k @ inv)), rtol=1e-13, atol=0.0)
        assert np.array_equal(unpack(lap.l), laplacian_outer_product(k, c))


class TestDisconnectedGraph:
    """A point whose off-diagonal kernel mass is lost to rounding has no
    neighbour; normalization must refuse rather than hand on a Laplacian
    with a spurious null space."""

    @pytest.mark.parametrize("kind", list(CurveKind))
    @pytest.mark.parametrize("sigma, isolated", [(1e-4, "300 of 300"), (0.01, "of 300")])
    def test_tiny_bandwidth_raises_before_eigensolve(self, kind, sigma, isolated):
        curve = "circle" if kind is CurveKind.CLOSED_LOOP else "half-circle"
        x, _ = generate(CurveSpec(curve), 300, 0)
        z = noise_for_snr(x, 100.0, 1)
        for build in (lambda: build_laplacian(build_kernel(z, KernelParams(sigma))),
                      lambda: recover_labels(z, kind, sigma)):
            with pytest.raises(DisconnectedGraphError, match=isolated) as info:
                build()
            assert f"sigma={sigma!r}" in str(info.value)

    def test_neighbour_mass_at_rounding_level_is_isolated(self):
        # the lone point's neighbour mass is about 2 eps of its degree:
        # nonzero, but within the N * eps rounding of the row sum
        z = DataMatrix(np.array([[0.0, 0.1, 0.942]]))
        km = build_kernel(z, KernelParams(0.1))
        self_term = km.k.diagonal()[2]
        assert 0.0 < km.degrees[2] - self_term <= 3 * np.finfo(np.float64).eps * km.degrees[2]
        with pytest.raises(DisconnectedGraphError, match="1 of 3"):
            build_laplacian(km)

    def test_weakly_connected_graph_accepted(self):
        # the lone point's neighbour weight exp(-18) is far above N * eps
        z = DataMatrix(np.array([[0.0, 0.1, 0.7]]))
        lap = build_laplacian(build_kernel(z, KernelParams(0.1)))
        assert np.all(lap.l.diagonal() < 1.0)


class TestInvariances:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 40))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        p = KernelParams(0.8)
        k1 = unpack(build_kernel(DataMatrix(x), p).k)
        k2 = unpack(build_kernel(DataMatrix(q @ x), p).k)
        assert np.abs(k1 - k2).max() <= 1e-10

    def test_joint_scaling_leaves_laplacians_invariant(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 35))
        c = 3.7
        l1 = unpack(build_laplacian(build_kernel(DataMatrix(x), KernelParams(0.5))).l)
        l2 = unpack(build_laplacian(build_kernel(DataMatrix(c * x), KernelParams(0.5 * c))).l)
        assert np.abs(l1 - l2).max() <= 1e-10
        # k * sigma itself is scale-invariant
        k1 = unpack(build_kernel(DataMatrix(x), KernelParams(0.5)).k) * 0.5
        k2 = unpack(build_kernel(DataMatrix(c * x), KernelParams(0.5 * c)).k) * (0.5 * c)
        assert np.abs(k1 - k2).max() <= 1e-10

    def test_laplacian_symmetry(self):
        rng = np.random.default_rng(9)
        lap = unpack(build_laplacian(build_kernel(DataMatrix(rng.standard_normal((2, 45))),
                                                  KernelParams(0.7))).l)
        assert np.abs(lap - lap.T).max() <= 1e-12 * max(1.0, np.abs(lap).max())
