"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the implementations under test: the circular
time alignment is minimized over an explicit theta grid, the ranking
alignment enumerates every (reflection, shift, modular term) combination
with plain loops or with full N x N shift tables, the kernel matrix
is assembled from scipy's pairwise distances, the Laplacian is one
whole-matrix product with outer(c, c), a packed symmetric matrix is
packed and unpacked by plain slicing of its strips, the serialrank
baseline is
the Fiedler vector of its similarity Laplacian from LAPACK, and the
arccos half of the open-curve label map is its formula alone.
"""

import numpy as np
from scipy.linalg import eigh
from scipy.spatial.distance import pdist, squareform

from spectime.kernel import PackedSymmetric

TWO_PI = 2.0 * np.pi


def closed_time_grid(t, t2, grid_size=1_000_000, chunk=100_000):
    """min over r, theta-grid of max_i |[r t_i + theta - t2_i]_2pi|.

    With base = r t - t2 reduced into [0, 2pi) once, x = base + theta lies
    in [0, 4pi), where the circular distance |[x]_2pi| is
    pi - |pi - |x - 2pi||: no per-element modulo over the grid."""
    t = np.asarray(t, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    shifted = np.arange(grid_size) * (TWO_PI / grid_size) - TWO_PI  # theta - 2pi
    buf = np.empty((t.size, min(chunk, grid_size)))  # points x grid chunk
    best = np.inf
    for r in (1.0, -1.0):
        base = np.mod(r * t - t2, TWO_PI)
        for start in range(0, grid_size, chunk):
            th = shifted[start : start + chunk]
            x = buf[:, : th.size]
            np.add(base[:, None], th[None, :], out=x)
            np.abs(x, out=x)
            np.subtract(np.pi, x, out=x)
            np.abs(x, out=x)
            # max_i (pi - x_i) = pi - min_i x_i
            best = min(best, np.pi - x.min(axis=0).max())
    return float(best)


def closed_rank_exhaustive(ranks, ranks2):
    """Plain-loop enumeration of the shift/reflection rank distance."""
    n = len(ranks)
    best = np.inf
    for branch in (list(ranks), [n - v for v in ranks]):
        for shift in range(n):
            worst = 0.0
            for i in range(n):
                d = branch[i] + shift - ranks2[i]
                worst = max(worst, min(abs(d), abs(d - n), abs(d + n)))
            best = min(best, worst / n)
    return float(best)


def comparison_sort(values):
    """Selection sort returning the sorting permutation, ties by index."""
    values = list(values)
    remaining = list(range(len(values)))
    order = []
    while remaining:
        best = remaining[0]
        for idx in remaining[1:]:
            if values[idx] < values[best]:
                best = idx
        order.append(best)
        remaining.remove(best)
    return order


def closed_rank_shift_table(ranks, ranks2):
    """(error, r, shift) of the closed-loop rank distance from full N x N
    shift tables: every shift, both reflections, first minimizing shift."""
    r1 = np.asarray(ranks, dtype=np.int64)
    r2 = np.asarray(ranks2, dtype=np.int64)
    n = r1.size
    shifts = np.arange(n, dtype=np.int64)[:, None]
    best = None
    for refl, base in ((1, r1), (-1, n - r1)):
        d = base[None, :] + shifts - r2[None, :]
        cost = np.minimum(np.abs(d), np.minimum(np.abs(d - n), np.abs(d + n)))
        worst = cost.max(axis=1)
        j = int(np.argmin(worst))
        err = float(worst[j]) / n
        if best is None or err < best[0]:
            best = (err, refl, j)
    return best


def gaussian_kernel_pdist(values, sigma):
    """Kernel matrix assembled from scipy's condensed squared distances,
    exponentiated and mirrored by ``squareform``, prefactor on the diagonal."""
    pref = 1.0 / (np.sqrt(2.0 * np.pi) * sigma)
    sq = pdist(np.asarray(values, dtype=float).T, metric="sqeuclidean")
    k = squareform(pref * np.exp(-sq / (2.0 * sigma**2)))
    np.fill_diagonal(k, pref)
    return k


def laplacian_outer_product(k, c):
    """L = I - outer(c, c) * K for the scale vector c = D^-1 D~^-1/2."""
    lap = -(np.outer(c, c) * k)
    np.fill_diagonal(lap, 1.0 + lap.diagonal())
    return lap


def pack(a):
    """The PackedSymmetric of the symmetric array a: each strip copied from
    a's rows from the diagonal on, its diagonal block's part below the
    diagonal then copied from the part above."""
    a = np.asarray(a, dtype=float)
    p = PackedSymmetric(a.shape[0])
    for rows, strip in p.strips:
        strip[...] = a[rows, rows.start:]
        block = strip[:, : rows.stop - rows.start]
        block[...] = np.triu(block) + np.triu(block, 1).T
    return p


def unpack(p):
    """The N x N array of a PackedSymmetric: each strip's rows from the
    diagonal on, and their transpose below; each diagonal block comes out
    transposed, so the array is symmetric only if every block is."""
    a = np.empty(p.shape)
    for rows, strip in p.strips:
        a[rows, rows.start:] = strip
        a[rows.start:, rows] = strip.T
    return a


def comparison_signs(norms):
    """The N x N comparison matrix C(i,j) = sign(norms[j] - norms[i])."""
    return np.sign(norms[None, :] - norms[:, None])


def serialrank_fiedler(c):
    """SerialRank by eigendecomposition: argsort of the Fiedler vector of
    D - S with the match-count similarity S = (N + C C^T) / 2."""
    mat = np.asarray(c, dtype=float)
    n = mat.shape[0]
    s = (n + mat @ mat.T) / 2.0
    lap = np.diag(s.sum(axis=1)) - s
    fiedler = eigh(lap, subset_by_index=[0, 1])[1][:, 1]
    return np.argsort(fiedler, kind="stable")


def open_arccos_labels(f):
    """2 arccos(sqrt(N) f / (sqrt 2 ||f||)), clamped into [-1, 1] first,
    and the number of entries the clamp moved."""
    arg = np.sqrt(f.size) * np.asarray(f, dtype=float) / (np.sqrt(2.0) * np.linalg.norm(f))
    return 2.0 * np.arccos(np.clip(arg, -1.0, 1.0)), int(np.count_nonzero(np.abs(arg) > 1.0))
