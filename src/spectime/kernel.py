"""Gaussian-kernel similarity and the normalized graph Laplacian.

The similarity between points x, y is

    k(x, y) = (sqrt(2*pi) * sigma)^-1 * exp(-||x - y||^2 / (2 * sigma^2))

and the degree of point i is the full row sum of the kernel matrix,
self-term included.  Both topologies use one operator, the symmetric
form of the alpha = 1 diffusion-map kernel (Coifman & Lafon, 2006):
K~ = D^-1 K D^-1 divides out the sampling density, d~ are the row sums
of K~, S = D~^-1/2 K~ D~^-1/2 and L = I - S, which is positive
semidefinite with the exact null vector sqrt(d~).  The random-walk
eigenvector of K~ is D~^-1/2 u for an eigenvector u of S, so the
Fiedler vectors follow the curve's geometry rather than how the sample
is spread along it; L converges to the Laplace-Beltrami operator
whatever the sampling density.

``LaplacianMatrix.inv_sqrt_degrees`` keeps the D~^-1/2 of the
normalization, for mapping eigenvectors of S back.  A point whose
kernel row is its own self-term to rounding (off-diagonal degree at most
N * eps * d_i, as when sigma is far below the point spacing) has no
neighbour in the graph; normalization then raises
``DisconnectedGraphError`` instead of handing a degenerate operator to
the eigensolver.

K, D~ and L are symmetric, so only their upper triangle is read or
written until L is mirrored.  The kernel is built in one N x N buffer,
one strip of rows of that triangle at a time: a ``gemm`` writes the
strip's block of -2 G, G = V^T V the Gram product, in place, and
||v_i - v_j||^2 = (n_i + n_j) - 2 G_ij with n_i = ||v_i||^2, the
distance floor, the exponential and the prefactor follow, a chunk of the
strip's rows at a time, while the strip is in cache; the finished strip
then adds its share of the degrees.  ``build_laplacian`` writes L over
that same buffer, ``km.k``: one pass over the triangle sums d~, and one
pass of tile rows scales the triangle by -(c_i c_j) and copies each
scaled chunk onto the lower triangle while it is in cache, so L is
bit-exactly symmetric by construction.  The recovery path holds one
N x N array from the Gram product to the eigensolve, and a
``KernelMatrix`` no longer holds its kernel once its Laplacian is built.

An exponent -||v_i - v_j||^2 / (2 sigma^2) below F = ln(tiny * N^2) + 1
(``exponent_floor``, -692 at N = 2000) is clamped at F before ``exp``,
which keeps ``exp`` off its subnormal slow path (71 ns per entry against
0.5 ns, 2-core Xeon KVM box); an entry at or above F is the unfloored
formula's bit for bit.  With p = 1 / (sqrt(2 pi) sigma), d_i <= N p and
p / d_i^2 <= d~_i <= 1 / p, so build_laplacian's scale has
1 / (N^2 p) <= c_i c_j <= 1 / p: every entry of K is at least p e^F, so
no entry of L is subnormal (each is at least e^F / N^2 = e * tiny in
magnitude), and a clamped entry moves its L entry by less than
e^F = e * tiny * N^2, so ||dL||_2 < e * N^3 * tiny (4.8e-298 at
N = 2000).

Every N x N pass (the strips, the d~ sums, and the Laplacian's scale and
mirror) runs on W worker threads, W the number of CPUs
in the process's affinity mask (``taskset`` limits it) but at most one
per 32 MB of the matrix, so one at N <= 2048, where a second worker
gained nothing while the BLAS threads of the last product still spin;
numpy releases the interpreter lock in the ufuncs and in the strip
``gemm``.  Strips and tile rows shrink along the triangle, so jobs are
dealt round-robin.  The calling thread allocates the workers' chunk
buffers, about 0.6 MB split among them whatever W is (one row each at
the least), and the pool lives for one call, so a forked child starts
its own.  The strip heights are ``row_blocks``' whatever W is, and strip
i belongs to strip group i mod G, G set by N alone (two per worker there
can be).  The groups are the strip passes' jobs: each group belongs to
one worker, which runs its strips in strip order and adds each one's
share of a sum across strips (a degree's or a d~'s column part) to the
group's O(N) partial sums, and the groups are added in order
(``_strip_sums``).  The rest is elementwise, so K, the degrees, d~ and L
do not depend on W: the output is reproducible at a fixed BLAS thread
count; a different BLAS count can change the last bits of G, of the sums
and of the eigensolver's output.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, KernelParams
from .errors import DisconnectedGraphError


_BLOCK_ELEMENTS = 1 << 18  # row block of the N x N passes, 2 MB of float64
_CHUNK_ELEMENTS = 1 << 16  # the workers' chunk buffers together, 512 KB of float64
_TILE = 128  # side of the square tiles that mirror a triangle
_WORKER_ELEMENTS = 1 << 22  # entries per worker thread, 32 MB of float64; one at N <= 2048


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric N x N Gaussian similarity matrix K with its degree vector.

    ``k`` holds K on and above the diagonal; below it ``k`` is scratch,
    neither read nor defined (``build_kernel`` leaves part of each strip's
    diagonal block there).  ``build_laplacian`` writes L over ``k``."""

    k: np.ndarray
    degrees: np.ndarray
    sigma: float


@dataclass(frozen=True)
class LaplacianMatrix:
    """Symmetric normalized graph Laplacian L = I - S, the one input of
    ``eigen.smallest_eigenpairs``.  ``l`` is bit-exactly symmetric,
    writable and C-ordered: the dense eigensolve factors it in place and
    restores it, and refuses an ``l`` it may not write (see ``eigen``)."""

    l: np.ndarray
    sigma: float
    inv_sqrt_degrees: np.ndarray  # D~^-1/2 of S; random-walk vector = inv_sqrt_degrees * u

    @property
    def n(self) -> int:
        return self.l.shape[0]


def row_blocks(n: int, width: int | None = None, elements: int = _BLOCK_ELEMENTS):
    """Slices of consecutive rows of an n-row array of ``width`` columns
    (n by default), about ``elements`` entries (2 MB of float64) each."""
    rows = max(1, elements // (width or n))
    for start in range(0, n, rows):
        yield slice(start, start + rows)


def _worker_count(n: int, m: int | None = None) -> int:
    """W for a pass over an n x m array (n x n by default): the CPUs in
    this process's affinity mask, but no more than one per
    ``_WORKER_ELEMENTS`` entries."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n * (m or n) // _WORKER_ELEMENTS))


def _on_workers(task, jobs: list | range, shape: int | tuple[int, int], *dtypes) -> None:
    """Deal ``jobs``, parts of a pass over an n x n matrix (``shape`` n) or
    an n x m array (``shape`` (n, m)), round-robin to W threads: worker w
    calls task(jobs[w::W], *buffers) with its own buffer of each dtype.
    The buffers are allocated here, ``_CHUNK_ELEMENTS`` entries of each
    dtype split among the workers, or one row each if that is more, so the
    workers allocate nothing large and the total does not grow with W; the
    pool lives for this call only, and a worker's exception is raised here.
    One worker is the calling thread itself."""
    shape = (shape,) if isinstance(shape, int) else shape
    w = max(1, min(_worker_count(*shape), len(jobs)))
    size = max(shape[-1], _CHUNK_ELEMENTS // w)
    buffers = [np.empty((w, size), dtype) for dtype in dtypes]
    if w == 1:  # a one-thread pool cost 4 ms per N = 2000 kernel on a 2-core box
        task(jobs, *(b[0] for b in buffers))
        return
    with ThreadPoolExecutor(w) as pool:
        futures = [pool.submit(task, jobs[i::w], *(b[i] for b in buffers)) for i in range(w)]
        for future in futures:
            future.result()


def _strip_sums(n: int, task, *dtypes) -> np.ndarray:
    """Call task(rows, *buffers) for each ``row_blocks`` strip of an n x n
    matrix and return the sum of what the tasks return, vectors over the
    columns rows.start on (None adds nothing).  Strip i belongs to group
    i mod G, G = 2 n^2 / ``_WORKER_ELEMENTS`` (two per worker there can
    be) but at least 1 and at most the strips; the groups are dealt to the
    workers (see ``_on_workers``), each worker runs its groups' strips in
    strip order and adds each vector to its group's O(n) partial sums,
    and the groups are summed in order, so the sum does not depend on W."""
    strips = list(row_blocks(n))
    groups = max(1, min(len(strips), 2 * (n * n // _WORKER_ELEMENTS)))
    sums = np.zeros((groups, n))

    def run(owned, *buffers):  # owned: this worker's groups, a range
        for i, rows in enumerate(strips):
            if i % groups in owned:
                part = task(rows, *buffers)
                if part is not None:
                    sums[i % groups, rows.start :] += part

    _on_workers(run, range(groups), n, *dtypes)
    return sums.sum(axis=0)


def _strip_product(a: np.ndarray, w: np.ndarray, out: np.ndarray, rows: slice, buf: np.ndarray):
    """Write the strip's rows of A w into out[rows], A the symmetric matrix
    whose upper triangle, diagonal included, a holds (nothing below the
    diagonal is read), and return, in buf, the strip's part of the other
    rows: w[rows] times the strip's strict upper triangle, over the columns
    rows.start on."""
    n = a.shape[0]
    s, e = rows.start, min(rows.stop, n)
    diag, right = np.triu(a[s:e, s:e]), a[s:e, e:]
    out[s:e] = diag @ w[s:e] + right @ w[e:]
    np.fill_diagonal(diag, 0.0)
    part = buf[: n - s]
    np.matmul(w[s:e], diag, out=part[: e - s])
    np.matmul(w[s:e], right, out=part[e - s :])
    return part


def _upper_strips(values: np.ndarray, out: np.ndarray, finish=None,
                  degrees: np.ndarray | None = None) -> None:
    """Write the squared distances between the columns of ``values`` into
    the upper triangle of ``out``, one ``row_blocks`` strip
    out[rows, rows.start:] at a time, each worker running the strips of
    its own strip groups in strip order (see ``_strip_sums``); ``finish``,
    if given, is applied to each chunk of a strip's rows while it is in
    cache, and the row sums of the finished symmetric matrix are written
    into ``degrees``, if given, each strip adding its share to its group's
    partial sums while it is in cache.  The diagonal, and any entry at or
    below the Gram form's rounding error (d + 2) * eps * (n_i + n_j), is 0,
    so coincident points are at distance 0.  Each strip's square block on
    the diagonal is written in full, so the part of it below the diagonal
    holds scratch; nothing else below the diagonal is written."""
    n = out.shape[0]
    norms = np.einsum("ij,ij->j", values, values)
    floor = (values.shape[0] + 2) * np.finfo(np.float64).eps
    ones = np.ones(n)

    def strip_task(rows, total_buf, mask_buf):
        s = rows.start
        # -2 G from the gemm itself, bit for bit: scaling by a power of 2 is exact
        strip = np.matmul(-2.0 * values[:, rows].T, values[:, s:], out=out[rows, s:])
        for part in row_blocks(strip.shape[0], strip.shape[1], total_buf.size):
            chunk = strip[part]
            shape = chunk.shape
            total = np.add.outer(norms[rows][part], norms[s:],
                                 out=total_buf[: chunk.size].reshape(shape))
            chunk += total
            total *= floor
            mask = np.less_equal(chunk, total, out=mask_buf[: chunk.size].reshape(shape))
            np.copyto(chunk, 0.0, where=mask)
            np.fill_diagonal(chunk[:, part.start :], 0.0)  # the entries (s + i, s + i)
            if finish is not None:
                finish(chunk)
        if degrees is not None:
            return _strip_product(out, ones, degrees, rows, total_buf)
        return None

    columns = _strip_sums(n, strip_task, np.float64, np.bool_)
    if degrees is not None:
        degrees += columns


def mirror_upper(a: np.ndarray, scale: np.ndarray | None = None) -> None:
    """Copy a's strict upper triangle onto its strict lower one, one row of
    tiles per job on the workers; with ``scale`` (c), first multiply each
    entry on and above the diagonal by -(c_i c_j), one chunk of the tile
    row at a time, and copy it down while it is in cache."""
    n = a.shape[0]
    below = np.tri(_TILE, k=-1, dtype=bool)

    def scaled(rows, cols, buf):
        chunk = a[rows, cols]
        if scale is not None:
            neg = -scale[rows]
            for part in row_blocks(chunk.shape[0], chunk.shape[1], buf.size):
                piece = chunk[part]
                piece *= np.multiply.outer(neg[part], scale[cols],  # -(c_i c_j) exactly
                                           out=buf[: piece.size].reshape(piece.shape))
        return chunk

    def run(starts, buf):
        for i in starts:
            rows = slice(i, i + _TILE)
            block = scaled(rows, rows, buf)
            mask = below[: block.shape[0], : block.shape[0]]
            block[mask] = block.T[mask]
            width = buf.size // block.shape[0]
            for j in range(i + _TILE, n, width):
                cols = slice(j, j + width)
                a[cols, rows] = scaled(rows, cols, buf).T

    _on_workers(run, range(0, n, _TILE), n, np.float64)


def symmetric_product(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A w for the symmetric A whose upper triangle a holds, in one pass
    over that triangle (see ``_strip_product`` and ``_strip_sums``)."""
    n = a.shape[0]
    out = np.empty(n)
    columns = _strip_sums(n, lambda rows, buf: _strip_product(a, w, out, rows, buf), np.float64)
    return out + columns


def exponent_floor(n: int) -> float:
    """F = ln(tiny * n^2) + 1, at which an exponent of an n-point kernel is
    clamped (see the module docstring)."""
    return math.log(np.finfo(np.float64).tiny * n * n) + 1.0


def build_kernel(z: DataMatrix | np.ndarray, p: KernelParams) -> KernelMatrix:
    """Assemble the upper triangle of the pairwise similarity matrix and,
    from it, the degree vector (full row sums, self term included)."""
    values = z.values if isinstance(z, DataMatrix) else DataMatrix(z).values
    n = values.shape[1]
    k = np.empty((n, n))
    prefactor = 1.0 / (math.sqrt(2.0 * math.pi) * p.sigma)
    scale = -2.0 * p.sigma**2
    floor = exponent_floor(n)

    def finish(chunk):
        chunk /= scale
        np.maximum(chunk, floor, out=chunk)  # keeps exp off its slow path
        np.exp(chunk, out=chunk)
        chunk *= prefactor  # diagonal: exp(0) * prefactor

    degrees = np.empty(n)
    _upper_strips(values, k, finish, degrees)
    return KernelMatrix(k=k, degrees=degrees, sigma=p.sigma)


def build_laplacian(km: KernelMatrix) -> LaplacianMatrix:
    """Overwrite the kernel matrix ``km.k`` with L = I - S and return it, so
    L shares the kernel's buffer; ``km.degrees`` is left as it was.

    With K~ = D^-1 K D^-1 and d~ its row sums, S_ij = k~_ij / sqrt(d~_i d~_j)
    = k_ij c_i c_j for the scale vector c = D^-1 D~^-1/2.  d~ is summed from
    K's upper triangle, which is scaled and then copied onto the lower
    one, so L is bit-exactly symmetric.  Every degree holds the self
    term 1 / (sqrt(2 pi) sigma), finite and positive for any sigma that
    ``KernelParams`` accepts, and no other entry is negative, so D^-1
    exists.
    """
    k, deg, sigma = km.k, km.degrees, km.sigma
    n = k.shape[0]
    isolated = np.count_nonzero(deg - k.diagonal() <= n * np.finfo(np.float64).eps * deg)
    if isolated:
        raise DisconnectedGraphError(
            f"kernel graph is disconnected at sigma={sigma!r}: {isolated} of {n} point(s) "
            "have no neighbour above rounding; use a larger bandwidth"
        )
    inv = 1.0 / deg
    inv_sqrt = 1.0 / np.sqrt(inv * symmetric_product(k, inv))  # d~ = D^-1 K D^-1 1
    mirror_upper(k, inv * inv_sqrt)
    np.fill_diagonal(k, 1.0 + k.diagonal())
    return LaplacianMatrix(l=k, sigma=sigma, inv_sqrt_degrees=inv_sqrt)
