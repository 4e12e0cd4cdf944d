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

K, D~ and L are symmetric, so one ``PackedSymmetric`` holds each of
them: its upper triangle in row strips of STRIP rows, strip i holding rows
[i STRIP, (i + 1) STRIP) from its diagonal on, each strip's square
diagonal block in full, bit-exactly symmetric, so the whole takes
N(N + 1)/2 + N (STRIP - 1)/2 entries at the most, half of an N x N array.
``apply`` multiplies a block of rows by the matrix strip by strip; the
eigensolver reads L through it alone.  The kernel is built one strip at a time, in
row pieces of about 2 MB: a ``gemm`` writes the piece's block of -2 G,
G = V^T V the Gram product, in place, and ||v_i - v_j||^2 = (n_i + n_j)
- 2 G_ij with n_i = ||v_i||^2, the distance floor, the exponential and
the prefactor follow, a chunk of the piece's rows at a time, while it is
in cache; the finished strip copies its diagonal block's upper part onto
the lower one and adds its share of the degrees.  ``build_laplacian``
writes L over that same matrix, ``km.k``: one pass over the strips sums
d~, and one pass scales each strip by -(c_i c_j) in place, which keeps
the diagonal blocks symmetric bit for bit (c_i c_j = c_j c_i exactly).
The recovery path holds one packed matrix from the Gram product to the
eigensolve, and a ``KernelMatrix`` no longer holds its kernel once its
Laplacian is built.

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

Every pass over the strips (the kernel, the d~ sums and the Laplacian's
scale) runs on W worker threads, W the number of CPUs in the process's
affinity mask (``taskset`` limits it) but at most one per 32 MB of an
N x N array, so one at N <= 2048, where a second worker gained nothing
while the BLAS threads of the last product still spin; numpy releases
the interpreter lock in the ufuncs and in the strip ``gemm``.  Strips
shrink along the triangle, so jobs are dealt round-robin.  The calling
thread allocates the workers' chunk buffers, about 0.6 MB split among
them whatever W is (one row each at the least), and the pool lives for
one call, so a forked child starts its own.  Strip i belongs to strip
group i mod G, G set by N alone (two per worker there can be).  The
groups are the strip passes' jobs: each group belongs to
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


STRIP = 128  # rows of a packed strip, and of the dense factor's diagonal blocks
_BLOCK_ELEMENTS = 1 << 18  # row piece of a strip pass, 2 MB of float64
_CHUNK_ELEMENTS = 1 << 16  # the workers' chunk buffers together, 512 KB of float64
_WORKER_ELEMENTS = 1 << 22  # N x N entries per worker thread, 32 MB of float64; one at N <= 2048


class PackedSymmetric:
    """A symmetric N x N float64 matrix held as its upper triangle, in one
    flat buffer ``data`` of C-ordered row strips: ``strips`` lists
    (rows, strip) for rows = [s, e), e - s = STRIP but for the last, and
    strip the (e - s) x (N - s) array of rows s..e-1 from column s on.  A
    strip's diagonal block strip[:, :e - s] is stored in full, its part
    below the diagonal a copy of the part above, so the matrix is the one
    whose entry (i, j), i <= j, the strip holding row i holds.  A new
    matrix's entries are undefined until they are written."""

    def __init__(self, n: int):
        self.n = n
        starts = range(0, n, STRIP)
        sizes = [(min(s + STRIP, n) - s) * (n - s) for s in starts]
        self.data = np.empty(sum(sizes))
        ends = np.cumsum(sizes)
        self.strips = [(slice(s, min(s + STRIP, n)), self.data[end - size : end].reshape(-1, n - s))
                       for s, size, end in zip(starts, sizes, ends)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def diagonal(self) -> np.ndarray:
        """The N diagonal entries, a new array."""
        out = np.empty(self.n)
        for rows, strip in self.strips:
            out[rows] = strip.diagonal()
        return out

    def apply(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Write rows @ A into out, both w x N, one strip of A at a time on
        the calling thread: the strip's rows of A times rows' columns from
        the strip's first row on give out's columns of the strip, and the
        strip right of its diagonal block adds rows' columns of the strip
        times it to out's columns beyond.  Each product is one ``gemm``."""
        out[...] = 0.0
        buf = np.empty(out.shape)
        for span, strip in self.strips:
            s, e = span.start, span.stop
            out[:, span] += np.matmul(rows[:, s:], strip.T, out=buf[:, : e - s])
            out[:, e:] += np.matmul(rows[:, span], strip[:, e - s :], out=buf[:, e:])


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric N x N Gaussian similarity matrix K with its degree vector;
    ``build_laplacian`` writes L over ``k``."""

    k: PackedSymmetric
    degrees: np.ndarray
    sigma: float


@dataclass(frozen=True)
class LaplacianMatrix:
    """Symmetric normalized graph Laplacian L = I - S, the one input of
    ``eigen.smallest_eigenpairs``, which only reads it."""

    l: PackedSymmetric
    sigma: float
    inv_sqrt_degrees: np.ndarray  # D~^-1/2 of S; random-walk vector = inv_sqrt_degrees * u

    @property
    def n(self) -> int:
        return self.l.n


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


def _strip_sums(a: PackedSymmetric, task, *dtypes) -> np.ndarray:
    """Call task(rows, strip, *buffers) for each strip of a and return the
    sum of what the tasks return, vectors over the columns rows.stop on
    (None adds nothing).  Strip i belongs to group i mod G,
    G = 2 N^2 / ``_WORKER_ELEMENTS`` (two per worker there can be) but at
    least 1 and at most the strips; the groups are dealt to the workers
    (see ``_on_workers``), each worker runs its groups' strips in strip
    order and adds each vector to its group's O(N) partial sums, and the
    groups are summed in order, so the sum does not depend on W."""
    n = a.n
    groups = max(1, min(len(a.strips), 2 * (n * n // _WORKER_ELEMENTS)))
    sums = np.zeros((groups, n))

    def run(owned, *buffers):  # owned: this worker's groups, a range
        for i, (rows, strip) in enumerate(a.strips):
            if i % groups in owned:
                part = task(rows, strip, *buffers)
                if part is not None:
                    sums[i % groups, rows.stop :] += part

    _on_workers(run, range(groups), n, *dtypes)
    return sums.sum(axis=0)


def _piece_product(w: np.ndarray, out: np.ndarray, rows: slice, strip: np.ndarray,
                   piece_rows: slice, below: np.ndarray) -> None:
    """For the rows piece_rows of the strip, write their rows of A w into
    out and add their part of the rows below the strip, their entries of w
    times their part right of the diagonal block, to ``below`` (over the
    columns rows.stop on)."""
    s = rows.start
    piece = strip[piece_rows]
    top = slice(s + piece_rows.start, s + piece_rows.start + piece.shape[0])
    np.matmul(piece, w[s:], out=out[top])
    below += w[top] @ piece[:, rows.stop - s :]


def _mirror_rows(block: np.ndarray, rows: slice) -> None:
    """Copy the square block's entries above the diagonal onto those below
    it in ``rows``, whose columns' rows above the diagonal are final."""
    a, b = rows.start, min(rows.stop, block.shape[0])
    below = np.tri(b - a, b, k=a - 1, dtype=bool)  # (i, j) with j < i
    block[a:b, :b][below] = block[:b, a:b].T[below]


def _upper_strips(values: np.ndarray, out: PackedSymmetric, finish=None,
                  degrees: np.ndarray | None = None) -> None:
    """Write the squared distances between the columns of ``values`` into
    ``out``, one strip at a time, each worker running the strips of its own
    strip groups in strip order (see ``_strip_sums``) and each strip in row
    pieces of about ``_BLOCK_ELEMENTS`` entries; ``finish``, if given, is
    applied to each chunk of a piece's rows while it is in cache, and the
    row sums of the finished matrix are written into ``degrees``, if given,
    each piece adding its share while it is in cache, and each strip its
    share to its group's partial sums.  The diagonal, and any entry at or
    below the Gram form's rounding error (d + 2) * eps * (n_i + n_j), is 0,
    so coincident points are at distance 0.  Each strip's diagonal block is
    computed in full, then each piece's part below the diagonal copied from
    the part above."""
    n = out.n
    norms = np.einsum("ij,ij->j", values, values)
    floor = (values.shape[0] + 2) * np.finfo(np.float64).eps
    ones = np.ones(n)

    def strip_task(rows, strip, total_buf, mask_buf, below_buf):
        s = rows.start
        below = below_buf[: n - rows.stop]
        below[...] = 0.0
        for piece_rows in row_blocks(strip.shape[0], strip.shape[1]):
            piece = strip[piece_rows]
            top = s + piece_rows.start
            # -2 G from the gemm itself, bit for bit: scaling by a power of 2 is exact
            np.matmul(-2.0 * values[:, top : top + piece.shape[0]].T, values[:, s:], out=piece)
            for part in row_blocks(piece.shape[0], piece.shape[1], total_buf.size):
                chunk = piece[part]
                shape = chunk.shape
                total = np.add.outer(norms[top + part.start : top + part.start + shape[0]],
                                     norms[s:], out=total_buf[: chunk.size].reshape(shape))
                chunk += total
                total *= floor
                mask = np.less_equal(chunk, total, out=mask_buf[: chunk.size].reshape(shape))
                np.copyto(chunk, 0.0, where=mask)
                np.fill_diagonal(chunk[:, top - s + part.start :], 0.0)  # the entries (i, i)
                if finish is not None:
                    finish(chunk)
            _mirror_rows(strip[:, : rows.stop - s], piece_rows)
            if degrees is not None:
                _piece_product(ones, degrees, rows, strip, piece_rows, below)
        return below if degrees is not None else None

    columns = _strip_sums(out, strip_task, np.float64, np.bool_, np.float64)
    if degrees is not None:
        degrees += columns


def _squared_distances(values: np.ndarray) -> np.ndarray:
    """The squared distance of each pair of columns once, in row order of
    the upper triangle, read from the strips of a packed distance matrix
    that is freed on return."""
    n = values.shape[1]
    distances = PackedSymmetric(n)
    _upper_strips(values, distances)
    sq = np.empty(n * (n - 1) // 2)
    above = ~np.tri(STRIP, n, dtype=bool)  # a strip's entries right of the diagonal
    at = 0
    for _, strip in distances.strips:
        pairs = strip[above[: strip.shape[0], : strip.shape[1]]]
        sq[at : at + pairs.size] = pairs
        at += pairs.size
    return sq


def symmetric_product(a: PackedSymmetric, w: np.ndarray) -> np.ndarray:
    """A w in one pass over a's strips, each in row pieces of about
    ``_BLOCK_ELEMENTS`` entries (see ``_piece_product`` and
    ``_strip_sums``)."""
    out = np.empty(a.n)

    def task(rows, strip, buf):
        below = buf[: a.n - rows.stop]
        below[...] = 0.0
        for piece_rows in row_blocks(strip.shape[0], strip.shape[1]):
            _piece_product(w, out, rows, strip, piece_rows, below)
        return below

    return out + _strip_sums(a, task, np.float64)


def exponent_floor(n: int) -> float:
    """F = ln(tiny * n^2) + 1, at which an exponent of an n-point kernel is
    clamped (see the module docstring)."""
    return math.log(np.finfo(np.float64).tiny * n * n) + 1.0


def build_kernel(z: DataMatrix | np.ndarray, p: KernelParams) -> KernelMatrix:
    """Assemble the packed pairwise similarity matrix and, from it, the
    degree vector (full row sums, self term included)."""
    values = z.values if isinstance(z, DataMatrix) else DataMatrix(z).values
    n = values.shape[1]
    k = PackedSymmetric(n)
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
    = k_ij c_i c_j for the scale vector c = D^-1 D~^-1/2.  d~ is summed over
    K's strips, which are then scaled in place, so L is bit-exactly
    symmetric as K is.  Every degree holds the self term
    1 / (sqrt(2 pi) sigma), finite and positive for any sigma that
    ``KernelParams`` accepts, and no other entry is negative, so D^-1
    exists.
    """
    k, deg, sigma = km.k, km.degrees, km.sigma
    n = k.n
    isolated = np.count_nonzero(deg - k.diagonal() <= n * np.finfo(np.float64).eps * deg)
    if isolated:
        raise DisconnectedGraphError(
            f"kernel graph is disconnected at sigma={sigma!r}: {isolated} of {n} point(s) "
            "have no neighbour above rounding; use a larger bandwidth"
        )
    inv = 1.0 / deg
    inv_sqrt = 1.0 / np.sqrt(inv * symmetric_product(k, inv))  # d~ = D^-1 K D^-1 1
    c = inv * inv_sqrt
    neg = -c

    def scale(jobs, buf):  # each strip times -(c_i c_j), one chunk of rows at a time
        for rows, strip in jobs:
            for part in row_blocks(strip.shape[0], strip.shape[1], buf.size):
                piece = strip[part]
                piece *= np.multiply.outer(neg[rows][part], c[rows.start :],  # -(c_i c_j) exactly
                                           out=buf[: piece.size].reshape(piece.shape))
            np.fill_diagonal(strip, 1.0 + strip.diagonal())

    _on_workers(scale, k.strips, n, np.float64)
    return LaplacianMatrix(l=k, sigma=sigma, inv_sqrt_degrees=inv_sqrt)
