"""Smallest eigenpairs of a graph Laplacian with certified residuals.

The contract is the residual certificate, not the method: every returned
pair (lambda_j, v_j) satisfies
||A v_j - lambda_j v_j|| <= DEFAULT_TOL * max(1, max|lambda|), checked
post hoc by one direct product, ``V^T A``, written by the block path's
own pass.

The one input is a ``LaplacianMatrix`` from ``kernel.build_laplacian``;
its ``l``, the A of these notes, is a ``kernel.PackedSymmetric``,
bit-exactly symmetric and positive semidefinite by construction, so no
symmetry check runs, and the certificate stays the arbiter.  The solver
reads A only through ``PackedSymmetric.apply`` and the dense path's
copy, and never writes it, so one ``LaplacianMatrix`` can serve any
number of solves, concurrent ones included.  Anything that is not a
``LaplacianMatrix`` raises ``TypeError`` before any work.

One iteration, two operators.  ``_block_smallest`` is a thick-restarted
block Krylov iteration that ends each pass with Rayleigh-Ritz.  It starts
from ``width`` random rows (``default_rng(0)``); each next block is the
image of the last one, orthogonalized twice against the basis (three
times when its QR leaves more than LEAK along it).  Blocks are stored as
rows, and the operator comes as a function that writes ``rows @ op``.
The basis and its image live in two buffers of BASIS_ROWS rows, or
2(k + width) when that is more.  The iteration stops when the k smallest
Ritz pairs' residuals, read from the stored image, are at most half of
tol * max(1, max|theta|).  When the buffers fill it keeps the k + BLOCK
smallest Ritz vectors and goes on from the last image's part orthogonal
to the old basis.  A row that loses rank is redrawn from the same
generator, and a basis that reaches N solves the whole space, so its
Ritz pairs go to the certificate.  No bound on the spectrum is needed.
The Krylov space of w start rows holds at most w copies of a repeated
eigenvalue, so both paths use w >= k.

The block path: every solve starts on A itself, in blocks of
max(BLOCK, k) rows.  One pass is ``block @ A``, which equals
(A block^T)^T because A is symmetric: ``apply`` reads each strip of A
in two products on the calling thread, BLAS's threads doing the work,
so the Laplacian built in the kernel's packed matrix stays the only
large array.  At N <= DENSE_CUTOFF and k <= N/4 its first PROBE_PASSES
passes are a probe: from their Ritz values theta it predicts
GAP_PASSES / sqrt(gap) passes, gap = (theta_w - theta_k) / (theta_max - theta_w) for a block of
w rows (a block iteration resolves the k smallest pairs at a rate set by
how far its block's low spectrum lies below the top), and when that
exceeds FACTOR_PASSES, the factor's cost in passes, the solve factors as
if no probe had run (the probe's applications are not counted).  Above
the cutoff, and at k > N/4, where the basis reaches N rows and a factor
only adds N^3/3 of work, no probe runs.  An iteration that spends its
budget of PASSES_PER_PAIR * k passes factors at any N instead of
raising, its applications not counted either, unless theta_1 <= -SHIFT,
which proves that no factor exists.

The dense path: one Cholesky factor of A + tau*I, tau = SHIFT, then the
iteration on -(A + tau*I)^-1 in blocks of k rows, whose k smallest
eigenvalues theta map back to lambda = -1/theta - tau.  A successful
factorization proves lambda_min > -tau, so these are exactly the k
smallest eigenvalues of A; tau changes the speed, never which pairs come
back.  No graph Laplacian has an eigenvalue at or below -tau, so its
factor exists; a hand-built ``LaplacianMatrix`` that has one is refused
with ``NoConvergenceError`` when its factor fails.  The cost is one
N^3/3 factorization and a few dozen O(N^2) triangular solves, where a
symmetric eigensolver first spends 4N^3/3 on a tridiagonal reduction.
The inner target is min(DEFAULT_TOL, 1e-10) / 100 on the transformed
operator; a residual r there gives
||A v - lambda v|| <= (||A|| + tau) ||r|| / |theta|, far inside the
certificate, which stays the only arbiter.

``_factor`` is a left-looking blocked Cholesky A + tau*I = U^T U built
from numpy alone, so the process loads one BLAS library.  U is upper
triangular and goes into a second ``PackedSymmetric`` of A's layout, the
only one this path allocates, so the path holds two half-size matrices,
as many bytes as one N x N array.  Each strip of U starts as a copy of
A's, shifted, and takes one product per strip above it for its update,
``np.linalg.cholesky`` on its diagonal block, and the part right of that
block times the block's inverse.  The inverse of U's diagonal block is
stored in place of the block, and ``_solve``'s forward and back solves
multiply by it one strip at a time.  Multiplying by an inverse in place
of a triangular solve loses little: A + tau*I of a positive semidefinite
A has cond(A + tau*I) <= (||A|| + tau) / tau, about 2000 for a Laplacian
(||A|| <= 2), and a diagonal block of its factor has a condition number
of at most the square root of that, about 45.

``SpectralResult`` reports the path taken and the operator applications
(one per vector: a pass counts its block's rows).  Every failure to
certify k pairs raises ``NoConvergenceError`` with that count: a factor
that does not exist, the iteration past its budget on A with
theta_1 <= -SHIFT or on the factor, a non-finite entry, or a residual
above the bound or NaN.

Sign convention: each eigenvector is flipped so that its first entry
within 4 ulps of the largest absolute value is positive, which makes
the output a pure function of the input matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NoConvergenceError
from .kernel import STRIP, LaplacianMatrix, PackedSymmetric

DENSE_CUTOFF = 2048  # largest N at which the probe runs; a spent budget factors at any N
DEFAULT_TOL = 1e-8  # the certificate: residual <= DEFAULT_TOL * max(1, max|lambda|)
SHIFT = 1e-3  # tau of the dense path's shift-invert; sets the speed only
BLOCK = 12  # least rows the block path applies L to in one pass over its memory
BASIS_ROWS = 96  # basis rows the iteration holds before a thick restart (or 2(k + width))
PASSES_PER_PAIR = 100  # the iteration's budget of passes, per wanted pair
RANK_DROP = 1e-8  # a new basis row kept below this fraction of its norm is redrawn
LEAK = 1e-14  # largest |q . b| left between a new row q and a basis row b before a third projection
PROBE_PASSES = 2  # block passes before the path is chosen at N <= DENSE_CUTOFF, k <= N/4
FACTOR_PASSES = 12  # the factor and its solves, in block passes (21-71 measured at N=2000)
GAP_PASSES = 20  # block passes times sqrt(gap): 12-32 on circles and cardioids, N=500-2000


@dataclass(frozen=True)
class SpectralResult:
    """The k algebraically smallest eigenpairs, residuals included."""

    eigenvalues: np.ndarray  # (k,) ascending
    eigenvectors: np.ndarray  # (N, k), unit-norm columns
    residuals: np.ndarray  # (k,) ||A v - lambda v||
    path: str  # "dense" (shift-invert factor) or "block" (the iteration on A)
    applications: int  # vectors the solver applied its operator to


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    mags = np.abs(vectors)  # entries within 4 ulps of a column's largest tie
    lead = np.argmax(mags >= (1.0 - 4.0 * np.finfo(np.float64).eps) * mags.max(axis=0), axis=0)
    return vectors * np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)


def smallest_eigenpairs(lap: LaplacianMatrix, k: int) -> SpectralResult:
    """Return the k algebraically smallest eigenpairs of a Laplacian; every
    pair satisfies ||L v - lambda v|| <= DEFAULT_TOL * max(1, max|lambda|).

    Parameters
    ----------
    lap : LaplacianMatrix, read and never written
    k : number of eigenpairs, 1 <= k <= N

    Raises
    ------
    TypeError
        if lap is not a ``LaplacianMatrix``.
    ValueError
        if k is out of range; before any work.
    NoConvergenceError
        if the residual target cannot be certified within the iteration
        budget: L + SHIFT*I has no Cholesky factor, the iteration meets a
        non-finite entry or spends its passes, or a residual exceeds the
        bound or is NaN.
    """
    if not isinstance(lap, LaplacianMatrix):
        raise TypeError(f"expected a LaplacianMatrix (see build_laplacian), "
                        f"got {type(lap).__name__}")
    a, n = lap.l, lap.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    probe = PROBE_PASSES if n <= DENSE_CUTOFF and k <= n // 4 else None
    found, path = _block_smallest(a.apply, n, k, max(BLOCK, k), DEFAULT_TOL, probe,
                                  factorable=True), "block"
    if found is None:  # the probe chose the factor, or the budget ran out
        found, path = _dense_smallest(a, k), "dense"
    values, vectors, applied = found

    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    image = np.empty((k, n))  # V^T A, read in rows as the block path reads A
    a.apply(vectors.T, image)
    residuals = np.linalg.norm(image - vectors.T * values[:, None], axis=1)
    bound = DEFAULT_TOL * max(1.0, float(np.abs(values).max()))
    if not residuals.max() <= bound:  # NaN fails too
        raise NoConvergenceError(
            applied, f"residual {residuals.max():.3e} exceeds {bound:.3e} "
            f"after {applied} operator applications")
    return SpectralResult(eigenvalues=values, eigenvectors=vectors, residuals=residuals,
                          path=path, applications=applied)


def _factor(a: PackedSymmetric) -> PackedSymmetric:
    """U of A + SHIFT*I = U^T U, upper triangular, in a new packed matrix
    of a's layout, computed left-looking one strip of rows at a time; the
    diagonal block of each strip of U holds that block's inverse (upper
    triangular, zeros below), which both the rest of the strip and
    ``_solve`` multiply by.  a is only read.  Raises ``LinAlgError`` when a
    diagonal block has no Cholesky factor."""
    u = PackedSymmetric(a.n)
    update = np.empty((STRIP, a.n))
    for j, ((rows, strip), (_, source)) in enumerate(zip(u.strips, a.strips)):
        m = rows.stop - rows.start
        np.copyto(strip, source)
        np.fill_diagonal(strip, strip.diagonal() + SHIFT)
        for above_rows, above in u.strips[:j]:  # U[:s, rows]^T U[:s, s:], a strip at a time
            at = rows.start - above_rows.start
            strip -= np.matmul(above[:, at : at + m].T, above[:, at:],
                               out=update[:m, : strip.shape[1]])
        # L^-1 for the block's L L^T: U's diagonal block is L^T
        inv = np.linalg.inv(np.linalg.cholesky(strip[:, :m]))
        right = strip[:, m:]
        right[...] = np.matmul(inv, right, out=update[:m, : right.shape[1]])
        strip[:, :m] = inv.T
    return u


def _solve(u: PackedSymmetric, rows: np.ndarray, out: np.ndarray) -> None:
    """out = -rows (U^T U)^-1 for the factor U that ``_factor`` returned: a
    forward solve Y U = rows, then a back solve X U^T = Y, one strip at a
    time, each multiplied by its diagonal block's stored inverse."""
    np.copyto(out, rows)
    for span, strip in u.strips:
        m = span.stop - span.start
        out[:, span] = out[:, span] @ strip[:, :m]
        out[:, span.stop :] -= out[:, span] @ strip[:, m:]
    for span, strip in reversed(u.strips):
        m = span.stop - span.start
        out[:, span] = (out[:, span] - out[:, span.stop :] @ strip[:, m:].T) @ strip[:, :m].T
    np.negative(out, out=out)


def _dense_smallest(a: PackedSymmetric, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Smallest pairs of A from the block iteration on -(A + SHIFT*I)^-1,
    with the operator applications; raises ``NoConvergenceError`` when
    A + SHIFT*I has no Cholesky factor."""
    try:
        u = _factor(a)
    except np.linalg.LinAlgError:
        raise NoConvergenceError(0, f"L + SHIFT*I (SHIFT = {SHIFT:g}) has no Cholesky "
                                 "factor, so L has an eigenvalue at or below -SHIFT, "
                                 "which no graph Laplacian has") from None
    # the inner target is relative to the transformed spectrum; ask
    # well below the certificate, which stays the only arbiter
    theta, v, applied = _block_smallest(partial(_solve, u), a.n, k, k,
                                        min(DEFAULT_TOL, 1e-10) * 1e-2)
    return -1.0 / theta - SHIFT, v, applied


def _orthonormal(block: np.ndarray, basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The rows of block made orthonormal and orthogonal to the rows of basis
    (projected twice, so rounding leaves no component along basis); a row
    that loses rank is redrawn from rng.  The QR divides by r_ii, so a row
    nearly dependent within its block magnifies the others' leftover
    components along basis; past LEAK those are projected out once more
    and the QR repeated."""
    while True:
        norms = np.linalg.norm(block, axis=1)
        for _ in range(2):
            block -= (block @ basis.T) @ basis
        q, r = np.linalg.qr(block.T)
        lost = np.abs(r.diagonal()) <= RANK_DROP * norms
        if not lost.any():
            q = q.T
            overlap = q @ basis.T
            if np.abs(overlap).max(initial=0.0) > LEAK:
                q -= overlap @ basis
                q = np.linalg.qr(q.T)[0].T
            return q
        block[lost] = rng.standard_normal((int(lost.sum()), block.shape[1]))


def _factor_pays(theta: np.ndarray, k: int, width: int) -> bool:
    """Whether the factor is predicted to cost less than the rest of a block
    iteration whose Ritz values are ``theta`` (ascending): GAP_PASSES /
    sqrt(gap) passes against FACTOR_PASSES, with gap = (theta_w - theta_k) /
    (theta_max - theta_w).  Never when theta_1 <= -SHIFT, since then
    A + SHIFT*I has no factor."""
    if theta[0] <= -SHIFT:
        return False
    below, above = theta[width - 1] - theta[k - 1], theta[-1] - theta[width - 1]
    return GAP_PASSES**2 * above > FACTOR_PASSES**2 * below


def _block_smallest(apply, n: int, k: int, width: int, tol: float, probe: int | None = None,
                    factorable: bool = False) -> tuple[np.ndarray, np.ndarray, int] | None:
    """k smallest pairs of the symmetric operator that ``apply(rows, out)``
    applies (it writes ``rows @ op``), ascending, from a thick-restarted
    block Krylov iteration with Rayleigh-Ritz in blocks of ``width`` rows,
    and the number of vectors the operator was applied to.  With ``probe``,
    the result is None when the pairs are not found in that many passes
    and ``_factor_pays``.  With ``factorable``, a spent budget also returns
    None, not ``NoConvergenceError``, while theta_1 > -SHIFT."""
    cap = min(n, max(BASIS_ROWS, 2 * (k + width)))
    rng = np.random.default_rng(0)  # fixed start, deterministic output
    basis = np.empty((cap, n))  # orthonormal rows
    image = np.empty((cap, n))  # basis @ op; row j is op @ basis[j], op being symmetric
    h = np.zeros((cap, cap))  # basis op basis^T, lower triangle
    block = _orthonormal(rng.standard_normal((min(width, n), n)), basis[:0], rng)
    used = applied = passes = 0
    while True:
        passes += 1
        start, used = used, used + block.shape[0]
        basis[start:used] = block
        apply(basis[start:used], image[start:used])  # one pass over the operator
        applied += used - start
        with np.errstate(invalid="ignore"):  # a non-finite image raises just below
            h[start:used, :used] = image[start:used] @ basis[:used].T
        if not np.isfinite(h[start:used, :used]).all():
            raise NoConvergenceError(applied, f"a non-finite entry after {applied} "
                                     "operator applications")
        theta, y = np.linalg.eigh(h[:used, :used])
        ritz = y[:, :k].T @ basis[:used]
        residual = np.linalg.norm(y[:, :k].T @ image[:used] - theta[:k, None] * ritz, axis=1)
        # stop at half the bound; the caller checks its certificate directly
        bound = tol * max(1.0, float(np.abs(theta[:k]).max()))
        if used >= k and (residual.max() <= 0.5 * bound or used == n):  # n: the whole space
            return theta[:k], ritz.T, applied
        if passes == probe and _factor_pays(theta, k, width):
            return None
        if applied >= PASSES_PER_PAIR * k * width:
            if factorable and theta[0] > -SHIFT:
                return None
            raise NoConvergenceError(applied, f"Ritz residual {residual.max():.3e} "
                                     f"after {applied} operator applications")
        # the next Krylov block: the last block's image, orthogonal to the basis
        block = _orthonormal(image[start:start + min(width, n - used)].copy(), basis[:used], rng)
        if used + block.shape[0] > cap:  # thick restart from the smallest Ritz vectors
            keep = k + BLOCK
            basis[:keep] = y[:, :keep].T @ basis[:used]
            image[:keep] = y[:, :keep].T @ image[:used]
            h[:keep, :keep] = np.diag(theta[:keep])
            used = keep
