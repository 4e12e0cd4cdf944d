"""Smallest eigenpairs of a symmetric matrix with certified residuals.

The contract is the residual certificate, not the method: every returned
pair (lambda_j, v_j) satisfies ||A v_j - lambda_j v_j|| <= tol * max(1, max|lambda|),
checked post hoc by direct multiplication.

Small matrices (and k > N/4) take the dense path: one Cholesky factor of
A + tau*I, then Lanczos (ARPACK) on its inverse, whose k largest
eigenvalues w map back to lambda = 1/w - tau.  A successful
factorization proves lambda_min > -tau, so these are exactly the k
smallest eigenvalues of A; tau changes the speed, never which pairs come
back.  The cost is one N^3/3 factorization and a few dozen O(N^2)
triangular solves, where a symmetric eigensolver first spends 4N^3/3 on
a tridiagonal reduction.  Input that is not positive definite after the
shift (an indefinite A), or k >= N - 1, falls back to LAPACK ``dsyevr``
on the k wanted pairs.

Larger matrices use Lanczos on the flipped operator I - A, whose
largest eigenvalues 1 - lambda belong to the smallest of A.  No bound
on the spectrum is needed: ``which="LA"`` takes the largest algebraic
values, and the Krylov space does not depend on the shift.  The
operator is applied as x - A x, so a Laplacian built in the kernel's
buffer stays the only N x N array.  Both iterative paths count their
operator applications, and a ``NoConvergenceError`` reports that count.

A writable, C-ordered ``LaplacianMatrix`` (bit-exactly symmetric, as
``kernel`` builds it) is factored in its own buffer, so the dense path
holds one N x N array too: LAPACK ``potrf`` factors A + tau*I through
the Fortran-ordered view ``l.T`` and writes only the lower triangle of
``l``.  However the solve ends (pairs, the ``dsyevr`` fallback, an
error), that triangle is copied back from the intact upper one and the
saved diagonal is restored, so ``l`` comes back bit for bit.  Do not
share one ``LaplacianMatrix`` between concurrent solves.  Other input
(a bare ndarray, or a read-only or Fortran-ordered Laplacian) is
factored in a copy.

Sign convention: each eigenvector is flipped so its entry of largest
absolute value is positive (ties broken by lowest index), which makes
the output a pure function of the input matrix.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import NoConvergenceError
from .kernel import LaplacianMatrix

DENSE_CUTOFF = 2048
DEFAULT_TOL = 1e-8
SHIFT = 1e-3  # tau of the dense path's shift-invert; sets the speed only
_TILE = 128  # side of the square tiles that restore a factored Laplacian


@dataclass(frozen=True)
class SpectralResult:
    """The k algebraically smallest eigenpairs, residuals included."""

    eigenvalues: np.ndarray  # (k,) ascending
    eigenvectors: np.ndarray  # (N, k), unit-norm columns
    residuals: np.ndarray  # (k,) ||A v - lambda v||


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for j in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, j]))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


def smallest_eigenpairs(
    l: LaplacianMatrix | np.ndarray, k: int, tol: float = DEFAULT_TOL
) -> SpectralResult:
    """Return the k algebraically smallest eigenpairs of a symmetric matrix.

    Parameters
    ----------
    l : LaplacianMatrix or symmetric ndarray
    k : number of eigenpairs, 1 <= k <= N
    tol : residual target; every pair satisfies
        ||A v - lambda v|| <= tol * max(1, max|lambda|)

    Raises
    ------
    NoConvergenceError
        if the residual target cannot be certified within the iteration
        budget.
    """
    a = l.l if isinstance(l, LaplacianMatrix) else np.asarray(l, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    if n <= DENSE_CUTOFF or k > n // 4:
        in_place = isinstance(l, LaplacianMatrix) and a.flags.writeable and a.flags.c_contiguous
        values, vectors, applied = _dense_smallest(a, k, tol, in_place)
    else:
        values, vectors, applied = _lanczos_smallest(a, k, tol)

    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    residuals = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    bound = tol * max(1.0, float(np.abs(values).max()))
    if residuals.max() > bound:
        raise NoConvergenceError(
            applied, f"residual {residuals.max():.3e} exceeds {bound:.3e} "
            f"after {applied} operator applications")
    return SpectralResult(eigenvalues=values, eigenvectors=vectors, residuals=residuals)


def _arpack_largest(apply, n: int, k: int, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """k largest eigenpairs of the symmetric operator x -> apply(x), ascending,
    and the number of times ARPACK applied it."""
    applied = 0

    def matvec(x):
        nonlocal applied
        applied += 1
        return apply(x)

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)  # fixed start, deterministic output
    try:
        # ARPACK tol is relative to the transformed spectrum; ask well below
        # the certificate and let the post-hoc check be the arbiter.
        w, v = eigsh(op, k=k, which="LA", tol=min(tol, 1e-10) * 1e-2, v0=v0, maxiter=50 * k)
    except ArpackNoConvergence as exc:
        raise NoConvergenceError(applied, str(exc)) from exc
    return w, v, applied


@contextmanager
def _shifted(a: np.ndarray, in_place: bool):
    """A + SHIFT*I in Fortran order, for LAPACK to factor in place: a copy,
    or a's own buffer through its view a.T (the same matrix, a being
    bit-exactly symmetric), restored from its strict upper triangle and
    the saved diagonal however the block ends."""
    n = a.shape[0]
    if not in_place:
        shifted = a.T.copy(order="F")
        shifted[np.diag_indices(n)] += SHIFT
        yield shifted
        return
    diag = a.diagonal().copy()
    a[np.diag_indices(n)] = diag + SHIFT
    try:
        yield a.T
    finally:
        _mirror_upper(a)
        a[np.diag_indices(n)] = diag


def _mirror_upper(a: np.ndarray) -> None:
    """Copy a's strict upper triangle onto its strict lower one, tile by tile."""
    n = a.shape[0]
    below = np.tri(_TILE, k=-1, dtype=bool)
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(0, i, _TILE):
            a[rows, j : j + _TILE] = a[j : j + _TILE, rows].T
        block = a[rows, rows]
        mask = below[: block.shape[0], : block.shape[0]]
        block[mask] = block.T[mask]


def _dense_smallest(
    a: np.ndarray, k: int, tol: float, in_place: bool
) -> tuple[np.ndarray, np.ndarray, int]:
    """Smallest pairs from Lanczos on (A + SHIFT*I)^-1, or from LAPACK
    ``dsyevr`` when that matrix has no Cholesky factor or k >= n - 1.
    ``in_place`` factors a's own buffer and restores it before returning."""
    n = a.shape[0]
    if k < n - 1:
        with _shifted(a, in_place) as shifted:
            try:
                factor = cho_factor(shifted, overwrite_a=True, check_finite=False)
            except LinAlgError:
                pass  # lambda_min(A) <= -SHIFT: an indefinite matrix, never a Laplacian
            else:
                w, v, applied = _arpack_largest(
                    lambda x: cho_solve(factor, x, check_finite=False), n, k, tol)
                return 1.0 / w - SHIFT, v, applied
    values, vectors = eigh(a, subset_by_index=[0, k - 1], driver="evr", check_finite=False)
    return values, vectors, 0


def _lanczos_smallest(a: np.ndarray, k: int, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    w, v, applied = _arpack_largest(lambda x: x - a @ x, a.shape[0], k, tol)
    return 1.0 - w[::-1], v[:, ::-1], applied
