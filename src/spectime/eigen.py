"""Smallest eigenpairs of a symmetric matrix with certified residuals.

The contract is the residual certificate, not the method: every returned
pair (lambda_j, v_j) satisfies ||A v_j - lambda_j v_j|| <= tol * max(1, max|lambda|),
checked post hoc by direct multiplication.  Small matrices use a dense
symmetric solver (LAPACK ``dsyevr``) that computes only the k wanted
pairs; larger ones use Lanczos (ARPACK) on the
spectrally flipped operator mu*I - A, where mu is a Gershgorin upper
bound, so the smallest eigenvalues of A become the largest and converge
fast without factorizations.  The Lanczos path allocates no N x N array
beside A (the bound is summed in row blocks and the operator is applied
as mu*x - A x), so a Laplacian built in the kernel's buffer stays the
only one; the dense path's LAPACK call works on its own copy of A.

Sign convention: each eigenvector is flipped so its entry of largest
absolute value is positive (ties broken by lowest index), which makes
the output a pure function of the input matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import NoConvergenceError
from .kernel import LaplacianMatrix, row_blocks

DENSE_CUTOFF = 2048
DEFAULT_TOL = 1e-8


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


def _gershgorin_upper(a: np.ndarray) -> float:
    """max_i a_ii + sum_{j != i} |a_ij|, with the row sums of |a| taken in
    row blocks so no N x N temporary is formed."""
    abs_sums = np.empty(a.shape[0])
    for rows in row_blocks(a.shape[0]):
        np.abs(a[rows]).sum(axis=1, out=abs_sums[rows])
    return float((a.diagonal() + (abs_sums - np.abs(a.diagonal()))).max())


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
        values, vectors = eigh(
            a, subset_by_index=[0, k - 1], driver="evr", check_finite=False
        )
    else:
        values, vectors = _lanczos_smallest(a, k, tol)

    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    residuals = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    bound = tol * max(1.0, float(np.abs(values).max()))
    if residuals.max() > bound:
        raise NoConvergenceError(0, f"residual {residuals.max():.3e} exceeds {bound:.3e}")
    return SpectralResult(eigenvalues=values, eigenvectors=vectors, residuals=residuals)


def _lanczos_smallest(a: np.ndarray, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    n = a.shape[0]
    mu = _gershgorin_upper(a) + 1.0
    op = LinearOperator((n, n), matvec=lambda x: mu * x - a @ x, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)  # fixed start, deterministic output
    budget = 50 * k
    try:
        # ARPACK tol is relative to the shifted spectrum; ask well below the
        # certificate and let the post-hoc check be the arbiter.
        w, v = eigsh(op, k=k, which="LA", tol=min(tol, 1e-10) * 1e-2, v0=v0, maxiter=budget)
    except ArpackNoConvergence as exc:  # pragma: no cover - depends on ARPACK internals
        raise NoConvergenceError(budget, str(exc)) from exc
    return mu - w[::-1], v[:, ::-1]
