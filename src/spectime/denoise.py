"""PCA projection denoising for high-dimensional low-rank data.

With a known rank r, the data is projected onto the top-r left singular
subspace of Z itself.  When the rank is unknown, a randomized range
finder sketches Y = Z G with a seeded N x r0 standard-Gaussian G, and
the rank is estimated as the first index whose singular-value ratio
lambda_i(Y) / lambda_1(Y) drops below a threshold eta; if no ratio does,
the full oversampling rank r0 is kept.  Note the first-below rule keeps
one sub-threshold direction, so a clean rank-r input typically yields
r_hat = r + 1.

The payoff of projecting is a uniform (per-point) error bound that
scales like sqrt(r) instead of sqrt(d) for entrywise Gaussian noise.

Both denoisers return the coordinates C = B^T Z of the data in the
orthonormal basis B, an (r_hat, N) matrix, and that is the only form of
denoised data.  B has orthonormal columns, so the projection B C has the
norms and pairwise distances of C: recovery reads C, and its kernel's
Gram product runs over r_hat rows instead of d.

Both read their basis from ``_left_basis(a, rule)``: the singular values
s of a (a = Y for the sketch, Z for a fixed rank), descending, and its
top r = rule(s) left singular vectors.  It first takes the Gram route of
the randomized range finder (Halko, Martinsson & Tropp 2011): ``eigh``
of the p x p Gram matrix of a's smaller side, s = sqrt(w), and the basis
a V_r / s_r (a^T a, for p columns <= m rows) or the top eigenvectors
themselves (a a^T, for fewer rows).  That costs m p^2 where a thin SVD
spends several times more, and it holds no m x p factor but B.  Squaring
loses half the digits of the small singular values, so the route returns
only when a certificate holds:

1. w_1 > 0;
2. rule reads the same r with every w_i moved up or down by the Gram's
   rounding margin delta = 2 (m + p) eps trace(a^T a): no ratio w_i / w_1
   with i <= r lies within about delta / w_1 of eta^2, so r is the SVD's;
3. w_r > delta, so the last kept direction is not numerically null;
4. max|B^T B - I| <= 1e-12, after at most one Cholesky step B <- B R^-1,
   R^T R = B^T B, when the first B misses it.

Otherwise it runs the thin ``np.linalg.svd`` of a, with the output and
errors (``DegenerateSketchError`` on an all-zero sketch) of the SVD
alone.  The checks bound the rank and the basis, not the angle to the
exact subspace: where r splits two nearly equal small singular values,
the Gram basis's angle is about s_1 / s_r times the SVD's, and the
projected data move by that angle times s_r.
``DenoiseResult.route`` names the route that produced the basis, and
``ratio`` is s_r / s_1 where the rule stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DataMatrix
from .errors import ConfigError, DegenerateSketchError, RankTooLargeError

ETA = 1e-3  # default singular-value ratio threshold of denoise_auto

ORTHONORMAL_TOL = 1e-12  # max|B^T B - I| the Gram route's basis must meet


@dataclass(frozen=True)
class DenoiseResult:
    """Estimated rank, orthonormal basis, and the data's coordinates in it."""

    r_hat: int
    coords: DataMatrix  # (r_hat, N) = basis.T @ Z
    basis: np.ndarray  # (d, r_hat), orthonormal columns
    route: str  # "gram" (the certified Gram eigenproblem) or "svd"
    ratio: float  # s_r_hat / s_1 of the factored matrix (0 when s_1 = 0)


def _result(z: DataMatrix, a: np.ndarray, rule: Callable[[np.ndarray], int]) -> DenoiseResult:
    s, basis, route = _left_basis(a, rule)
    coords = DataMatrix._adopt(basis.T @ z.values)
    r = basis.shape[1]
    ratio = float(s[r - 1] / s[0]) if s[0] > 0.0 else 0.0
    return DenoiseResult(r_hat=r, coords=coords, basis=basis, route=route, ratio=ratio)


def _left_basis(a: np.ndarray, rule: Callable[[np.ndarray], int]):
    """(s, B, route): a's singular values, descending, its top r = rule(s)
    left singular vectors as B's columns, and the route that found them."""
    try:
        found = _gram_basis(a, rule)
    except np.linalg.LinAlgError:  # eigh did not converge, or B^T B is not definite
        found = None
    if found is not None:
        return (*found, "gram")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return s, u[:, :rule(s)], "svd"


def _gram_basis(a: np.ndarray, rule: Callable[[np.ndarray], int]):
    """(s, B) from the Gram eigenproblem when the certificate (module
    docstring) holds, else None."""
    m, p = a.shape
    wide = p <= m
    gram = a.T @ a if wide else a @ a.T
    w, v = np.linalg.eigh(gram)
    w, v = w[::-1], v[:, ::-1]
    if not w[0] > 0.0:
        return None
    delta = 2.0 * (m + p) * np.finfo(np.float64).eps * float(np.trace(gram))
    s = np.sqrt(np.maximum(w, 0.0))
    r = rule(s)
    if any(rule(np.sqrt(np.maximum(w + shift, 0.0))) != r for shift in (-delta, delta)):
        return None
    if not w[r - 1] > delta:
        return None
    basis = a @ (v[:, :r] / s[:r]) if wide else v[:, :r]
    inner = basis.T @ basis
    if np.abs(inner - np.eye(r)).max() > ORTHONORMAL_TOL:  # one Cholesky step: B R^-1
        basis = np.linalg.solve(np.linalg.cholesky(inner), basis.T).T  # R^T R = B^T B
        inner = basis.T @ basis
    return (s, basis) if np.abs(inner - np.eye(r)).max() <= ORTHONORMAL_TOL else None


def check_denoise(rank=None, r0=None, eta: float = ETA, size: int | None = None) -> None:
    """The denoise rule on data of min(d, N) = ``size`` (None: unread).  At most
    one of a fixed ``rank`` and an oversampling rank ``r0``; 0 < eta < 1, and
    ``ETA`` unless r0 reads it (else ``ConfigError``); the rank an integer in
    [1, size] (else ``RankTooLargeError``)."""
    if rank is not None and r0 is not None:
        raise ConfigError("give either a fixed denoise rank or an oversampling rank")
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"eta must lie in (0, 1), got {eta!r}")
    if eta != ETA and r0 is None:
        raise ConfigError(f"eta is read only with an oversampling rank r0, got eta={eta!r}")
    for name, r in (("rank", rank), ("oversampling rank", r0)):
        if r is not None and (not isinstance(r, (int, np.integer)) or r < 1
                              or size is not None and r > size):
            raise RankTooLargeError(f"{name} {r!r} is not an integer in [1, {size or 'min(d, N)'}]")


def denoise_fixed_rank(z: DataMatrix, r: int) -> DenoiseResult:
    """Project onto the top-r left singular subspace of z."""
    check_denoise(rank=r, size=min(z.values.shape))
    return _result(z, z.values, lambda s: r)


def denoise_auto(z: DataMatrix, r0: int, eta: float, seed: int) -> DenoiseResult:
    """Estimate the rank from a sketch of r0 Gaussian columns drawn from
    ``seed`` (identical seeds give identical output) with the ratio threshold
    ``eta``, then project; ``check_denoise`` is the rule on r0 and eta."""
    check_denoise(r0=r0, eta=eta, size=min(z.values.shape))
    g = np.random.default_rng(seed).standard_normal((z.n_points, r0))

    def first_below(s: np.ndarray) -> int:
        if s[0] == 0.0:
            raise DegenerateSketchError("sketch has zero leading singular value")
        below = np.nonzero(s / s[0] < eta)[0]
        return int(below[0]) + 1 if below.size else r0

    return _result(z, z.values @ g, first_below)
