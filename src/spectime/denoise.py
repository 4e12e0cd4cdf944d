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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix
from .errors import DegenerateSketchError, RankTooLargeError


@dataclass(frozen=True)
class DenoiseResult:
    """Estimated rank, orthonormal basis, and projected data."""

    r_hat: int
    z_tilde: DataMatrix
    basis: np.ndarray  # (d, r_hat), orthonormal columns


def _project(values: np.ndarray, basis: np.ndarray) -> DataMatrix:
    return DataMatrix._adopt(basis @ (basis.T @ values))


def denoise_fixed_rank(z: DataMatrix, r: int) -> DenoiseResult:
    """Project onto the top-r left singular subspace of z."""
    r = int(r)
    if not 1 <= r <= min(z.dim, z.n_points):
        raise RankTooLargeError(
            f"rank {r} outside [1, {min(z.dim, z.n_points)}] for shape {z.values.shape}"
        )
    u, _, _ = np.linalg.svd(z.values, full_matrices=False)
    basis = u[:, :r]
    return DenoiseResult(r_hat=r, z_tilde=_project(z.values, basis), basis=basis)


def denoise_auto(z: DataMatrix, r0: int, eta: float, seed: int) -> DenoiseResult:
    """Estimate the rank from a randomized sketch, then project.

    Parameters
    ----------
    z : (d, N) data
    r0 : oversampling rank, 1 <= r0 <= min(d, N)
    eta : singular-value ratio threshold, 0 < eta < 1
    seed : seeds the Gaussian sketch; identical seeds give identical output
    """
    r0 = int(r0)
    if not 1 <= r0 <= min(z.dim, z.n_points):
        raise RankTooLargeError(
            f"oversampling rank {r0} outside [1, {min(z.dim, z.n_points)}]"
        )
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    g = np.random.default_rng(seed).standard_normal((z.n_points, r0))
    y = z.values @ g
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    if s[0] == 0.0:
        raise DegenerateSketchError("sketch has zero leading singular value")
    below = np.nonzero(s / s[0] < eta)[0]
    r_hat = int(below[0]) + 1 if below.size else r0
    basis = u[:, :r_hat]
    return DenoiseResult(r_hat=r_hat, z_tilde=_project(z.values, basis), basis=basis)
