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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix
from .errors import ConfigError, DegenerateSketchError, RankTooLargeError

ETA = 1e-3  # default singular-value ratio threshold of denoise_auto


@dataclass(frozen=True)
class DenoiseResult:
    """Estimated rank, orthonormal basis, and the data's coordinates in it."""

    r_hat: int
    coords: DataMatrix  # (r_hat, N) = basis.T @ Z
    basis: np.ndarray  # (d, r_hat), orthonormal columns


def _result(z: DataMatrix, basis: np.ndarray) -> DenoiseResult:
    coords = DataMatrix._adopt(basis.T @ z.values)
    return DenoiseResult(r_hat=basis.shape[1], coords=coords, basis=basis)


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
    u, _, _ = np.linalg.svd(z.values, full_matrices=False)
    return _result(z, u[:, :r])


def denoise_auto(z: DataMatrix, r0: int, eta: float, seed: int) -> DenoiseResult:
    """Estimate the rank from a sketch of r0 Gaussian columns drawn from
    ``seed`` (identical seeds give identical output) with the ratio threshold
    ``eta``, then project; ``check_denoise`` is the rule on r0 and eta."""
    check_denoise(r0=r0, eta=eta, size=min(z.values.shape))
    g = np.random.default_rng(seed).standard_normal((z.n_points, r0))
    y = z.values @ g
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    if s[0] == 0.0:
        raise DegenerateSketchError("sketch has zero leading singular value")
    below = np.nonzero(s / s[0] < eta)[0]
    r_hat = int(below[0]) + 1 if below.size else r0
    return _result(z, u[:, :r_hat])
