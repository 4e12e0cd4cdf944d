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

The kernel matrix is built in one N x N buffer from the Gram product
G = V^T V (a single BLAS ``syrk``, which fills one triangle and mirrors
it) as ||v_i - v_j||^2 = (n_i + n_j) - 2 G_ij with n_i = ||v_i||^2; the
norms are summed first, so the matrix is bit-exactly symmetric, and no
copy of the data is made.  ``laplacian_from_data`` then normalizes
that same buffer into L, so the recovery path holds one N x N array
from the Gram product to the eigensolve; ``build_laplacian`` normalizes
a copy and leaves its ``KernelMatrix`` intact.  The output is
reproducible at a fixed BLAS thread count; a different count can change
the last bits of G and of the eigensolver's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, KernelParams
from .errors import DimensionMismatchError, DisconnectedGraphError, ZeroDegreeError


_BLOCK_ELEMENTS = 1 << 18  # row block of the N x N passes, 2 MB of float64


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric N x N Gaussian similarity matrix with its degree vector."""

    k: np.ndarray
    degrees: np.ndarray
    sigma: float


@dataclass(frozen=True)
class LaplacianMatrix:
    """Symmetric normalized graph Laplacian L = I - S.

    ``l`` is bit-exactly symmetric; the dense eigensolve relies on that
    when it factors ``l`` in place and restores it (see ``eigen``)."""

    l: np.ndarray
    sigma: float
    inv_sqrt_degrees: np.ndarray  # D~^-1/2 of S; random-walk vector = inv_sqrt_degrees * u

    @property
    def n(self) -> int:
        return self.l.shape[0]


def gaussian_kernel(x: np.ndarray, y: np.ndarray, p: KernelParams) -> float:
    """Evaluate the Gaussian similarity between two points."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise DimensionMismatchError(f"point dimensions differ: {x.shape} vs {y.shape}")
    sq = float(np.dot(x - y, x - y))
    return math.exp(-sq / (2.0 * p.sigma**2)) / (math.sqrt(2.0 * math.pi) * p.sigma)


def row_blocks(n: int):
    """Slices of consecutive rows of an N x N float64 array, about 2 MB each."""
    rows = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n, rows):
        yield slice(start, start + rows)


def squared_distances(values: np.ndarray) -> np.ndarray:
    """N x N squared Euclidean distances between the columns of a (d, N)
    array, built in one buffer from the Gram product.

    Bit-exactly symmetric with a zero diagonal.  An entry at or below the
    rounding error of the Gram form, (d + 2) * eps * (n_i + n_j), cannot be
    told from 0 and is set to 0, so coincident points are at distance 0.
    """
    norms = np.einsum("ij,ij->j", values, values)
    sq = values.T @ values
    floor = (values.shape[0] + 2) * np.finfo(np.float64).eps
    for rows in row_blocks(sq.shape[0]):
        blk = sq[rows]
        total = np.add.outer(norms[rows], norms)
        blk *= -2.0
        blk += total
        total *= floor
        blk[blk <= total] = 0.0
    np.fill_diagonal(sq, 0.0)
    return sq


def build_kernel(z: DataMatrix | np.ndarray, p: KernelParams) -> KernelMatrix:
    """Assemble the full pairwise similarity matrix and degree vector."""
    values = z.values if isinstance(z, DataMatrix) else DataMatrix(z).values
    k = squared_distances(values)
    k /= -2.0 * p.sigma**2
    np.exp(k, out=k)
    k *= 1.0 / (math.sqrt(2.0 * math.pi) * p.sigma)  # diagonal: exp(0) * prefactor
    degrees = k.sum(axis=1)
    return KernelMatrix(k=k, degrees=degrees, sigma=p.sigma)


def laplacian_from_data(z: DataMatrix | np.ndarray, p: KernelParams) -> LaplacianMatrix:
    """Kernel matrix normalized into L = I - S in its own buffer: the same L
    as ``build_laplacian(build_kernel(z, p))`` with one N x N array."""
    km = build_kernel(z, p)
    return _normalize(km.k, km.degrees, km.sigma)


def build_laplacian(km: KernelMatrix) -> LaplacianMatrix:
    """Normalized Laplacian L = I - S, built in a copy of ``km.k``; ``km``
    is left unchanged."""
    return _normalize(km.k.copy(), km.degrees, km.sigma)


def _normalize(k: np.ndarray, deg: np.ndarray, sigma: float) -> LaplacianMatrix:
    """Overwrite the kernel matrix k with L = I - S and return it.

    With K~ = D^-1 K D^-1 and d~ its row sums, S_ij = k~_ij / sqrt(d~_i d~_j)
    = k_ij c_i c_j for the scale vector c = D^-1 D~^-1/2, applied in row
    blocks, so L is bit-exactly symmetric.
    """
    n = k.shape[0]
    if np.any(deg <= 0.0):
        raise ZeroDegreeError("kernel degree vector has a nonpositive entry")
    isolated = np.count_nonzero(deg - k.diagonal() <= n * np.finfo(np.float64).eps * deg)
    if isolated:
        raise DisconnectedGraphError(
            f"kernel graph is disconnected at sigma={sigma!r}: {isolated} of {n} point(s) "
            "have no neighbour above rounding; use a larger bandwidth"
        )
    inv = 1.0 / deg
    inv_sqrt = 1.0 / np.sqrt(inv * (k @ inv))  # d~ = D^-1 K D^-1 1
    scale = inv * inv_sqrt
    for rows in row_blocks(n):
        k[rows] *= np.outer(-scale[rows], scale)  # -(c_i c_j) exactly
    np.fill_diagonal(k, 1.0 + k.diagonal())
    return LaplacianMatrix(l=k, sigma=sigma, inv_sqrt_degrees=inv_sqrt)
