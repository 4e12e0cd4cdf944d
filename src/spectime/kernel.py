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

The kernel matrix is built in one N x N buffer, one strip of rows of
its upper triangle at a time: a ``gemm`` writes the strip's block of the
Gram product G = V^T V in place, and ||v_i - v_j||^2 = (n_i + n_j) -
2 G_ij with n_i = ||v_i||^2, the distance floor, the exponential and the
prefactor follow while the strip is in cache.  ``mirror_upper`` then
copies the upper triangle onto the lower one, so the matrix is
bit-exactly symmetric by construction; no copy of the data is made.
``build_laplacian`` then writes L over that same buffer, ``km.k``, so the
recovery path holds one N x N array from the Gram product to the
eigensolve, and a ``KernelMatrix`` no longer holds its kernel once its
Laplacian is built.  The output is reproducible at a fixed BLAS
thread count; a different count can change the last bits of G and of the
eigensolver's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, KernelParams
from .errors import DisconnectedGraphError


_BLOCK_ELEMENTS = 1 << 18  # row block of the N x N passes, 2 MB of float64
_TILE = 128  # side of the square tiles that mirror a triangle


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric N x N Gaussian similarity matrix with its degree vector;
    ``build_laplacian`` writes L over ``k``."""

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
    sq = np.empty((values.shape[1],) * 2)
    for _ in _upper_strips(values, sq):
        pass
    mirror_upper(sq)
    return sq


def _upper_strips(values: np.ndarray, out: np.ndarray):
    """Write the squared distances between the columns of ``values`` into
    the upper triangle of ``out`` and yield each row block's strip
    out[rows, rows.start:] while it is in cache; ``mirror_upper`` then
    overwrites the part below the diagonal."""
    norms = np.einsum("ij,ij->j", values, values)
    floor = (values.shape[0] + 2) * np.finfo(np.float64).eps
    for rows in row_blocks(out.shape[0]):
        s = rows.start
        strip = np.matmul(values[:, rows].T, values[:, s:], out=out[rows, s:])
        total = np.add.outer(norms[rows], norms[s:])
        strip *= -2.0
        strip += total
        total *= floor
        strip[strip <= total] = 0.0
        del total  # one strip temporary at a time
        np.fill_diagonal(strip, 0.0)  # strip[i, i] is the entry (s + i, s + i)
        yield strip


def mirror_upper(a: np.ndarray) -> None:
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


def build_kernel(z: DataMatrix | np.ndarray, p: KernelParams) -> KernelMatrix:
    """Assemble the full pairwise similarity matrix and degree vector."""
    values = z.values if isinstance(z, DataMatrix) else DataMatrix(z).values
    k = np.empty((values.shape[1],) * 2)
    prefactor = 1.0 / (math.sqrt(2.0 * math.pi) * p.sigma)
    for strip in _upper_strips(values, k):
        strip /= -2.0 * p.sigma**2
        np.exp(strip, out=strip)
        strip *= prefactor  # diagonal: exp(0) * prefactor
    mirror_upper(k)
    return KernelMatrix(k=k, degrees=k.sum(axis=1), sigma=p.sigma)


def build_laplacian(km: KernelMatrix) -> LaplacianMatrix:
    """Overwrite the kernel matrix ``km.k`` with L = I - S and return it, so
    L shares the kernel's buffer; ``km.degrees`` is left as it was.

    With K~ = D^-1 K D^-1 and d~ its row sums, S_ij = k~_ij / sqrt(d~_i d~_j)
    = k_ij c_i c_j for the scale vector c = D^-1 D~^-1/2, applied in row
    blocks, so L is bit-exactly symmetric.  Every degree holds the self
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
    inv_sqrt = 1.0 / np.sqrt(inv * (k @ inv))  # d~ = D^-1 K D^-1 1
    scale = inv * inv_sqrt
    for rows in row_blocks(n):
        k[rows] *= np.outer(-scale[rows], scale)  # -(c_i c_j) exactly
    np.fill_diagonal(k, 1.0 + k.diagonal())
    return LaplacianMatrix(l=k, sigma=sigma, inv_sqrt_degrees=inv_sqrt)
