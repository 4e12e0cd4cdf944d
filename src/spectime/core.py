"""Shared domain types and deterministic conventions.

Data matrices are stored column-per-point: a matrix of N points in d
dimensions has shape (d, N).  Temporal labels are radians in [0, 2*pi].
A ranking is the sorting permutation of the labels: ``perm[j]`` is the
index of the point with the j-th smallest label, so ``labels[perm]`` is
ascending.  Ties sort by original index (stable), which makes every
operation in this package a pure function of its inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LabelRangeError,
    LengthMismatchError,
    NonFiniteEntryError,
    NotAPermutationError,
    TooFewPointsError,
)

TWO_PI = 2.0 * math.pi


class CurveKind(enum.Enum):
    """Topology of the underlying trajectory.

    Open curves (distinct endpoints) and closed loops (periodic
    trajectories) share one Laplacian (see ``kernel``); the kind picks
    only how many eigenvectors are computed (two or three) and the map
    from them to labels.
    """

    OPEN_CURVE = "open"
    CLOSED_LOOP = "closed"


def validate_matrix(values: np.ndarray) -> np.ndarray:
    """Check a raw array against the data-matrix contract.

    Returns the array as float64 with shape (d, N), d >= 1 and N >= 2,
    raising ``NonFiniteEntryError`` (first offender in row-major order)
    or ``TooFewPointsError`` otherwise.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise TooFewPointsError(f"expected a 2-D (d, N) matrix, got shape {arr.shape}")
    if arr.shape[1] < 2:
        raise TooFewPointsError(f"need at least 2 points, got N={arr.shape[1]}")
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteEntryError(row, col)
    return arr


def sum_of_squares(a: np.ndarray) -> float:
    """The sum of the squares of a's entries by one numpy reduction, not
    BLAS (``np.linalg.norm`` of a whole array is a BLAS dot product): no
    BLAS thread pool is woken, and the bits do not depend on its thread
    count."""
    v = a.ravel()
    return float(np.einsum("i,i->", v, v))


@dataclass(frozen=True)
class DataMatrix:
    """N points in d dimensions, one column per point.

    ``values`` is a read-only, C-ordered float64 (d, N) array.  The public
    constructor validates a copy of its argument, so later writes to the
    caller's array do not reach it; ``_adopt`` validates an array the
    library has just allocated and takes it over without a copy.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = validate_matrix(self.values).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "DataMatrix":
        """Wrap a freshly allocated array that no caller holds, uncopied;
        it becomes read-only."""
        arr = np.ascontiguousarray(validate_matrix(values))
        arr.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "values", arr)
        return out

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TimeLabels:
    """Vector of N temporal labels, radians in [0, 2*pi]."""

    angles: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.angles, dtype=np.float64).copy()
        if arr.ndim != 1:
            raise LengthMismatchError(f"labels must be a vector, got shape {arr.shape}")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteEntryError(0, bad[0])
        if arr.size and (arr.min() < 0.0 or arr.max() > TWO_PI):
            i = int(np.flatnonzero((arr < 0.0) | (arr > TWO_PI))[0])
            raise LabelRangeError(f"label {i} is {float(arr[i])!r}, outside [0, 2*pi]")
        arr.flags.writeable = False
        object.__setattr__(self, "angles", arr)

    def __len__(self) -> int:
        return self.angles.size

    @classmethod
    def wrapped(cls, angles: np.ndarray) -> "TimeLabels":
        """Construct with angles reduced modulo 2*pi into [0, 2*pi)."""
        return cls(np.mod(np.asarray(angles, dtype=np.float64), TWO_PI))


@dataclass(frozen=True)
class Ranking:
    """Sorting permutation of {0..N-1}: position j holds the index of the
    point with the j-th smallest label."""

    perm: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.perm)
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            raise NotAPermutationError("ranking must be a 1-D integer vector")
        arr = arr.astype(np.int64)
        n = arr.size
        seen = np.zeros(n, dtype=bool)
        if n and (arr.min() < 0 or arr.max() >= n):
            raise NotAPermutationError("ranking entries must lie in {0..N-1}")
        seen[arr] = True
        if not seen.all():
            raise NotAPermutationError("ranking has repeated entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "perm", arr)

    def __len__(self) -> int:
        return self.perm.size

    def ranks(self) -> np.ndarray:
        """Per-point ranks: ranks[i] is the position of point i in temporal
        order (the inverse permutation of ``perm``)."""
        inv = np.empty(self.perm.size, dtype=np.int64)
        inv[self.perm] = np.arange(self.perm.size)
        return inv

    @classmethod
    def from_ranks(cls, ranks: np.ndarray) -> "Ranking":
        """Build from per-point ranks (inverse of ``perm``), which must be a
        permutation of {0..N-1} themselves, else ``NotAPermutationError``."""
        return cls(cls(np.asarray(ranks, dtype=np.int64)).ranks())


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel bandwidth, in the same length units as the data.

    A valid sigma is positive, and 2 sigma^2 and 1 / (2 sigma^2) are both
    finite and positive (about 5e-155 < sigma < 9e153), so the kernel's
    exponent scale and its prefactor 1 / (sqrt(2 pi) sigma) are finite and
    positive; anything else raises ``ValueError``.
    """

    sigma: float

    def __post_init__(self):
        s = float(self.sigma)
        two_s2 = 2.0 * s * s
        if not (s > 0.0 and 0.0 < two_s2 < math.inf and 1.0 / two_s2 < math.inf):
            raise ValueError(
                f"sigma must be positive with 2 sigma^2 and 1/(2 sigma^2) finite, "
                f"got {self.sigma}")
        object.__setattr__(self, "sigma", s)


def ranking_from_labels(t: TimeLabels) -> Ranking:
    """Sorting permutation of the labels, ascending, ties by original index."""
    return Ranking(np.argsort(t.angles, kind="stable"))
