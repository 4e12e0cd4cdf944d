"""Alignment-invariant evaluation metrics.

Closed-loop labels are identifiable only up to a rotation and a
reflection, so the time-label error minimizes over both:

    err(t, t') = min over r in {+1,-1}, theta   max_i |[r t_i + theta - t'_i]_2pi|

with [.]_2pi the representative in [-pi, pi).  For a fixed reflection
branch the optimal theta is a circular one-center problem, solved
exactly by the largest-gap construction: sort the residuals
d_i = [t'_i - r t_i] on the circle, find the largest gap, and place
theta at the midpoint of the complementary arc; the error is half that
arc's length.  A brute-force theta grid is kept in the test suite as an
independent oracle.

Closed-loop ranking error quotients a cyclic shift n and the reflection
rank -> N - rank, with a modular term j in {0, +-1}; it is minimized
exactly over all N shifts and both reflections in O(N log N) time.  The
per-point cost min(|x|, |x - N|, |x + N|) is piecewise linear with peaks
at +-N/2 and keeps rising past 3N/2 (there it is not the circular
distance), so for each shift the worst point is one of the two extreme
offsets or a neighbour of a peak, found by binary search in the sorted
offsets.  A shift-table enumeration is kept in the test suite as the
oracle.

Open-curve metrics restrict to an interior window selected by the
*first* argument (the truth) and minimize only over reflection; they are
deliberately not symmetric in their arguments.  The window's margin is
one fraction of the time span 2pi, ``delta_fraction`` in [0, 0.5) at every
reader.

Ranks are 0-based throughout.  The closed-loop reflection is applied
verbatim as N - rank; the cyclic shift absorbs the unit offset from the
0-based convention, so quotient properties hold exactly.  The open-curve
reflected rank is N - 1 - rank, the true 0-based reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, DataMatrix, Ranking, TimeLabels, sum_of_squares
from .errors import ConfigError, DimensionMismatchError, EmptyInteriorError, LengthMismatchError
from .errors import TooFewPointsError, ZeroNormError
from .kernel import _CHUNK_ELEMENTS, _on_workers, row_blocks  # a slab: 512 KB of float64

DELTA_FRACTION = 0.05  # default interior margin of an open curve, a fraction of 2pi


@dataclass(frozen=True)
class AlignmentReport:
    """Metric value together with the symmetry element that realized it."""

    error: float
    r: int = 1  # reflection choice, +1 or -1
    theta: float | None = None  # rotation angle, closed-loop time metric only
    shift: int | None = None  # cyclic shift, closed-loop ranking metric only


def check_delta_fraction(delta_fraction: float) -> None:
    """The window rule: a margin in [0, 0.5), NaN refused, else ``ConfigError``."""
    if not 0.0 <= delta_fraction < 0.5:
        raise ConfigError(f"delta_fraction must lie in [0, 0.5), got {delta_fraction!r}")


def _check_lengths(a, b, least: int = 0) -> int:
    if len(a) != len(b):
        raise LengthMismatchError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < least:
        raise TooFewPointsError(f"need at least {least} point, got {len(a)}")
    return len(a)


def _best(reports) -> AlignmentReport:
    """The first report of least error."""
    return min(reports, key=lambda rep: rep.error)


def _reflection(a: np.ndarray, b: np.ndarray, top: float) -> AlignmentReport:
    """Sup distance from b to a (r = +1) or to top - a (r = -1); direct on a tie."""
    return _best([AlignmentReport(error=float(np.abs(a - b).max()), r=1),
                  AlignmentReport(error=float(np.abs(top - a - b).max()), r=-1)])


def _one_center(points: np.ndarray, r: int) -> AlignmentReport:
    """Minimax center theta of points on the circle via the largest gap,
    with the max circular distance at the optimum as the error of branch r."""
    s = np.sort(np.mod(points, TWO_PI))
    gaps = np.diff(s, append=s[0] + TWO_PI)
    j = int(np.argmax(gaps))
    arc = TWO_PI - float(gaps[j])
    start = s[(j + 1) % s.size]  # first point after the largest gap
    theta = float(np.mod(start + arc / 2.0, TWO_PI))
    return AlignmentReport(error=min(math.pi, arc / 2.0), r=r, theta=theta)


def err_closed_time(t: TimeLabels, t2: TimeLabels) -> AlignmentReport:
    """Rotation/reflection-invariant sup-norm distance between label vectors."""
    _check_lengths(t, t2, least=1)
    return _best(_one_center(np.mod(t2.angles - r * t.angles, TWO_PI), r) for r in (1, -1))


def _rank_cost(x: np.ndarray, n: int) -> np.ndarray:
    return np.minimum(np.abs(x), np.minimum(np.abs(x - n), np.abs(x + n)))


def err_closed_rank(p: Ranking, p2: Ranking) -> AlignmentReport:
    """Shift/reflection-invariant sup-norm distance between rankings,
    normalized by N."""
    n = _check_lengths(p, p2, least=1)
    r1 = p.ranks().astype(np.int64)
    r2 = p2.ranks().astype(np.int64)
    shifts = np.arange(n, dtype=np.int64)
    reports = []
    for refl, base in ((1, r1), (-1, n - r1)):
        a = np.sort(base - r2)  # point i sits at a_i + shift
        worst = np.maximum(_rank_cost(a[0] + shifts, n), _rank_cost(a[-1] + shifts, n))
        for peak in (-n / 2.0, n / 2.0):
            right = np.minimum(np.searchsorted(a, peak - shifts), n - 1)
            left = np.maximum(right - 1, 0)
            for idx in (left, right):
                np.maximum(worst, _rank_cost(a[idx] + shifts, n), out=worst)
        j = int(np.argmin(worst))
        reports.append(AlignmentReport(error=float(worst[j]) / n, r=refl, shift=j))
    return _best(reports)


def err_open_time(t: TimeLabels, t2: TimeLabels, delta_fraction: float) -> AlignmentReport:
    """Reflection-invariant sup-norm label distance on the interior
    delta < t_i < 2*pi - delta, delta = delta_fraction * 2pi, interior
    selected by the first argument."""
    _check_lengths(t, t2)
    check_delta_fraction(delta_fraction)
    delta = delta_fraction * TWO_PI
    mask = (t.angles > delta) & (t.angles < TWO_PI - delta)
    if not mask.any():
        raise EmptyInteriorError(f"no label inside ({delta}, {TWO_PI - delta})")
    return _reflection(t.angles[mask], t2.angles[mask], TWO_PI)


def err_open_rank(p: Ranking, p2: Ranking, delta_fraction: float) -> AlignmentReport:
    """Reflection-invariant sup-norm rank distance on the interior
    N*delta_fraction <= rank_i <= N*(1-delta_fraction), interior selected
    by the first argument.  Unnormalized (counts ranks)."""
    n = _check_lengths(p, p2)
    check_delta_fraction(delta_fraction)
    r1 = p.ranks()
    r2 = p2.ranks()
    mask = (r1 >= n * delta_fraction) & (r1 <= n * (1.0 - delta_fraction))
    if not mask.any():
        raise EmptyInteriorError("no rank inside the interior window")
    return _reflection(r1[mask], r2[mask], n - 1)


def relative_error(x: DataMatrix, p: Ranking, p2: Ranking) -> float:
    """Frobenius distance between the two column arrangements of x,
    relative to ||x||_F, minimized over p2's orientation (an ordering is
    identifiable only up to reflection; a loop's rotation is not undone)."""
    if len(p) != x.n_points or len(p2) != x.n_points:
        raise LengthMismatchError("ranking length does not match the matrix")
    denom_sq, nums = _arrangement_distances_sq(x.values, p.perm, p2.perm, p2.perm[::-1])
    if denom_sq == 0.0:
        raise ZeroNormError("matrix has zero Frobenius norm")
    return min(math.sqrt(d) / math.sqrt(denom_sq) for d in nums)


def snr(x: DataMatrix, e: DataMatrix) -> float:
    """Signal-to-noise ratio ||X||_F^2 / ||E||_F^2 (+inf for zero noise)."""
    if x.values.shape != e.values.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {x.values.shape} vs {e.values.shape}"
        )
    noise = sum_of_squares(e.values)
    if noise == 0.0:
        return math.inf
    return sum_of_squares(x.values) / noise


def interior_relative_error(
    x: DataMatrix,
    t_true: TimeLabels,
    t_est: np.ndarray | TimeLabels,
    delta_fraction: float = DELTA_FRACTION,
) -> float:
    """Benchmark-style relative error restricted to the interior window.

    Keeps the points whose true label lies in ``err_open_time``'s window
    (delta, 2pi - delta), delta = delta_fraction * 2pi, arranges them by
    true and by estimated order, and returns the relative Frobenius
    distance, minimized over the estimate's orientation (open-curve
    recoveries are identifiable only up to reflection).  ``t_est`` may be
    any monotone proxy for estimated time, e.g. recovered labels or
    baseline Fiedler scores.
    """
    est = t_est.angles if isinstance(t_est, TimeLabels) else np.asarray(t_est, dtype=np.float64)
    if len(t_true) != x.n_points or est.size != x.n_points:
        raise LengthMismatchError("labels do not match the matrix")
    check_delta_fraction(delta_fraction)
    delta = delta_fraction * TWO_PI
    mask = (t_true.angles > delta) & (t_true.angles < TWO_PI - delta)
    if not mask.any():
        raise EmptyInteriorError("interior window is empty")
    cols = np.flatnonzero(mask)
    true_cols = cols[np.argsort(t_true.angles[mask], kind="stable")]
    arranged = [cols[np.argsort(oriented, kind="stable")] for oriented in (est[mask], -est[mask])]
    denom_sq, nums = _arrangement_distances_sq(x.values, true_cols, *arranged)
    if denom_sq == 0.0:
        raise ZeroNormError("interior submatrix has zero Frobenius norm")
    return min(math.sqrt(d) / math.sqrt(denom_sq) for d in nums)


def _arrangement_distances_sq(values: np.ndarray, ref: np.ndarray,
                              *cols: np.ndarray) -> tuple[float, list[float]]:
    """||values[:, ref]||_F^2 and, for each rearrangement c of ref's
    columns in ``cols``, ||values[:, c] - values[:, ref]||_F^2, which is
    the sum over the columns i of ref of ||v_m(i) - v_i||^2 with
    m(ref_j) = c_j.  One pass of row slabs of about ``_CHUNK_ELEMENTS``
    entries gathers ref's columns once per slab, or reads the slab as it
    is when ref holds every column, and each c with one more gather; it
    never copies ``values`` whole.  The slabs are dealt to the kernel's
    workers, one per 32 MB of ``values``; each slab's sums are kept and
    added in slab order, so the values do not depend on the worker
    count."""
    n = values.shape[1]
    own = None if ref.size == n else np.sort(ref)
    moved = []
    for c in cols:
        m = np.empty(n, dtype=np.intp)
        m[ref] = c
        moved.append(m if own is None else m[own])
    slabs = list(row_blocks(values.shape[0], ref.size, _CHUNK_ELEMENTS))
    sums = np.empty((len(slabs), 1 + len(cols)))

    def run(jobs):
        for i in jobs:
            slab = values[slabs[i]]  # contiguous rows: cache-friendly gathers
            # np.take returns C-ordered rows; slab[:, m] did not, and the
            # subtraction below ran 2.4x slower on it (d=5000, one thread)
            base = slab if own is None else np.take(slab, own, axis=1)
            sums[i, 0] = np.einsum("ij,ij->", base, base)
            for j, m in enumerate(moved, start=1):
                diff = np.take(slab, m, axis=1)
                diff -= base
                sums[i, j] = np.einsum("ij,ij->", diff, diff)

    _on_workers(run, range(len(slabs)), values.shape)
    ref_sq, *nums = (float(s) for s in sums.sum(axis=0))
    return ref_sq, nums
