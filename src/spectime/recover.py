"""Map Fiedler eigenvectors to temporal labels and rankings.

Open curves: the random-walk Fiedler vector f (see ``kernel``) tracks
the first Neumann eigenfunction cos(t/2) of the curve (t rescaled to
[0, 2pi]), so labels follow from t_hat = 2*arccos of the suitably
scaled entries (``recover_open``).  The raw formula assumes entries of
size cos(t_i/2)/sqrt(N); a unit-norm eigenvector under uniformly drawn
labels actually carries amplitude sqrt(2/N), because the mean square of
cos(t/2) over the curve is 1/2.  ``recover_open``'s ``amplitude``
argument selects the assumed scale (1.0 reproduces the raw formula);
the pipeline's ``recover_open_blend`` always uses
``UNIFORM_LABEL_AMPLITUDE`` = sqrt 2, which matches unit-norm
eigenvectors.  Entries outside arccos's domain are clamped and counted.

arccos multiplies any error in an entry by 2/sin(t/2), about 25 at
t = 0.05*pi, so it is unreliable near the ends of the curve.  The
pipeline labels open curves with ``recover_open_blend``, which hands
over there to the rank quantile of f; mid-curve the arccos label
dominates.  The quantile is exact in expectation when the labels are
drawn uniformly, an assumption of this map, not of the operator.

Closed loops: the second and third eigenvectors track cos(t) and
sin(t) up to a common rotation/reflection of the pair, and the angle
cancels any amplitude, including a positive scale per point such as
the operator's D~^-1/2, so the label is just atan2(f3, f2) in
[0, 2pi).

Bandwidth selection follows the consistency analysis of the two cases:
sigma = max(N^(-1/7), eps^(1/4)) for closed loops and
max(N^(-1/14), eps^(2/7)) for open curves, with eps the caller's
per-point noise magnitude (0 when unknown).  A data-driven alternative
picks sigma on a log grid where log sum_ij k_ij grows fastest in
log sigma, a common kernel-bandwidth heuristic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, CurveKind, DataMatrix, KernelParams, Ranking, TimeLabels, ranking_from_labels
from .errors import CoincidentPointsError, LengthMismatchError
from .kernel import squared_distances

UNIFORM_LABEL_AMPLITUDE = math.sqrt(2.0)

DEGENERATE_SQ_NORM = 1e-24


@dataclass(frozen=True)
class RecoveryOutput:
    """Recovered labels and the ranking they induce."""

    labels: TimeLabels
    ranking: Ranking
    kind: CurveKind
    clamped_count: int = 0


def _as_unit_vector(f: np.ndarray, n: int | None, name: str) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64).ravel()
    if n is not None and f.size != n:
        raise LengthMismatchError(f"{name} has length {f.size}, expected {n}")
    return f


def recover_open(f2: np.ndarray, n: int | None = None, amplitude: float = 1.0) -> RecoveryOutput:
    """Labels from the open-curve Fiedler vector.

    t_hat_i = 2 * arccos(clamp(sqrt(N) * f2_i / amplitude, -1, 1)).
    ``clamped_count`` reports how many entries fell outside [-1, 1]
    before clamping.
    """
    f2 = _as_unit_vector(f2, n, "f2")
    arg = math.sqrt(f2.size) * f2 / float(amplitude)
    clamped = int(np.count_nonzero(np.abs(arg) > 1.0))
    t_hat = 2.0 * np.arccos(np.clip(arg, -1.0, 1.0))
    labels = TimeLabels(t_hat)
    return RecoveryOutput(
        labels=labels,
        ranking=ranking_from_labels(labels),
        kind=CurveKind.OPEN_CURVE,
        clamped_count=clamped,
    )


def recover_open_blend(f: np.ndarray, n: int | None = None) -> RecoveryOutput:
    """Labels from the open-curve random-walk Fiedler vector, any scale.

    t_arccos is ``recover_open`` on f scaled to unit norm, amplitude
    ``UNIFORM_LABEL_AMPLITUDE``; rank counts down from the largest entry
    of f (larger entries have smaller labels, as under arccos), ties by
    index; t_q = 2pi (rank + 1/2) / N;

        t_hat_i = sin^2(t_q,i / 2) * t_arccos,i + cos^2(t_q,i / 2) * t_q,i.

    Ranks come from f itself, so entries that arccos clamps to 0 or
    2pi keep their order.  ``clamped_count`` is the arccos map's.
    """
    f = _as_unit_vector(f, n, "f")
    arc = recover_open(f / np.linalg.norm(f), amplitude=UNIFORM_LABEL_AMPLITUDE)
    ranks = np.empty(f.size)
    ranks[np.argsort(-f, kind="stable")] = np.arange(f.size)
    t_q = TWO_PI * (ranks + 0.5) / f.size
    weight = np.sin(0.5 * t_q) ** 2
    t_hat = weight * arc.labels.angles + (1.0 - weight) * t_q
    labels = TimeLabels(np.clip(t_hat, 0.0, TWO_PI))
    return RecoveryOutput(
        labels=labels,
        ranking=ranking_from_labels(labels),
        kind=CurveKind.OPEN_CURVE,
        clamped_count=arc.clamped_count,
    )


def recover_closed(f2: np.ndarray, f3: np.ndarray, n: int | None = None) -> RecoveryOutput:
    """Labels from the two closed-loop Fiedler vectors.

    t_hat_i is the angle whose cosine and sine are f2_i and f3_i after
    normalizing the pair, i.e. atan2(f3_i, f2_i) wrapped into [0, 2pi).
    Points where both entries vanish have no defined angle; they are
    assigned label 0 with a warning rather than aborting the recovery.
    """
    f2 = _as_unit_vector(f2, n, "f2")
    f3 = _as_unit_vector(f3, n, "f3")
    if f2.size != f3.size:
        raise LengthMismatchError(f"f2 and f3 lengths differ: {f2.size} vs {f3.size}")
    degenerate = f2**2 + f3**2 < DEGENERATE_SQ_NORM
    if degenerate.any():
        idx = np.nonzero(degenerate)[0]
        warnings.warn(
            f"{idx.size} point(s) with vanishing Fiedler entries assigned label 0 "
            f"(first index {int(idx[0])})",
            RuntimeWarning,
            stacklevel=2,
        )
    t_hat = np.mod(np.arctan2(f3, f2), TWO_PI)
    t_hat[degenerate] = 0.0
    labels = TimeLabels(t_hat)
    return RecoveryOutput(
        labels=labels,
        ranking=ranking_from_labels(labels),
        kind=CurveKind.CLOSED_LOOP,
    )


def select_bandwidth(n: int, eps: float = 0.0, kind: CurveKind = CurveKind.CLOSED_LOOP) -> KernelParams:
    """Rate-optimal Gaussian bandwidth for a given sample size and noise level."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if kind is CurveKind.CLOSED_LOOP:
        sigma = max(n ** (-1.0 / 7.0), eps ** (1.0 / 4.0))
    else:
        sigma = max(n ** (-1.0 / 14.0), eps ** (2.0 / 7.0))
    return KernelParams(sigma)


def data_driven_bandwidth(z: DataMatrix, num: int = 25) -> KernelParams:
    """Heuristic bandwidth from the data: maximize the log-log slope of the
    total kernel mass sum_ij k(Z_i, Z_j; sigma) over a geometric sigma grid.

    This is a pragmatic fallback for data whose noise level is unknown,
    not a tuned or theory-backed rule.  Raises ``CoincidentPointsError``
    when no two points are apart.
    """
    # each pair once: the strict upper triangle
    sq = squared_distances(z.values)[~np.tri(z.n_points, dtype=bool)]
    positive = sq[sq > 0]
    if positive.size == 0:
        raise CoincidentPointsError(
            f"all {z.n_points} points coincide; the data-driven bandwidth is undefined")
    lo = math.sqrt(float(np.quantile(positive, 0.01))) / 4.0
    hi = math.sqrt(float(positive.max()))
    sigmas = np.geomspace(lo, hi, num)
    mass = np.array(
        [
            2.0 * np.exp(-sq / (2.0 * s * s)).sum() + z.n_points
            for s in sigmas
        ]
    ) / (np.sqrt(2.0 * math.pi) * sigmas)
    slope = np.gradient(np.log(mass), np.log(sigmas))
    return KernelParams(float(sigmas[int(np.argmax(slope))]))
