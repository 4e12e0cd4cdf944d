"""Recovery: bandwidth -> kernel -> Laplacian -> Fiedler vector(s) -> labels.

``recover_labels`` is the whole path from data to labels; the CLI and
the pipeline call it.  Both curve kinds use the same Laplacian (see ``kernel``); the kind picks how
many eigenpairs are solved and which map turns them into labels.

Open curves: the random-walk Fiedler vector f (see ``kernel``) tracks
the first Neumann eigenfunction cos(t/2) of the curve (t rescaled to
[0, 2pi]), so labels follow from t_hat = 2*arccos of its scaled
entries.  Under uniformly drawn labels a unit-norm eigenvector carries
amplitude sqrt(2/N), because the mean square of cos(t/2) over the curve
is 1/2; ``recover_open`` divides by that amplitude, clamps the argument
into arccos's domain and counts the clamped entries.  arccos multiplies
any error in an entry by 2/sin(t/2), about 25 at t = 0.05*pi, so it is
unreliable near the ends of the curve; ``recover_open`` hands over
there to the rank quantile of f, and mid-curve the arccos label
dominates.  The amplitude and the quantile are exact in expectation
when the labels are drawn uniformly, an assumption of this map, not of
the operator.

Closed loops: the second and third eigenvectors track cos(t) and
sin(t) up to a common rotation/reflection of the pair, and the angle
cancels any amplitude, including a positive scale per point such as
the operator's D~^-1/2, so the label is just atan2(f3, f2) in
[0, 2pi).

Bandwidth: a setting is a positive number or the name of one of two
rules (``check_bandwidth``).  ``"auto"`` follows the consistency
analysis of the two cases: sigma = N^(-1/7) for closed loops and
N^(-1/14) for open curves.  ``"data"`` picks sigma on a log grid where
log sum_ij k_ij grows fastest in log sigma, a common kernel-bandwidth
heuristic.
"""

from __future__ import annotations

import math
import resource
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .core import TWO_PI, CurveKind, DataMatrix, KernelParams, Ranking, TimeLabels, ranking_from_labels
from .core import sum_of_squares
from .eigen import smallest_eigenpairs
from .errors import CoincidentPointsError, ConfigError, DisconnectedGraphError
from .errors import LengthMismatchError, TooFewPointsError
from .kernel import _squared_distances, build_kernel, build_laplacian, exponent_floor, row_blocks
from .synth import check_sample

_UNIFORM_LABEL_AMPLITUDE = math.sqrt(2.0)  # of a unit-norm cos(t/2) under uniform labels

DEGENERATE_SQ_NORM = 1e-24

DATA_BANDWIDTH_GRID = 25  # sigmas on the log grid of data_driven_bandwidth

CLOSED_MIN_POINTS = 3  # a closed loop's recovery reads three eigenpairs


@dataclass(frozen=True)
class RecoveryOutput:
    """Recovered labels and the ranking they induce; ``recover_labels`` adds
    the bandwidth it used and its eigensolve's diagnostics."""

    labels: TimeLabels
    ranking: Ranking
    clamped_count: int = 0
    sigma: float | None = None
    sigma_rule: str | None = None  # "auto", "data" or "fixed" (a number given)
    solver_path: str | None = None  # SpectralResult.path: "dense" or "block"
    eigenvalues: tuple[float, ...] = ()  # the k smallest, ascending
    max_residual: float | None = None  # largest ||L v - lambda v||
    applications: int | None = None  # vectors the eigensolver applied its operator to
    stage_ms: dict[str, float] | None = None  # bandwidth, kernel, laplacian, eigensolve, labels
    stage_peak_mb: dict[str, float] | None = None  # each stage's rise of the peak resident size

    def report(self) -> dict:
        """The JSON-ready diagnostics: everything but the labels and the ranking."""
        return {"sigma": self.sigma, "sigma_rule": self.sigma_rule,
                "clamped_count": self.clamped_count,
                "solver_path": self.solver_path, "eigenvalues": list(self.eigenvalues),
                "max_residual": self.max_residual, "applications": self.applications,
                "stage_ms": self.stage_ms, "stage_peak_mb": self.stage_peak_mb}


def recover_labels(
    z: DataMatrix,
    kind: CurveKind,
    sigma: float | str = "auto",
) -> RecoveryOutput:
    """Bandwidth -> kernel -> Laplacian -> Fiedler vector(s) -> labels.

    ``sigma``: a setting ``check_bandwidth`` accepts; the sigma it resolves
    to comes back as ``RecoveryOutput.sigma``, and the rule that chose it
    (``"auto"``, ``"data"`` or ``"fixed"``) as ``sigma_rule``.

    Open curves map the Fiedler vector u2 back to the random-walk vector
    D~^-1/2 u2 and label it with ``recover_open``.  Closed loops
    read u2, u3 directly: atan2(u3, u2) is unchanged by the common
    positive scale D~^-1/2, and ``recover_closed``'s degeneracy threshold
    is set for unit-norm columns.  The kernel, the Laplacian and the
    eigensolve share one packed symmetric matrix, half an N x N array.

    L has one zero eigenvalue per connected component of the kernel
    graph, so a second eigenvalue at rounding level (at most N * eps)
    means the Fiedler vectors only tell the components apart; that
    raises ``DisconnectedGraphError`` instead of labels, naming sigma and
    the count of computed eigenvalues at rounding level, a lower bound
    on the number of components.

    A closed loop needs three eigenpairs, so fewer than 3 points raise
    ``TooFewPointsError`` before the bandwidth is chosen, and points that
    all coincide raise ``CoincidentPointsError`` under every sigma rule.
    The returned output carries the eigensolve's path, eigenvalues,
    largest residual and operator applications, and for each stage its
    wall time in ms and how far it raised the process's peak resident
    size (``ru_maxrss``) in MB (``RecoveryOutput.report``).  A stage that
    stays below an earlier peak, of this recovery or of anything the
    process ran before, reads 0.
    """
    sigma = check_bandwidth(sigma)
    if kind is CurveKind.CLOSED_LOOP and z.n_points < CLOSED_MIN_POINTS:
        raise TooFewPointsError(f"a closed loop needs at least {CLOSED_MIN_POINTS} points, "
                                f"got N={z.n_points}")
    if not np.ptp(z.values, axis=1).any():
        raise CoincidentPointsError(f"all {z.n_points} points coincide; they have no order")
    stage_ms: dict[str, float] = {}
    stage_peak_mb: dict[str, float] = {}
    with _timed(stage_ms, stage_peak_mb, "bandwidth"):
        if sigma == "auto":
            params = select_bandwidth(z.n_points, kind=kind)
        elif sigma == "data":
            params = data_driven_bandwidth(z)
        else:
            params = KernelParams(sigma)
    with _timed(stage_ms, stage_peak_mb, "kernel"):
        km = build_kernel(z, params)
    with _timed(stage_ms, stage_peak_mb, "laplacian"):
        lap = build_laplacian(km)
    with _timed(stage_ms, stage_peak_mb, "eigensolve"):
        spectral = smallest_eigenpairs(lap, k=2 if kind is CurveKind.OPEN_CURVE else 3)
    rounding = lap.n * np.finfo(np.float64).eps
    zeros = int(np.count_nonzero(spectral.eigenvalues <= rounding))
    if zeros > 1:
        raise DisconnectedGraphError(
            f"kernel graph is disconnected at sigma={params.sigma!r}: {zeros} of the "
            f"{spectral.eigenvalues.size} computed Laplacian eigenvalues are at rounding level "
            f"(at most N*eps = {rounding:.3e}), so the graph has more than one component, "
            f"at least {zeros}; use a larger bandwidth")
    u = spectral.eigenvectors
    with _timed(stage_ms, stage_peak_mb, "labels"):
        if kind is CurveKind.OPEN_CURVE:
            out = recover_open(lap.inv_sqrt_degrees * u[:, 1])
        else:
            out = recover_closed(u[:, 1], u[:, 2])
    return replace(out, sigma=params.sigma, solver_path=spectral.path,
                   sigma_rule=sigma if isinstance(sigma, str) else "fixed",
                   eigenvalues=tuple(spectral.eigenvalues.tolist()),
                   max_residual=float(spectral.residuals.max()),
                   applications=spectral.applications, stage_ms=stage_ms,
                   stage_peak_mb=stage_peak_mb)


@contextmanager
def _timed(stage_ms: dict[str, float], stage_peak_mb: dict[str, float], name: str):
    """Record the block's wall time in ms as ``stage_ms[name]`` and the rise
    of the process's peak resident size during it in MB (Linux reports
    ``ru_maxrss`` in KiB) as ``stage_peak_mb[name]``."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    yield
    stage_ms[name] = 1000.0 * (time.perf_counter() - started)
    stage_peak_mb[name] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak) / 1024.0


def recover_open(f: np.ndarray) -> RecoveryOutput:
    """Labels from the open-curve random-walk Fiedler vector, any scale.

    With u = f / ||f||, t_arccos = 2 arccos(clamp(sqrt(N) u / sqrt 2,
    -1, 1)); rank counts down from the largest entry of f (larger
    entries have smaller labels, as under arccos), ties by index;
    t_q = 2pi (rank + 1/2) / N;

        t_hat_i = sin^2(t_q,i / 2) * t_arccos,i + cos^2(t_q,i / 2) * t_q,i.

    Ranks come from f itself, so entries that arccos clamps to 0 or
    2pi keep their order.  ``clamped_count`` reports how many arccos
    arguments fell outside [-1, 1] before clamping.
    """
    f = np.asarray(f, dtype=np.float64).ravel()
    arg = math.sqrt(f.size) * (f / math.sqrt(sum_of_squares(f))) / _UNIFORM_LABEL_AMPLITUDE
    t_arccos = 2.0 * np.arccos(np.clip(arg, -1.0, 1.0))
    ranks = np.empty(f.size)
    ranks[np.argsort(-f, kind="stable")] = np.arange(f.size)
    t_q = TWO_PI * (ranks + 0.5) / f.size
    weight = np.sin(0.5 * t_q) ** 2
    t_hat = weight * t_arccos + (1.0 - weight) * t_q
    labels = TimeLabels(np.clip(t_hat, 0.0, TWO_PI))
    return RecoveryOutput(
        labels=labels,
        ranking=ranking_from_labels(labels),
        clamped_count=int(np.count_nonzero(np.abs(arg) > 1.0)),
    )


def recover_closed(f2: np.ndarray, f3: np.ndarray) -> RecoveryOutput:
    """Labels from the two closed-loop Fiedler vectors.

    t_hat_i is the angle whose cosine and sine are f2_i and f3_i after
    normalizing the pair, i.e. atan2(f3_i, f2_i) wrapped into [0, 2pi).
    Points where both entries vanish have no defined angle; they are
    assigned label 0 with a warning rather than aborting the recovery.
    """
    f2 = np.asarray(f2, dtype=np.float64).ravel()
    f3 = np.asarray(f3, dtype=np.float64).ravel()
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
    return RecoveryOutput(labels=labels, ranking=ranking_from_labels(labels))


def select_bandwidth(n: int, *, kind: CurveKind) -> KernelParams:
    """Rate-optimal Gaussian bandwidth for a sample of n points of ``kind``."""
    check_sample(n)
    rate = 7.0 if kind is CurveKind.CLOSED_LOOP else 14.0
    return KernelParams(n ** (-1.0 / rate))


def data_driven_bandwidth(z: DataMatrix) -> KernelParams:
    """Heuristic bandwidth from the data: maximize the log-log slope of the
    total kernel mass sum_ij k(Z_i, Z_j; sigma) over a geometric sigma grid.

    This is a pragmatic fallback for data whose noise level is unknown,
    not a tuned or theory-backed rule.  Raises ``CoincidentPointsError``
    when no two points are apart.

    Each exponent is clamped at the kernel's floor F (``exponent_floor``),
    so a term below e^F reads e^F: the N^2 such terms at most add N^2 e^F,
    far under ulp(N), to 2 * sum + N.  The pairs are read from the packed
    distance matrix's strips, each pair once, in row order, and the
    positive ones from the pairs a block at a time, so at most two arrays
    of N(N - 1)/2 entries are live at once; the 25 passes share one buffer
    of that size beside the pairs themselves.
    """
    sq = _squared_distances(z.values)
    positive = np.empty(np.count_nonzero(sq))  # no pair is negative
    if positive.size == 0:
        raise CoincidentPointsError(
            f"all {z.n_points} points coincide; the data-driven bandwidth is undefined")
    at = 0
    for block in row_blocks(sq.size, 1):
        kept = sq[block][sq[block] > 0]
        positive[at : at + kept.size] = kept
        at += kept.size
    hi = math.sqrt(float(positive.max()))
    lo = math.sqrt(float(np.quantile(positive, 0.01, overwrite_input=True))) / 4.0
    del positive
    sigmas = np.geomspace(lo, hi, DATA_BANDWIDTH_GRID)
    floor = exponent_floor(z.n_points)
    terms = np.empty_like(sq)
    mass = np.empty(DATA_BANDWIDTH_GRID)
    for i, s in enumerate(sigmas):
        np.divide(sq, -2.0 * s * s, out=terms)
        np.maximum(terms, floor, out=terms)  # keeps exp off its slow path
        mass[i] = 2.0 * np.exp(terms, out=terms).sum() + z.n_points
    mass /= np.sqrt(2.0 * math.pi) * sigmas
    slope = np.gradient(np.log(mass), np.log(sigmas))
    return KernelParams(float(sigmas[int(np.argmax(slope))]))


def check_bandwidth(sigma: float | str) -> float | str:
    """The sigma of a bandwidth setting: ``"auto"`` or ``"data"`` as given,
    anything else as a float (numeric strings included) that ``KernelParams``
    accepts.  Else ``ConfigError``."""
    if isinstance(sigma, str) and sigma in ("auto", "data"):
        return sigma
    try:
        return KernelParams(float(sigma)).sigma
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"sigma must be a positive number, 'auto' or 'data', got {sigma!r} ({exc})") from exc
