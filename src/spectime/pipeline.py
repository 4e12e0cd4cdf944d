"""End-to-end composition: generate -> denoise -> recover -> evaluate.

The unit of work is a data set, one ``PipelineConfig``, which checks
every per-run setting before any work.  ``run_pipeline`` scores its
recovered labels and ``run_baseline`` the pairwise-comparison baseline,
on the same sample and interior window (``_interior_error``): an open
curve drops ``delta_fraction`` of its span at each end, a loop no point,
and its report's ``delta_fraction`` is None.

Recovery builds the same Laplacian for both curve kinds; the kind picks
only how many eigenpairs are solved and which map turns them into
labels: ``recover_open`` for an open curve, ``recover_closed`` for a
closed loop.  The bandwidth is one setting, a number, ``"auto"`` or
``"data"``, resolved by ``recover_labels``.  Each stage is a
pure function of its inputs and the seeds in the config, so rerunning
any stage from its persisted inputs reproduces its outputs.  When an
output directory is given, every stage's artifact is written before the
next stage begins (z.csv, t_true.csv, coords.csv, recovered.csv,
report.json).

After denoising, recovery reads the denoiser's (r_hat, N) coordinates
``DenoiseResult.coords``, which coords.csv holds: they have the pairwise
distances of the d x N projection, so the bandwidth and the kernel see
the same geometry at r_hat/d of the Gram cost.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import io
from .core import TWO_PI, CurveKind, DataMatrix, KernelParams, TimeLabels
from .denoise import ETA, DenoiseResult, check_denoise, denoise_auto, denoise_fixed_rank
from .eigen import smallest_eigenpairs
from .errors import ConfigError, DisconnectedGraphError, TooFewPointsError
from .kernel import LaplacianMatrix, build_kernel, build_laplacian
from .metrics import DELTA_FRACTION, check_delta_fraction, err_closed_time, err_open_time
from .metrics import interior_relative_error
from .recover import RecoveryOutput, check_bandwidth, recover_closed, recover_open
from .recover import data_driven_bandwidth, select_bandwidth
from .synth import CurveSpec, check_sample, noisy_sample, serialrank_baseline

CLOSED_MIN_POINTS = 3  # a closed loop's recovery reads three eigenpairs


@dataclass(frozen=True)
class PipelineConfig:
    """One generate/denoise/recover/evaluate run."""

    curve: CurveSpec
    n: int
    seed: int = 0
    snr: float | None = None  # exact target SNR, or
    eps: float | None = None  # entrywise noise standard deviation
    sigma: float | str = "auto"  # fixed bandwidth | auto (rate formula) | data (log-mass slope)
    noise_level: float = 0.0  # eps handed to the auto bandwidth formula
    denoise_rank: int | None = None  # fixed-rank projection
    denoise_auto_r0: int | None = None  # randomized rank estimation
    denoise_eta: float = ETA
    delta_fraction: float = DELTA_FRACTION  # read by open curves only
    out_dir: str | None = None

    def __post_init__(self):
        check_sample(self.n, self.snr, self.eps)
        if self.curve.kind is CurveKind.CLOSED_LOOP and self.n < CLOSED_MIN_POINTS:
            raise ConfigError(f"a closed loop needs at least {CLOSED_MIN_POINTS} points, "
                              f"got n={self.n}")
        check_denoise(self.denoise_rank, self.denoise_auto_r0, self.denoise_eta,
                      min(self.curve.embed_dim or 2, self.n))
        object.__setattr__(self, "sigma", check_bandwidth(self.sigma, self.noise_level))
        check_delta_fraction(self.delta_fraction)
        if self.curve.kind is CurveKind.CLOSED_LOOP and self.delta_fraction != DELTA_FRACTION:
            raise ConfigError(f"a closed loop reads no delta_fraction, got {self.delta_fraction!r}")


def recover_labels(
    z: DataMatrix,
    kind: CurveKind,
    sigma: float | str = "auto",
    noise_level: float = 0.0,
    on_laplacian: Callable[[LaplacianMatrix], None] | None = None,
) -> RecoveryOutput:
    """Bandwidth -> kernel -> Laplacian -> Fiedler vector(s) -> labels.

    ``sigma``, ``noise_level``: a setting ``check_bandwidth`` accepts; the
    sigma it resolves to comes back as ``RecoveryOutput.sigma``, and the rule
    that chose it (``"auto"``, ``"data"`` or ``"fixed"``) as ``sigma_rule``.

    Open curves map the Fiedler vector u2 back to the random-walk vector
    D~^-1/2 u2 and label it with ``recover_open``.  Closed loops
    read u2, u3 directly: atan2(u3, u2) is unchanged by the common
    positive scale D~^-1/2, and ``recover_closed``'s degeneracy threshold
    is set for unit-norm columns.  ``on_laplacian``, when given, sees the
    Laplacian before the eigensolve.  The kernel, the Laplacian and the
    eigensolve share one N x N buffer.

    L has one zero eigenvalue per connected component of the kernel
    graph, so a second eigenvalue at rounding level (at most N * eps)
    means the Fiedler vectors only tell the components apart; that
    raises ``DisconnectedGraphError`` instead of labels, naming sigma and
    the count of computed eigenvalues at rounding level, a lower bound
    on the number of components.

    A closed loop needs three eigenpairs, so fewer than 3 points raise
    ``TooFewPointsError`` before the bandwidth is chosen.  The returned
    output carries the eigensolve's path, eigenvalues, largest residual
    and operator applications, and the wall time of each stage in ms
    (``RecoveryOutput.report``; ``on_laplacian`` is in none of them).
    """
    sigma = check_bandwidth(sigma, noise_level)
    if kind is CurveKind.CLOSED_LOOP and z.n_points < CLOSED_MIN_POINTS:
        raise TooFewPointsError(f"a closed loop needs at least {CLOSED_MIN_POINTS} points, "
                                f"got N={z.n_points}")
    stage_ms: dict[str, float] = {}
    with _timed(stage_ms, "bandwidth"):
        if sigma == "auto":
            params = select_bandwidth(z.n_points, noise_level, kind)
        elif sigma == "data":
            params = data_driven_bandwidth(z)
        else:
            params = KernelParams(sigma)
    with _timed(stage_ms, "kernel"):
        km = build_kernel(z, params)
    with _timed(stage_ms, "laplacian"):
        lap = build_laplacian(km)
    if on_laplacian is not None:
        on_laplacian(lap)
    with _timed(stage_ms, "eigensolve"):
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
    with _timed(stage_ms, "labels"):
        if kind is CurveKind.OPEN_CURVE:
            out = recover_open(lap.inv_sqrt_degrees * u[:, 1])
        else:
            out = recover_closed(u[:, 1], u[:, 2])
    return replace(out, sigma=params.sigma, solver_path=spectral.path,
                   sigma_rule=sigma if isinstance(sigma, str) else "fixed",
                   eigenvalues=tuple(spectral.eigenvalues.tolist()),
                   max_residual=float(spectral.residuals.max()),
                   applications=spectral.applications, stage_ms=stage_ms)


@contextmanager
def _timed(stage_ms: dict[str, float], name: str):
    """Record the block's wall time in ms as ``stage_ms[name]``."""
    started = time.perf_counter()
    yield
    stage_ms[name] = 1000.0 * (time.perf_counter() - started)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run the configured stages in order and return a JSON-ready report."""
    out = Path(cfg.out_dir) if cfg.out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    report: dict = {"curve": str(cfg.curve), "n": cfg.n, "seed": cfg.seed}
    started = time.perf_counter()

    x, t_true, z = noisy_sample(cfg.curve, cfg.n, cfg.seed, cfg.snr, cfg.eps)
    if cfg.snr is not None:
        report["snr"] = cfg.snr
    elif cfg.eps is not None:
        report["eps"] = cfg.eps
    if out is not None:
        io.save_data_matrix(out / "z.csv", z)
        io.save_labels(out / "t_true.csv", t_true)

    if cfg.denoise_rank is not None:
        den: DenoiseResult | None = denoise_fixed_rank(z, cfg.denoise_rank)
    elif cfg.denoise_auto_r0 is not None:
        den = denoise_auto(z, cfg.denoise_auto_r0, cfg.denoise_eta, cfg.seed + 2)
    else:
        den = None
    if den is not None:
        report.update(r_hat=den.r_hat, denoise_route=den.route, denoise_ratio=den.ratio)
        if out is not None:
            io.save_data_matrix(out / "coords.csv", den.coords)
        z = den.coords

    kind = cfg.curve.kind
    recovery = recover_labels(z, kind, cfg.sigma, cfg.noise_level)
    report.update(recovery.report())
    if out is not None:
        io.save_recovery(out / "recovered.csv", recovery.labels, recovery.ranking)

    canon = cfg.curve.canonical_labels(t_true)
    if kind is CurveKind.CLOSED_LOOP:
        aligned = err_closed_time(canon, recovery.labels)
        report["time_error"] = aligned.error
        # Orderings on a loop only compare after undoing the rotation the
        # time metric identified; the wrap point then contributes little.
        est = np.mod(aligned.r * (recovery.labels.angles - aligned.theta), TWO_PI)
    else:
        report["time_error"] = err_open_time(canon, recovery.labels, cfg.delta_fraction).error
        est = recovery.labels.angles
    report["relative_error"] = _interior_error(cfg, x, t_true, est)
    report["delta_fraction"] = _window(cfg)
    report["wall_ms"] = 1000.0 * (time.perf_counter() - started)
    if out is not None:
        (out / "report.json").write_text(json.dumps(report, indent=2))
    return report


def run_baseline(cfg: PipelineConfig) -> dict:
    """The baseline's ``relative_error`` on ``cfg``'s noisy sample (not denoised)."""
    x, t_true, z = noisy_sample(cfg.curve, cfg.n, cfg.seed, cfg.snr, cfg.eps)
    return {"relative_error": _interior_error(cfg, x, t_true, baseline_labels(z))}


def _interior_error(cfg: PipelineConfig, x: DataMatrix, t_true: TimeLabels,
                    est: np.ndarray) -> float:
    """``interior_relative_error`` on ``cfg``'s window."""
    return interior_relative_error(x, t_true, est, cfg.curve.span, _window(cfg) or 0.0)


def _window(cfg: PipelineConfig) -> float | None:
    """The margin an open curve's metrics drop at each end; a loop has none."""
    return cfg.delta_fraction if cfg.curve.kind is CurveKind.OPEN_CURVE else None


def baseline_labels(z: DataMatrix) -> np.ndarray:
    """Monotone time proxy from the pairwise-comparison baseline: each
    point's rank in the Fiedler ordering of the comparison similarity."""
    return serialrank_baseline(z).ranks().astype(np.float64)
