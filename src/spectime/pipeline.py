"""End-to-end composition: generate -> denoise -> recover -> evaluate.

Recovery builds the same Laplacian for both curve kinds; the kind picks
only how many eigenpairs are solved and how they become labels.  Each
stage is a pure function of its inputs and the seeds in the config, so
rerunning any stage from its persisted inputs reproduces its outputs.
When an output directory is given, every stage's artifact is written
before the next stage begins (z.csv, z_tilde.csv, recovered.csv,
report.json).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import io
from .core import CurveKind, DataMatrix, KernelParams
from .denoise import DenoiseResult, denoise_auto, denoise_fixed_rank
from .eigen import smallest_eigenpairs
from .errors import ConfigError, DisconnectedGraphError
from .kernel import LaplacianMatrix, laplacian_from_data
from .metrics import err_closed_time, err_open_time, interior_relative_error
from .recover import (
    RecoveryOutput,
    data_driven_bandwidth,
    recover_closed,
    recover_open_blend,
    select_bandwidth,
)
from .synth import CurveSpec, comparison_matrix, noisy_sample, serialrank_baseline

DEFAULT_DELTA_FRACTION = 0.05


@dataclass(frozen=True)
class PipelineConfig:
    """One generate/denoise/recover/evaluate run."""

    curve: CurveSpec
    n: int
    seed: int = 0
    snr: float | None = None  # exact target SNR, or
    eps: float | None = None  # entrywise noise standard deviation
    sigma: float | None = None  # fixed bandwidth; None selects by policy
    sigma_policy: str = "auto"  # auto (rate formula) | data (log-mass slope)
    noise_level: float = 0.0  # eps handed to the auto bandwidth formula
    denoise_rank: int | None = None  # fixed-rank projection
    denoise_auto_r0: int | None = None  # randomized rank estimation
    denoise_eta: float = 1e-3
    delta_fraction: float = DEFAULT_DELTA_FRACTION
    out_dir: str | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.snr is not None and self.eps is not None:
            raise ConfigError("give either snr or eps, not both")
        if self.denoise_rank is not None and self.denoise_auto_r0 is not None:
            raise ConfigError("give either a fixed denoise rank or an oversampling rank")
        if self.sigma_policy not in ("auto", "data"):
            raise ConfigError(f"unknown sigma policy {self.sigma_policy!r}")


def choose_bandwidth(
    z: DataMatrix,
    kind: CurveKind,
    sigma: float | None = None,
    policy: str = "auto",
    noise_level: float = 0.0,
) -> KernelParams:
    """A fixed ``sigma`` when given, else the policy's bandwidth: ``auto``
    (rate formula at ``noise_level``) or ``data`` (log-mass slope)."""
    if sigma is not None:
        return KernelParams(sigma)
    if policy == "data":
        return data_driven_bandwidth(z)
    return select_bandwidth(z.n_points, noise_level, kind)


def recover_labels(
    z: DataMatrix,
    kind: CurveKind,
    params: KernelParams,
    on_laplacian: Callable[[LaplacianMatrix], None] | None = None,
) -> RecoveryOutput:
    """Kernel -> Laplacian -> Fiedler vector(s) -> labels, in one call.

    Open curves map the Fiedler vector u2 back to the random-walk vector
    D~^-1/2 u2 and label it with ``recover_open_blend``.  Closed loops
    read u2, u3 directly: atan2(u3, u2) is unchanged by the common
    positive scale D~^-1/2, and ``recover_closed``'s degeneracy threshold
    is set for unit-norm columns.  ``on_laplacian``, when given, sees the
    Laplacian before the eigensolve.  The kernel, the Laplacian and the
    eigensolve share one N x N buffer.

    L has one zero eigenvalue per connected component of the kernel
    graph, so a second eigenvalue at rounding level (at most N * eps)
    means the Fiedler vectors only tell the components apart; that
    raises ``DisconnectedGraphError``, naming sigma, instead of labels.
    """
    lap = laplacian_from_data(z, params)
    if on_laplacian is not None:
        on_laplacian(lap)
    spectral = smallest_eigenpairs(lap, k=2 if kind is CurveKind.OPEN_CURVE else 3)
    second = float(spectral.eigenvalues[1])
    if second <= lap.n * np.finfo(np.float64).eps:
        raise DisconnectedGraphError(
            f"kernel graph is disconnected at sigma={params.sigma!r}: the second-smallest "
            f"Laplacian eigenvalue {second:.3e} is at rounding level, so the graph has more "
            "than one component; use a larger bandwidth")
    u = spectral.eigenvectors
    if kind is CurveKind.OPEN_CURVE:
        return recover_open_blend(lap.inv_sqrt_degrees * u[:, 1])
    return recover_closed(u[:, 1], u[:, 2])


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
        report["r_hat"] = den.r_hat
        z = den.z_tilde
        if out is not None:
            io.save_data_matrix(out / "z_tilde.csv", z)

    kind = cfg.curve.kind
    params = choose_bandwidth(z, kind, cfg.sigma, cfg.sigma_policy, cfg.noise_level)
    report["sigma"] = params.sigma
    recovery = recover_labels(z, kind, params)
    report["clamped_count"] = recovery.clamped_count
    if out is not None:
        io.save_recovery(out / "recovered.csv", recovery.labels, recovery.ranking)

    canon = cfg.curve.canonical_labels(t_true)
    if kind is CurveKind.CLOSED_LOOP:
        aligned = err_closed_time(canon, recovery.labels)
        report["time_error"] = aligned.error
        # Orderings on a loop only compare after undoing the rotation the
        # time metric identified; the wrap point then contributes little.
        est = np.mod(aligned.r * (recovery.labels.angles - aligned.theta), 2.0 * math.pi)
        report["relative_error"] = interior_relative_error(x, t_true, est, cfg.curve.span, 0.0)
    else:
        delta = cfg.delta_fraction * 2.0 * math.pi
        report["time_error"] = err_open_time(canon, recovery.labels, delta).error
        report["relative_error"] = interior_relative_error(
            x, t_true, recovery.labels.angles, cfg.curve.span, cfg.delta_fraction
        )
    report["delta_fraction"] = cfg.delta_fraction
    report["wall_ms"] = 1000.0 * (time.perf_counter() - started)
    if out is not None:
        (out / "report.json").write_text(json.dumps(report, indent=2))
    return report


def baseline_labels(z: DataMatrix) -> np.ndarray:
    """Monotone time proxy from the pairwise-comparison baseline: each
    point's rank in the Fiedler ordering of the comparison similarity."""
    ranking = serialrank_baseline(comparison_matrix(z))
    return ranking.ranks().astype(np.float64)


def config_to_dict(cfg: PipelineConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["curve"] = str(cfg.curve)
    return d
