"""End-to-end composition: generate -> denoise -> recover -> evaluate.

The unit of work is a data set, one ``PipelineConfig``, which checks
every per-run setting before any work.  ``run_pipeline`` scores its
recovered labels and ``run_baseline`` the pairwise-comparison baseline,
on the same sample and interior window (``interior_relative_error``):
an open curve drops ``delta_fraction`` of its time at each end, a loop
no point, and its report's ``delta_fraction`` is None.

Recovery is ``recover.recover_labels``, the one path from data to
labels; the bandwidth is one setting, a number, ``"auto"`` or
``"data"``, checked with the rest of the config.  Each stage is a
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .core import TWO_PI, CurveKind, DataMatrix
from .denoise import ETA, DenoiseResult, check_denoise, denoise_auto, denoise_fixed_rank
from .errors import ConfigError
from .metrics import DELTA_FRACTION, check_delta_fraction, err_closed_time, err_open_time
from .metrics import interior_relative_error
from .recover import CLOSED_MIN_POINTS, check_bandwidth, recover_labels
from .synth import CurveSpec, check_sample, noisy_sample, serialrank_baseline


@dataclass(frozen=True)
class PipelineConfig:
    """One generate/denoise/recover/evaluate run."""

    curve: CurveSpec
    n: int
    seed: int = 0
    snr: float | None = None  # exact target SNR, or
    eps: float | None = None  # entrywise noise standard deviation
    sigma: float | str = "auto"  # fixed bandwidth | auto (rate formula) | data (log-mass slope)
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
        object.__setattr__(self, "sigma", check_bandwidth(self.sigma))
        check_delta_fraction(self.delta_fraction)
        if self.curve.kind is CurveKind.CLOSED_LOOP and self.delta_fraction != DELTA_FRACTION:
            raise ConfigError(f"a closed loop reads no delta_fraction, got {self.delta_fraction!r}")


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
    recovery = recover_labels(z, kind, cfg.sigma)
    report.update(recovery.report())
    if out is not None:
        io.save_recovery(out / "recovered.csv", recovery.labels, recovery.ranking)

    if kind is CurveKind.CLOSED_LOOP:
        aligned = err_closed_time(t_true, recovery.labels)
        report["time_error"] = aligned.error
        # Orderings on a loop only compare after undoing the rotation the
        # time metric identified; the wrap point then contributes little.
        est = np.mod(aligned.r * (recovery.labels.angles - aligned.theta), TWO_PI)
    else:
        report["time_error"] = err_open_time(t_true, recovery.labels, cfg.delta_fraction).error
        est = recovery.labels.angles
    report["relative_error"] = interior_relative_error(x, t_true, est, _window(cfg) or 0.0)
    report["delta_fraction"] = _window(cfg)
    report["wall_ms"] = 1000.0 * (time.perf_counter() - started)
    if out is not None:
        (out / "report.json").write_text(json.dumps(report, indent=2))
    return report


def run_baseline(cfg: PipelineConfig) -> dict:
    """The baseline's ``relative_error`` on ``cfg``'s noisy sample (not denoised)."""
    x, t_true, z = noisy_sample(cfg.curve, cfg.n, cfg.seed, cfg.snr, cfg.eps)
    return {"relative_error": interior_relative_error(x, t_true, baseline_labels(z),
                                                      _window(cfg) or 0.0)}


def _window(cfg: PipelineConfig) -> float | None:
    """The margin an open curve's metrics drop at each end; a loop has none."""
    return cfg.delta_fraction if cfg.curve.kind is CurveKind.OPEN_CURVE else None


def baseline_labels(z: DataMatrix) -> np.ndarray:
    """Monotone time proxy from the pairwise-comparison baseline: each
    point's rank in the Fiedler ordering of the comparison similarity."""
    return serialrank_baseline(z).ranks().astype(np.float64)
