"""Benchmark sweeps over (N, SNR, replicate, method) grids.

Cells run independently in a thread pool (each cell is numpy-bound and
releases the GIL); rows are collected and written through one sink,
sorted by (n, snr, replicate, method), so the results CSV is
deterministic apart from the wall-clock column.  A cell that fails on
its data (a ``SpectimeError`` or ``ValueError``) is recorded in the
``error`` column and the sweep continues; any other exception is a
fault in the program and propagates.

Output: ``results.csv`` plus a ``manifest.json`` recording the config,
derived per-cell seeds, and package version.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .core import CurveKind
from .errors import ConfigError, SpectimeError
from .io import FLOAT_FMT
from .metrics import interior_relative_error
from .pipeline import PipelineConfig, baseline_labels, check_delta_fraction, run_pipeline
from .recover import check_bandwidth
from .synth import CurveSpec, noisy_sample

METHODS = ("spectral", "serialrank")

CSV_COLUMNS = (
    "curve",
    "n",
    "snr",
    "replicate",
    "seed",
    "sigma",
    "method",
    "time_error",
    "relative_error",
    "wall_ms",
    "error",
)


@dataclass(frozen=True)
class SweepConfig:
    """Grid of benchmark cells."""

    curve: CurveSpec
    n_values: tuple[int, ...]
    snr_values: tuple[float, ...]
    replicates: int = 1
    methods: tuple[str, ...] = METHODS
    sigma: float | str = "auto"  # fixed bandwidth | auto or data, chosen per cell
    noise_level: float = 0.0
    seed_base: int = 0
    threads: int = 1
    delta_fraction: float = 0.05
    out_dir: str = "sweep_out"

    def __post_init__(self):
        if not self.n_values or not self.snr_values:
            raise ConfigError("n and snr grids must be non-empty")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if any(n < 2 for n in self.n_values):
            raise ConfigError("every n must be >= 2")
        if any(s <= 0 for s in self.snr_values):
            raise ConfigError("every snr must be positive")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods: {bad}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        object.__setattr__(self, "sigma", check_bandwidth(self.sigma, self.noise_level))
        check_delta_fraction(self.delta_fraction)


@dataclass
class SweepCell:
    n: int
    snr: float
    replicate: int
    method: str
    seed: int


def _cells(sc: SweepConfig) -> list[SweepCell]:
    cells = []
    index = 0
    for n in sc.n_values:
        for snr in sc.snr_values:
            for rep in range(sc.replicates):
                for method in sc.methods:
                    # one seed per (n, snr, replicate): both methods see the
                    # same data set
                    cells.append(SweepCell(n, snr, rep, method, sc.seed_base + index))
                index += 1
    return cells


def _run_cell(sc: SweepConfig, cell: SweepCell) -> dict:
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(curve=str(sc.curve), n=cell.n, snr=cell.snr, replicate=cell.replicate,
               seed=cell.seed, method=cell.method)
    started = time.perf_counter()
    try:
        if cell.method == "spectral":
            report = run_pipeline(
                PipelineConfig(
                    curve=sc.curve,
                    n=cell.n,
                    seed=cell.seed,
                    snr=cell.snr,
                    sigma=sc.sigma,
                    noise_level=sc.noise_level,
                    delta_fraction=sc.delta_fraction,
                )
            )
            row["sigma"] = report["sigma"]
            row["time_error"] = report["time_error"]
            row["relative_error"] = report["relative_error"]
        else:
            x, t_true, z = noisy_sample(sc.curve, cell.n, cell.seed, snr=cell.snr)
            proxy = baseline_labels(z)
            fraction = sc.delta_fraction if sc.curve.kind is CurveKind.OPEN_CURVE else 0.0
            row["relative_error"] = interior_relative_error(
                x, t_true, proxy, sc.curve.span, fraction
            )
    except (SpectimeError, ValueError) as exc:  # bad data must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_ms"] = 1000.0 * (time.perf_counter() - started)
    return row


def _fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def sweep(sc: SweepConfig) -> list[dict]:
    """Run the grid and write results.csv + manifest.json under out_dir.

    Returns the per-cell rows (aggregate rows are appended to the CSV
    only).
    """
    from . import __version__  # at call time: the package imports this module first

    out = Path(sc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = _cells(sc)
    if sc.threads == 1:
        rows = [_run_cell(sc, c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=sc.threads) as pool:
            rows = list(pool.map(lambda c: _run_cell(sc, c), cells))

    rows.sort(key=lambda r: (r["n"], r["snr"], r["replicate"], r["method"]))
    aggregates = _aggregate(rows)

    with open(out / "results.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows + aggregates:
            writer.writerow({k: _fmt(v) for k, v in row.items()})

    manifest = {
        "config": {
            "curve": str(sc.curve),
            "n_values": list(sc.n_values),
            "snr_values": list(sc.snr_values),
            "replicates": sc.replicates,
            "methods": list(sc.methods),
            "sigma": sc.sigma,
            "noise_level": sc.noise_level,
            "seed_base": sc.seed_base,
            "delta_fraction": sc.delta_fraction,
        },
        "seeds": [c.seed for c in cells],
        "version": __version__,
        "rows": len(rows),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return rows


def _aggregate(rows: list[dict]) -> list[dict]:
    """Mean rows per (n, snr, method) cell, replicate column set to 'mean'."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["n"], row["snr"], row["method"]), []).append(row)
    out = []
    for (n, snr, method), members in sorted(groups.items(), key=lambda kv: kv[0]):
        ok = [m for m in members if not m["error"]]
        agg = dict.fromkeys(CSV_COLUMNS, "")
        agg.update(curve=members[0]["curve"], n=n, snr=snr, replicate="mean", method=method,
                   error=f"{len(members) - len(ok)} failed" if len(ok) < len(members) else "")
        for key in ("time_error", "relative_error", "wall_ms"):
            vals = [m[key] for m in ok if m[key] != ""]
            if vals:
                agg[key] = sum(vals) / len(vals)
        out.append(agg)
    return out
