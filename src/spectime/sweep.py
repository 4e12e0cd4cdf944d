"""Benchmark sweeps over (N, SNR, replicate, method) grids.

The unit of work is a data set: ``SweepConfig`` checks its grid's shape
and builds one ``PipelineConfig`` per (n, snr, replicate), which checks
every per-run setting.  Each data set gets one row per method:
``run_pipeline`` (spectral) or ``run_baseline`` (serialrank).  With
``threads`` > 1 data sets run in a thread pool (numpy releases the GIL),
else on the calling thread; rows are written sorted by (n, snr,
replicate, method), so the results CSV is deterministic apart from the
wall-clock column.  A row that fails on its data (a
``SpectimeError`` or ``ValueError``) is recorded in the ``error`` column
and the sweep continues; any other exception is a fault in the program
and propagates.

Output: ``results.csv`` plus a ``manifest.json`` recording the config,
the seed of each row, and package version.  A spectral row also names
the rule that chose its bandwidth (``sigma_rule``) and its eigensolver's
path, largest residual and operator applications (``solver_path``,
``max_residual``, ``applications``); baseline, failed and mean rows
leave them empty.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, SpectimeError
from .io import FLOAT_FMT
from .metrics import DELTA_FRACTION
from .pipeline import PipelineConfig, run_baseline, run_pipeline
from .synth import CurveSpec

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
    "sigma_rule",
    "solver_path",
    "max_residual",
    "applications",
    "wall_ms",
    "error",
)


@dataclass(frozen=True)
class SweepConfig:
    """Grid of data sets; ``data_sets`` holds (replicate, ``PipelineConfig``)
    for the i-th (n, snr, replicate), seeded ``seed_base + i``."""

    curve: CurveSpec
    n_values: tuple[int, ...]
    snr_values: tuple[float, ...]
    replicates: int = 1
    methods: tuple[str, ...] = METHODS
    sigma: float | str = "auto"  # fixed bandwidth | auto or data, chosen per data set
    seed_base: int = 0
    threads: int = 1
    delta_fraction: float = DELTA_FRACTION
    out_dir: str = "sweep_out"

    def __post_init__(self):
        for name, grid in (("n", self.n_values), ("snr", self.snr_values)):
            if not grid or len(set(grid)) < len(grid):
                raise ConfigError(f"the {name} grid must be non-empty and without repeats, "
                                  f"got {list(grid)}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods: {bad}")
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise ConfigError("methods must be a non-empty list without repeats, "
                              f"got {list(self.methods)}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        grid = itertools.product(self.n_values, self.snr_values, range(self.replicates))
        data_sets = tuple(
            (rep, PipelineConfig(curve=self.curve, n=n, seed=self.seed_base + i, snr=snr,
                                 sigma=self.sigma, delta_fraction=self.delta_fraction))
            for i, (n, snr, rep) in enumerate(grid))
        object.__setattr__(self, "data_sets", data_sets)
        object.__setattr__(self, "sigma", data_sets[0][1].sigma)


def _run_data_set(sc: SweepConfig, replicate: int, cfg: PipelineConfig) -> list[dict]:
    """One row per method in ``sc.methods``, all on the data set ``cfg``."""
    rows = []
    for method in sc.methods:
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(curve=str(cfg.curve), n=cfg.n, snr=cfg.snr, replicate=replicate,
                   seed=cfg.seed, method=method)
        started = time.perf_counter()
        try:
            # module globals read per row: a wrapped or patched runner is the one called
            report = (run_pipeline if method == "spectral" else run_baseline)(cfg)
            row.update((k, report[k]) for k in ("sigma", "time_error", "relative_error",
                                                "sigma_rule", "solver_path", "max_residual",
                                                "applications") if k in report)
        except (SpectimeError, ValueError) as exc:  # bad data must not kill the sweep
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["wall_ms"] = 1000.0 * (time.perf_counter() - started)
        rows.append(row)
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def sweep(sc: SweepConfig) -> list[dict]:
    """Run the grid and write results.csv + manifest.json under out_dir.

    Returns one row per (data set, method); aggregate rows are appended
    to the CSV only.
    """
    from . import __version__  # at call time: the package imports this module first

    out = Path(sc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=sc.threads) as pool:  # starts no thread until used
        apply = map if sc.threads == 1 else pool.map  # threads=1 runs on the calling thread
        per_set = apply(lambda data_set: _run_data_set(sc, *data_set), sc.data_sets)
        rows = list(itertools.chain.from_iterable(per_set))
    rows.sort(key=lambda r: (r["n"], r["snr"], r["replicate"], r["method"]))
    aggregates = _aggregate(rows)

    with open(out / "results.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows + aggregates:
            writer.writerow({k: _fmt(v) for k, v in row.items()})

    config = {f.name: getattr(sc, f.name) for f in fields(sc)
              if f.name not in ("threads", "out_dir")}
    manifest = {
        "config": {**config, "curve": str(sc.curve)},  # tuples are written as lists
        "seeds": [cfg.seed for _, cfg in sc.data_sets for _ in sc.methods],
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
