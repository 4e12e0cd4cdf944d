"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` and
runs one timed iteration per ``iterate`` call, through spectime's public
entry points only: ``spectime.cli.main``, ``spectime.sweep`` and
``spectime.run_pipeline``.  The entry points are looked up at call time
so that the tracer's wrappers, when installed, see the calls.

Iteration ``i`` uses input set ``i % len(inputs)``; the quality values
come from the first pass over the input sets, so they are a pure
function of the seed.  Data seeds are ``16 * seed + offset``, which
keeps the input sets of different benchmark seeds disjoint.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics

import spectime
import spectime.cli
from spectime.errors import SpectimeError


class Ledger:
    """Counts attempted and failed operations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _cli(ledger: Ledger, argv: list[str]) -> bool:
    """Run one CLI command; a nonzero exit is a failure."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = spectime.cli.main(argv)
    return ledger.check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")


class CliClosed8k:
    """generate -> recover -> evaluate (time, rank) on a noisy circle, via the CLI."""

    name = "cli-closed-8k"
    n = 8000
    datasets = 4
    min_iters = 4

    def setup(self, seed: int, work, ledger: Ledger) -> None:
        self.paths = []
        for j in range(self.datasets):
            z, t, est = (str(work / f"{stem}{j}.csv") for stem in ("z", "t", "est"))
            _cli(ledger, ["generate", "--curve", "circle", "--n", str(self.n), "--snr", "100",
                          "--seed", str(16 * seed + 2 * j), "--out", z, "--labels", t])
            self.paths.append((z, t, est, work / f"eval{j}"))
        self.quality_runs: dict[int, dict] = {}

    def iterate(self, i: int, ledger: Ledger) -> None:
        j = i % self.datasets
        z, t, est, report = self.paths[j]
        if not _cli(ledger, ["recover", "--kind", "closed", "--input", z,
                             "--sigma", "auto", "--out", est]):
            return
        errors = {}
        for metric in ("closed-time", "closed-rank"):
            out = f"{report}-{metric}.json"
            if _cli(ledger, ["evaluate", "--metric", metric, "--truth", t,
                             "--estimate", est, "--out", out]):
                with open(out) as f:
                    errors[metric] = json.load(f)["error"]
        if j not in self.quality_runs and len(errors) == 2:
            self.quality_runs[j] = errors

    def quality(self) -> dict | None:
        if len(self.quality_runs) < self.datasets:
            return None
        runs = self.quality_runs.values()
        return {"label_err_rad": statistics.fmean(r["closed-time"] for r in runs),
                "rank_err": statistics.fmean(r["closed-rank"] for r in runs)}

    def ceilings(self, q: dict) -> list[tuple[bool, str]]:
        # an eighth of the loop: random labels score near pi rad / 0.5
        return [(q["label_err_rad"] <= math.pi / 4, "label_err_rad <= pi/4"),
                (q["rank_err"] <= 0.125, "rank_err <= 1/8")]


class SweepCardioid2k:
    """Two sweep grids (12 cells each) on the open cardioid, both methods."""

    name = "sweep-cardioid-2k"
    n = 2000
    grids = 2
    min_iters = 2

    def setup(self, seed: int, work, ledger: Ledger) -> None:
        self.configs = [
            spectime.SweepConfig(
                curve=spectime.CurveSpec.parse("cardioid"),
                n_values=(self.n,),
                snr_values=(100.0, 1000.0),
                replicates=3,
                methods=("spectral", "serialrank"),
                sigma=0.1414,
                seed_base=16 * seed + 8 * j,
                threads=1,
                out_dir=str(work / f"sweep{j}"),
            )
            for j in range(self.grids)
        ]
        self.rows: dict[int, list[dict]] = {}  # iteration -> rows

    def iterate(self, i: int, ledger: Ledger) -> None:
        j = i % self.grids
        rows = spectime.sweep(self.configs[j])
        for row in rows:
            ledger.check(row["error"] == "", f"sweep cell {row['seed']}/{row['method']}: "
                                             f"{row['error']}")
        self.rows[i] = rows

    def quality(self) -> dict | None:
        first_pass = [self.rows.get(i, []) for i in range(self.grids)]
        rows = [r for grid in first_pass for r in grid if not r["error"]]
        spectral = [r for r in rows if r["method"] == "spectral"]
        baseline = [r for r in rows if r["method"] == "serialrank"]
        if len(rows) < sum(len(c.methods) * len(c.snr_values) * c.replicates
                           for c in self.configs):
            return None
        return {"label_err_rad": statistics.fmean(r["time_error"] for r in spectral),
                "order_err": statistics.fmean(r["relative_error"] for r in spectral),
                "baseline_order_err": statistics.fmean(r["relative_error"] for r in baseline)}

    def ceilings(self, q: dict) -> list[tuple[bool, str]]:
        # acceptance criterion 3: spectral ordering at most half the baseline's error
        return [(q["order_err"] <= 0.5 * q["baseline_order_err"],
                 "order_err <= 0.5 * baseline_order_err")]


class Highdim5k:
    """Criterion 8's pipeline: circle embedded in d=5000, SNR=1, auto-rank denoise."""

    name = "highdim-5k"
    n = 2000
    min_iters = 1

    def setup(self, seed: int, work, ledger: Ledger) -> None:
        self.config = spectime.PipelineConfig(
            curve=spectime.CurveSpec.parse("embedded:5000"),
            n=self.n,
            seed=16 * seed,
            snr=1.0,
            denoise_auto_r0=400,
            denoise_eta=1e-3,
        )
        self.report: dict | None = None

    def iterate(self, i: int, ledger: Ledger) -> None:
        try:
            report = spectime.run_pipeline(self.config)
        except SpectimeError as exc:
            ledger.check(False, f"run_pipeline raised {type(exc).__name__}: {exc}")
            return
        ledger.check(True, "run_pipeline")
        if self.report is None:
            self.report = report

    def quality(self) -> dict | None:
        if self.report is None:
            return None
        return {"label_err_rad": self.report["time_error"],
                "order_err": self.report["relative_error"]}

    def ceilings(self, q: dict) -> list[tuple[bool, str]]:
        # acceptance criterion 8
        return [(q["label_err_rad"] <= 0.3, "label_err_rad <= 0.3")]


WORKLOADS = {w.name: w for w in (CliClosed8k, SweepCardioid2k, Highdim5k)}
