"""spectime benchmark harness.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli-closed-8k --seed 1 --seconds 20 --trace 0

Runs one workload in this process against ``src/spectime`` (no install
needed).  The timed loop repeats the workload's iteration until at
least ``--seconds`` have passed and every input set has run once.

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s,
peak_rss_mb, ok_frac).  ``--trace 1`` first runs the loop with spans
recorded around every layer function, then the same loop untraced, and
prints the per-layer metrics, tracing overhead included.  Units are read
from BENCHMARK.json.  Either way the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (environment, quality
values, failed checks).  The record is
also written to ``.perfbench_out/results/`` and the spans of a traced
run to ``.perfbench_out/traces/``.

See perfbench/README.md for the workloads, the metric definitions and
the layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import Tracer, instrument, peak_rss_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_PROBES = 5  # before the timed loop, and as many again after it; one more after each iteration
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import spectime; print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-closed-8k", "sweep-cardioid-2k", "highdim-5k"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _command_output(argv, **kwargs) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = _command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    digest = hashlib.sha256()
    for path in sorted((SRC / "spectime").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "git_commit": _command_output(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env),
        "src_sha256": digest.hexdigest(),
    }


def import_seconds() -> float:
    """Import time of spectime (numpy and scipy included) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def timed_loop(workload, ledger, seconds: float, first: int, tracer=None, between=None):
    """Run iterations first, first+1, ... until `seconds` have passed and at
    least ``workload.min_iters`` have run, calling `between` (untimed) after
    each.  Return each iteration's wall time and the peak RSS after the
    first ``min_iters`` iterations, so the peak does not depend on how many
    iterations fit in `seconds`."""
    times = []
    first_pass_peak = None
    started = time.perf_counter()
    while len(times) < workload.min_iters or time.perf_counter() - started < seconds:
        i = first + len(times)
        if tracer is not None:
            tracer.run = f"iter-{i}"
        t0 = time.perf_counter()
        workload.iterate(i, ledger)
        times.append(time.perf_counter() - t0)
        if len(times) == workload.min_iters:
            first_pass_peak = peak_rss_bytes()
        if between is not None:
            between()
    return times, first_pass_peak


def check_quality(workload, seed: int, ledger) -> dict | None:
    """Quality ceilings for any seed, plus the recorded reference for this seed."""
    q = workload.quality()
    if not ledger.check(q is not None, "quality values from every input set"):
        return None
    for ok, what in workload.ceilings(q):
        ledger.check(ok, what)
    refs = json.loads((HERE / "references.json").read_text())
    ref = refs["workloads"][workload.name].get(str(seed))
    if ref is not None:
        tolerance = refs["tolerance"]
        for key, value in q.items():
            limit = ref[key] * (1.0 + tolerance) + 1e-12
            ledger.check(value <= limit, f"{key}={value!r} exceeds reference {ref[key]!r} "
                                         f"by more than {tolerance:.0%}")
    return q


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


QUALITY_KEYS = ("label_err_rad", "rank_err", "order_err", "baseline_order_err")


def layer_metrics(tracer, workload, iters, quality, overhead_s) -> dict:
    """Per-layer metrics from the spans; times and counts are per traced
    iteration, with set-up spans spread over the iterations.  A span whose
    call raised has no result attributes; the failure itself is counted
    by the workload's checks."""
    self_s = tracer.self_times()
    spans = defaultdict(list)
    returned = defaultdict(list)
    for s in tracer.spans:
        spans[s["name"]].append(s)
        if "error" not in s:
            returned[s["name"]].append(s)
    per = 1.0 / len(iters)

    def self_time(name, **match):
        return per * sum(self_s[s["id"]] for s in spans[name]
                         if all(s.get(k) == v for k, v in match.items()))

    def rise_mb(*names):
        return sum(s["rss_rise"] for name in names for s in spans[name]) / 1e6

    kernels = returned["kernel.build_kernel"]
    solves = returned["eigen.smallest_eigenpairs"]
    recoveries = returned["recover.recover_closed"] + returned["recover.recover_open"]
    denoised = returned["denoise.denoise_auto"] + returned["denoise.denoise_fixed_rank"]
    rows = [r for i in iters for r in getattr(workload, "rows", {}).get(i, [])]

    def cell_s(method):
        walls = [r["wall_ms"] / 1000.0 for r in rows if r["method"] == method]
        return statistics.fmean(walls) if walls else 0.0

    m = {
        "kernel.build_kernel_s": self_time("kernel.build_kernel"),
        "kernel.build_laplacian_s": self_time("kernel.build_laplacian"),
        "kernel.rss_delta_mb": rise_mb("kernel.build_kernel", "kernel.build_laplacian"),
        "kernel.distance_flops": per * sum(3 * s["d"] * s["n"] * (s["n"] - 1) // 2
                                           for s in kernels),
        "kernel.matrix_bytes": max((8 * s["n"] ** 2 for s in kernels), default=0),
        "eigen.smallest_eigenpairs_s": self_time("eigen.smallest_eigenpairs"),
        "eigen.dense_calls": per * sum(s["path"] == "dense" for s in solves),
        "eigen.lanczos_calls": per * sum(s["path"] == "lanczos" for s in solves),
        "eigen.max_residual_ratio": max((s["residual_ratio"] for s in solves), default=0.0),
        "metrics.err_closed_rank_s": self_time("metrics.err_closed_rank"),
        "metrics.err_closed_rank_rss_delta_mb": rise_mb("metrics.err_closed_rank"),
        "metrics.interior_relative_error_s": self_time("metrics.interior_relative_error"),
        "metrics.err_closed_time_s": self_time("metrics.err_closed_time"),
        "metrics.err_open_time_s": self_time("metrics.err_open_time"),
        "synth.serialrank_baseline_s": self_time("synth.serialrank_baseline"),
        "synth.comparison_matrix_s": self_time("synth.comparison_matrix"),
        "synth.generate_s": self_time("synth.generate"),
        "synth.noise_for_snr_s": self_time("synth.noise_for_snr"),
        "denoise.denoise_auto_s": self_time("denoise.denoise_auto"),
        "denoise.r_hat": denoised[-1]["r_hat"] if denoised else 0,
        "recover.recover_closed_s": self_time("recover.recover_closed"),
        "recover.recover_open_s": self_time("recover.recover_open"),
        "recover.clamped_count": per * sum(s["clamped_count"] for s in recoveries),
        "pipeline.run_pipeline_self_s": self_time("pipeline.run_pipeline"),
        "pipeline.recover_labels_s": per * sum(s["end"] - s["start"]
                                               for s in spans["pipeline.recover_labels"]),
        "sweep.cell_s.spectral": cell_s("spectral"),
        "sweep.cell_s.serialrank": cell_s("serialrank"),
        "sweep.self_s": self_time("sweep.sweep"),
        "sweep.failed_cells": per * sum(1 for r in rows if r["error"]),
        "io.load_data_matrix_s": self_time("io.load_data_matrix"),
        "io.load_labels_s": self_time("io.load_labels"),
        "io.save_recovery_s": self_time("io.save_recovery"),
        "cli.recover_self_s": self_time("cli.main", command="recover"),
        "cli.evaluate_self_s": self_time("cli.main", command="evaluate"),
        "trace.overhead_s": overhead_s,
    }
    for key in QUALITY_KEYS:
        m[key] = (quality or {}).get(key, 0.0)
    return m


def layer_shares(tracer, traced_wall: float) -> dict:
    """Self time per layer as a share of the traced iterations' wall time."""
    self_s = tracer.self_times()
    by_layer = defaultdict(float)
    for s in tracer.spans:
        if s["run"] != "setup":
            by_layer[s["name"].split(".")[0]] += self_s[s["id"]]
    return {layer: t / traced_wall for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])}


def run_untraced(workload, args, work, ledger, record) -> dict:
    """Set up SETUP_REPEATS times, run the timed loop, return end-to-end metrics.

    setup_s is the import time plus the median input-generation time.  The
    import time is the minimum over fresh-interpreter probes taken before,
    during and after the timed loop: host load only ever adds to it, and a
    busy host can slow every probe of one phase of a run."""
    probes = [import_seconds() for _ in range(IMPORT_PROBES)]
    generations = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(args.seed, work, ledger)
        generations.append(time.perf_counter() - t0)
    times, peak = timed_loop(workload, ledger, args.seconds, 0,
                             between=lambda: probes.append(import_seconds()))
    probes += [import_seconds() for _ in range(IMPORT_PROBES)]
    record.update(import_s=probes, generate_s=generations, iteration_s=times,
                  final_rss_mb=peak_rss_bytes() / 1e6,
                  quality=check_quality(workload, args.seed, ledger))
    return {
        "wall_s": statistics.median(times),
        "setup_s": min(probes) + statistics.median(generations),
        "peak_rss_mb": peak / 1e6,
        "ok_frac": 1.0 - len(ledger.failures) / ledger.attempted,
    }


def run_traced(workload, args, work, ledger, record) -> dict:
    """Set up and run the loop with spans recorded, then run the loop
    untraced for the overhead; write the spans, return per-layer metrics."""
    tracer = Tracer()
    with instrument(tracer):
        workload.setup(args.seed, work, ledger)
        traced, _ = timed_loop(workload, ledger, args.seconds, 0, tracer)
    untraced, _ = timed_loop(workload, ledger, args.seconds, len(traced))
    quality = check_quality(workload, args.seed, ledger)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics = layer_metrics(tracer, workload, range(len(traced)), quality, overhead)
    ledger.check(metrics["eigen.max_residual_ratio"] <= 1.0, "eigen.max_residual_ratio <= 1")
    record.update(traced_s=traced, untraced_s=untraced, quality=quality,
                  layer_shares=layer_shares(tracer, sum(traced)))
    self_s = tracer.self_times()
    for s in tracer.spans:
        s["self"] = self_s[s["id"]]
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    (OUT / "traces" / f"{workload.name}-seed{args.seed}.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed, "spans": tracer.spans}))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectime" / "__init__.py").is_file():
        print(f"perfbench: no spectime sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # keep busy threads <= nproc: OpenBLAS would otherwise size its pool from the host
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import spectime
    import_in_process_s = time.perf_counter() - t0
    if Path(spectime.__file__).resolve().parent != SRC / "spectime":
        print(f"perfbench: imported spectime from {spectime.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Ledger

    units = metric_units()

    workload = WORKLOADS[args.workload]()
    ledger = Ledger()
    env = environment()
    ledger.check((env["blas_threads"] or 1) <= env["nproc"], "BLAS threads <= nproc")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-pid{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "import_in_process_s": import_in_process_s,
              "nxn_bytes": 8 * workload.n ** 2, "l3_bytes": env["l3_bytes"]}
    try:
        work.mkdir(parents=True, exist_ok=True)
        run = run_traced if args.trace else run_untraced
        metrics = run(workload, args, work, ledger, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(failures=ledger.failures, metrics=metrics)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
