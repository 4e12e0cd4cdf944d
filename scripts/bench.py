"""Stage times and peak memory of one recovery per fresh process.

Run from the root of a source checkout:

    python3 scripts/bench.py [--out DIR]

The cases are the circle (closed) and the half-circle (open), SNR 100,
seed 0, at N = 2000, 8000 and 16000 and the auto bandwidth; the open
cardioid, SNR 100, seed 16, at N = 2000 and 4000 and sigma = 0.1414 and
0.0632, whose clustered spectra test the eigensolver's hand-over to the
factor; and the circle, SNR 100, seed 0, at N = 2000 and 8000 and the
data bandwidth.  The script starts 3 fresh processes per case.  Each
generates its sample, writes z as CSV and reads it back, and reports
``data_ms`` (``generate``, ``noise_for_snr``, ``save_data_matrix``,
``load_data_matrix``); then it runs ``recover_labels`` on the file's z
and reports the recovery's ``stage_ms`` (bandwidth, kernel, laplacian,
eigensolve, labels) and ``stage_peak_mb`` (how far each stage raised
the peak resident size), the eigensolver's operator ``applications``
and its own peak resident size (``ru_maxrss``).  The repeats of a case
are summarised by their median and quartiles, and each process's
``stage_ms``, ``stage_peak_mb`` and ``applications`` are kept next to
them under ``processes``, so one stalled process shows; a case whose process fails
(a recovery that raises included) is recorded with the error it printed
instead.  The file ``BENCH_<yyyymmdd>.json`` in ``--out`` (the checkout
root by default), or the first ``BENCH_<yyyymmdd>-<k>.json``, k = 2, 3,
..., that does not exist yet, also records the machine (CPUs, numpy, its
BLAS library and the BLAS thread count read from that library) and the
lines of ``src/``: total, code, docstring, comment and blank; no
existing file is overwritten.

An N = 16000 case holds one packed Laplacian of 1.03 GB (and a packed
factor of the same size on the dense path); the cases run one at a
time.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SNR = 100.0
REPEATS = 3
# (curve, n, seed, sigma): "auto", "data" or a fixed bandwidth
CASES = tuple((curve, n, 0, "auto") for n in (2000, 8000, 16000)
              for curve in ("circle", "half-circle")) + tuple(
    ("cardioid", n, 16, sigma) for n in (2000, 4000) for sigma in (0.1414, 0.0632)) + tuple(
    ("circle", n, 0, "data") for n in (2000, 8000))
LINE_KINDS = ("total", "code", "docstring", "comment", "blank")

CHILD = """
import json, os, resource, sys, tempfile, time
import spectime as st
from spectime import io
curve, n, seed, sigma = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
spec = st.CurveSpec(curve)
data_ms = {{}}

def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    data_ms[fn.__name__] = 1e3 * (time.perf_counter() - start)
    return out

x, _ = timed(st.generate, spec, n, seed)
z = timed(st.noise_for_snr, x, {snr}, seed + 1)  # noisy_sample's z
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "z.csv")
    timed(io.save_data_matrix, path, z)
    z = timed(io.load_data_matrix, path)  # the same bits
out = st.recover_labels(z, spec.kind, sigma=sigma)  # a number is read from its text
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{"data_ms": data_ms, "stage_ms": out.stage_ms, "stage_peak_mb": out.stage_peak_mb,
                  "ru_maxrss_mb": peak_kb / 1024.0, "solver_path": out.solver_path,
                  "applications": out.applications}}))
""".format(snr=SNR)


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, linearly interpolated, to 3 decimals."""
    s = sorted(values)

    def at(q: float) -> float:
        x = q * (len(s) - 1)
        lo = int(x)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (x - lo)

    return {"median": round(at(0.5), 3), "q1": round(at(0.25), 3), "q3": round(at(0.75), 3)}


def run_case(*case) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    runs = []
    for _ in range(REPEATS):
        done = subprocess.run([sys.executable, "-c", CHILD, *map(str, case)],
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines()
            return {"error": lines[-1] if lines else f"exit code {done.returncode}"}
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {
        "repeats": REPEATS,
        "solver_path": sorted({r["solver_path"] for r in runs}),
        **{key: {s: quartiles([r[key][s] for r in runs]) for s in runs[0][key]}
           for key in ("data_ms", "stage_ms", "stage_peak_mb")},
        "ru_maxrss_mb": quartiles([r["ru_maxrss_mb"] for r in runs]),
        "processes": [{"stage_ms": {s: round(ms, 3) for s, ms in r["stage_ms"].items()},
                       "stage_peak_mb": {s: round(mb, 3) for s, mb in r["stage_peak_mb"].items()},
                       "applications": r["applications"]} for r in runs],
    }


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded, read from the
    library itself; None when it exposes no such call."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def line_counts(path: Path) -> dict:
    """Lines of one Python file: total, code, docstring (a blank line
    inside a docstring included), comment (whole-line) and blank."""
    text = path.read_text()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(LINE_KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        kind = ("docstring" if number in docstring else "blank" if not line
                else "comment" if line.startswith("#") else "code")
        counts["total"] += 1
        counts[kind] += 1
    return counts


def src_lines() -> dict:
    """``line_counts`` summed over the modules of ``src/``."""
    total = dict.fromkeys(LINE_KINDS, 0)
    for path in sorted(SRC.rglob("*.py")):
        for kind, lines in line_counts(path).items():
            total[kind] += lines
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    cases = []
    for curve, n, seed, sigma in CASES:
        case = {"curve": curve, "n": n, "snr": SNR, "seed": seed, "sigma": sigma,
                **run_case(curve, n, seed, sigma)}
        print(json.dumps(case), file=sys.stderr)
        cases.append(case)
    today = datetime.date.today()
    record = {"date": today.isoformat(), "machine": machine(), "src_lines": src_lines(),
              "cases": cases}
    path, k = args.out / f"BENCH_{today:%Y%m%d}.json", 2
    while path.exists():
        path, k = args.out / f"BENCH_{today:%Y%m%d}-{k}.json", k + 1
    with open(path, "x") as f:  # "x": a file made meanwhile is not overwritten either
        f.write(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
