"""In-memory spans around spectime's layer functions.

``instrument(tracer)`` replaces each listed function, in every spectime
module namespace that holds it, with a wrapper that records a span:
name, start, end, parent span, run id (the timed iteration), the rise
of the process's peak RSS during the span, and a few attributes read
from the call's arguments and result.  A call that raises gets the
exception's type name as ``error`` instead of the result attributes.  ``cli`` and ``pipeline`` import
layer functions by name, so wrapping only the defining module would
miss their calls; wrapping every namespace covers them.  Nothing under
``src/`` changes and the originals are restored on exit.

Spans nest through one stack, so the instrumented calls must run on one
thread (the sweep workload uses ``threads=1``).
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer module -> public functions wrapped in every namespace that holds them
WRAPPED = {
    "cli": ("main",),
    "io": ("load_data_matrix", "load_labels", "load_ranking", "save_data_matrix",
           "save_labels", "save_recovery", "save_ranking"),
    "sweep": ("sweep",),
    "pipeline": ("run_pipeline", "recover_labels", "baseline_labels"),
    "synth": ("generate", "noise_for_snr", "add_noise", "comparison_matrix",
              "serialrank_baseline"),
    "denoise": ("denoise_auto", "denoise_fixed_rank"),
    "recover": ("recover_closed", "recover_open", "select_bandwidth", "data_driven_bandwidth"),
    "kernel": ("build_kernel", "build_laplacian"),
    "eigen": ("smallest_eigenpairs",),
    "metrics": ("err_closed_time", "err_closed_rank", "err_open_time", "err_open_rank",
                "interior_relative_error", "relative_error"),
}


def peak_rss_bytes() -> int:
    """High-water resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _kernel_attrs(args, kwargs, result):
    z = _arg(args, kwargs, 0, "z")
    values = getattr(z, "values", z)
    return {"n": int(result.k.shape[0]), "d": int(values.shape[0])}


def _eigen_attrs(args, kwargs, result):
    # Copies of smallest_eigenpairs' solver-path rule and certificate bound;
    # keep them in step with spectime/eigen.py.
    eigen = sys.modules["spectime.eigen"]
    n, k = result.eigenvectors.shape
    tol = _arg(args, kwargs, 2, "tol", eigen.DEFAULT_TOL)
    bound = tol * max(1.0, float(abs(result.eigenvalues).max()))
    dense = n <= eigen.DENSE_CUTOFF or k > n // 4
    return {"n": int(n), "k": int(k), "path": "dense" if dense else "lanczos",
            "residual_ratio": float(result.residuals.max()) / bound}


def _recover_attrs(args, kwargs, result):
    return {"clamped_count": int(result.clamped_count)}


def _denoise_attrs(args, kwargs, result):
    return {"r_hat": int(result.r_hat)}


def _cli_attrs(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    return {"command": argv[0], "exit": result}


ATTRS = {
    "kernel.build_kernel": _kernel_attrs,
    "eigen.smallest_eigenpairs": _eigen_attrs,
    "recover.recover_closed": _recover_attrs,
    "recover.recover_open": _recover_attrs,
    "denoise.denoise_auto": _denoise_attrs,
    "denoise.denoise_fixed_rank": _denoise_attrs,
    "cli.main": _cli_attrs,
}


class Tracer:
    """Collects spans in memory; ``run`` labels the spans that follow."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = "setup"
        self._stack: list[dict] = []

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"id": len(self.spans), "name": name, "run": self.run, "parent": parent}
            self.spans.append(span)
            self._stack.append(span)
            rss0 = peak_rss_bytes()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["rss_rise"] = peak_rss_bytes() - rss0
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in self.spans}


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every WRAPPED function in every loaded spectime namespace."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "spectime" or name.startswith("spectime.")]
    patched = []
    try:
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"spectime.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = tracer.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
