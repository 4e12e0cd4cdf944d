"""Command-line front end.

Subcommands: generate, denoise, recover, evaluate, sweep, baseline.
Each declares only the flags its handler reads: ``--seed`` belongs to
generate, denoise and sweep, ``--threads`` and ``--out-dir`` to sweep.
Every failure exits nonzero with a JSON object ``{"error": <class name>,
"message": ...}`` on stderr: 2 for a usage error (an unknown flag, a bad
value, a missing subcommand, all reported as ``ConfigError``) or a domain
error, 3 for an I/O error.  ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io
from .core import CurveKind
from .denoise import ETA, check_denoise, denoise_auto, denoise_fixed_rank
from .errors import ConfigError, SpectimeError
from .metrics import DELTA_FRACTION, AlignmentReport, check_delta_fraction, err_closed_rank
from .metrics import err_closed_time, err_open_rank, err_open_time, relative_error
from .recover import check_bandwidth, recover_labels
from .sweep import METHODS, SweepConfig, sweep
from .synth import CurveSpec, noisy_sample, serialrank_baseline


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ConfigError`` for ``main`` to report as
    JSON; ``add_subparsers`` builds every subcommand's parser from this
    class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectime",
        description="Recover temporal labels and orderings of noisy dynamical data "
        "from graph-Laplacian Fiedler vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a synthetic curve with optional noise")
    g.add_argument("--curve", required=True,
                   help="half-circle | cardioid | circle | embedded:<d>")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--snr", type=float, help="exact target signal-to-noise ratio")
    g.add_argument("--eps", type=float, help="entrywise noise standard deviation")
    g.add_argument("--out", required=True, help="data CSV (one point per row)")
    g.add_argument("--labels", help="ground-truth labels CSV")
    g.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    d = sub.add_parser("denoise", help="PCA projection denoising")
    d.add_argument("--input", required=True)
    mode = d.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rank", type=int, help="fixed projection rank")
    mode.add_argument("--auto", action="store_true", help="estimate the rank from a sketch")
    d.add_argument("--r0", type=int, help="oversampling rank (default 400)")
    d.add_argument("--eta", type=float, help="singular-value ratio threshold (default 1e-3)")
    d.add_argument("--out", required=True, help="coordinates CSV: one point per row, r_hat columns")
    d.add_argument("--seed", type=int, help="random seed (default 0)")

    r = sub.add_parser("recover", help="recover labels and ranking from data")
    r.add_argument("--kind", choices=("open", "closed"), required=True)
    r.add_argument("--input", required=True)
    r.add_argument("--sigma", default="auto",
                   help="bandwidth: a float, 'auto' (rate formula), or 'data'")
    r.add_argument("--out", required=True, help="output CSV: index,t_hat,rank")

    # no abbreviations: a radians --delta must not parse as --delta-fraction
    e = sub.add_parser("evaluate", help="alignment-invariant error metrics", allow_abbrev=False)
    e.add_argument("--metric", required=True, choices=tuple(_METRICS))
    e.add_argument("--truth", required=True, help="truth labels/ranking CSV")
    e.add_argument("--estimate", required=True, help="estimate labels/ranking CSV")
    e.add_argument("--delta-fraction", type=float,
                   help="open-metric margin, a fraction in [0, 0.5) (default 0.05)")
    e.add_argument("--matrix", help="data CSV, required for --metric relative")
    e.add_argument("--out", help="write the JSON report here instead of stdout")

    s = sub.add_parser("sweep", help="benchmark grid over N x SNR x replicates")
    s.add_argument("--curve", required=True)
    s.add_argument("--n", type=int, action="append", required=True,
                   help="sample size (repeatable)")
    s.add_argument("--snr", type=float, action="append", required=True,
                   help="target SNR (repeatable)")
    s.add_argument("--replicates", type=int, default=1)
    s.add_argument("--sigma", default="auto",
                   help="bandwidth: a float, 'auto' (rate formula), or 'data'")
    s.add_argument("--methods", default=",".join(METHODS),
                   help="comma-separated subset of: " + ", ".join(METHODS))
    s.add_argument("--delta-fraction", type=float, default=DELTA_FRACTION)
    s.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    s.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    s.add_argument("--out-dir", default=".", help="directory for sweep outputs")

    b = sub.add_parser("baseline", help="pairwise-comparison spectral ranking")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True, help="output CSV: index,value (value = rank)")

    return parser


def _cmd_generate(args) -> int:
    _, t, z = noisy_sample(CurveSpec.parse(args.curve), args.n, args.seed, args.snr, args.eps)
    io.save_data_matrix(args.out, z)
    if args.labels:
        io.save_labels(args.labels, t)
    return 0


def _cmd_denoise(args) -> int:
    _refuse_unread_flags(args, "--auto" if args.auto else "--rank")
    r0 = 400 if args.r0 is None else args.r0
    eta = ETA if args.eta is None else args.eta
    check_denoise(args.rank, r0 if args.auto else None, eta)  # before I/O
    z = io.load_data_matrix(args.input)
    if args.auto:
        result = denoise_auto(z, r0, eta, 0 if args.seed is None else args.seed)
    else:
        result = denoise_fixed_rank(z, args.rank)
    io.save_data_matrix(args.out, result.coords)
    summary = {"r_hat": result.r_hat, "route": result.route, "ratio": result.ratio,
               "d": z.dim, "n": z.n_points, "out": args.out}
    print(json.dumps(summary), file=sys.stderr)
    return 0


def _cmd_recover(args) -> int:
    sigma = check_bandwidth(args.sigma)  # before the input is read
    z = io.load_data_matrix(args.input)
    out = recover_labels(z, CurveKind(args.kind), sigma)
    io.save_recovery(args.out, out.labels, out.ranking)
    print(json.dumps({**out.report(), "out": args.out}), file=sys.stderr)
    return 0


# metric -> (what its truth and estimate files hold, score(truth, estimate, args),
# the optional flags it reads); the lambdas look the metric up when called
_METRICS = {
    "closed-time": ("labels", lambda t, e, a: err_closed_time(t, e), ()),
    "closed-rank": ("ranking", lambda p, q, a: err_closed_rank(p, q), ()),
    "open-time": ("labels", lambda t, e, a: err_open_time(t, e, a.delta_fraction),
                  ("--delta-fraction",)),
    "open-rank": ("ranking", lambda p, q, a: err_open_rank(p, q, a.delta_fraction),
                  ("--delta-fraction",)),
    "relative": ("ranking", lambda p, q, a: AlignmentReport(relative_error(
        io.load_data_matrix(a.matrix), p, q), r=None), ("--matrix",)),
}

# the optional flags each mode reads; giving one another mode reads is a usage error
_MODE_FLAGS = {
    "denoise": {"--rank": (), "--auto": ("--r0", "--eta", "--seed")},
    "evaluate": {f"--metric {metric}": flags for metric, (_, _, flags) in _METRICS.items()},
}


def _refuse_unread_flags(args, mode: str) -> None:
    modes = _MODE_FLAGS[args.command]
    for flag in dict.fromkeys(flag for flags in modes.values() for flag in flags):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and flag not in modes[mode]:
            raise ConfigError(f"{mode} does not read {flag}")


def _cmd_evaluate(args) -> int:
    files, score, flags = _METRICS[args.metric]
    _refuse_unread_flags(args, f"--metric {args.metric}")
    if args.metric == "relative" and not args.matrix:
        raise ConfigError("--metric relative needs --matrix")
    if "--delta-fraction" in flags:
        args.delta_fraction = DELTA_FRACTION if args.delta_fraction is None else args.delta_fraction
        check_delta_fraction(args.delta_fraction)  # before I/O
    load = getattr(io, f"load_{files}")
    rep = score(load(args.truth), load(args.estimate), args)
    report = {"metric": args.metric, "delta_fraction": args.delta_fraction, "r": rep.r,
              "theta": rep.theta, "shift": rep.shift, "error": rep.error}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    sc = SweepConfig(
        curve=CurveSpec.parse(args.curve),
        n_values=tuple(args.n),
        snr_values=tuple(args.snr),
        replicates=args.replicates,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        sigma=args.sigma,  # each data set's PipelineConfig checks the per-run settings
        seed_base=args.seed,
        threads=args.threads,
        delta_fraction=args.delta_fraction,
        out_dir=args.out_dir,
    )
    rows = sweep(sc)
    failures = sum(1 for r in rows if r["error"])
    print(json.dumps({"rows": len(rows), "failures": failures,
                      "out_dir": args.out_dir}), file=sys.stderr)
    return 0


def _cmd_baseline(args) -> int:
    z = io.load_data_matrix(args.input)
    io.save_ranking(args.out, serialrank_baseline(z))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "denoise": _cmd_denoise,
    "recover": _cmd_recover,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "baseline": _cmd_baseline,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (SpectimeError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
