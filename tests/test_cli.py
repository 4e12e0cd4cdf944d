import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spectime import (
    CurveKind,
    CurveSpec,
    PipelineConfig,
    TimeLabels,
    data_driven_bandwidth,
    denoise_fixed_rank,
    err_closed_rank,
    err_open_rank,
    ranking_from_labels,
    recover_labels,
    run_pipeline,
    select_bandwidth,
)
from spectime import cli, pipeline
from spectime.cli import build_parser, main
from spectime.io import load_data_matrix, load_labels, load_ranking, save_labels


def run(argv):
    return main([str(a) for a in argv])


def test_generate_recover_evaluate_roundtrip(tmp_path, capsys):
    z = tmp_path / "z.csv"
    t = tmp_path / "t.csv"
    est = tmp_path / "est.csv"
    assert run(["generate", "--curve", "circle", "--n", "300", "--seed", "3",
                "--out", z, "--labels", t]) == 0
    assert run(["recover", "--kind", "closed", "--input", z, "--out", est]) == 0
    report_path = tmp_path / "report.json"
    assert run(["evaluate", "--metric", "closed-time", "--truth", t,
                "--estimate", est, "--out", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["metric"] == "closed-time"
    assert report["error"] < 0.5
    assert report["theta"] is not None


def test_recover_output_format(tmp_path):
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "circle", "--n", "50", "--out", z])
    run(["recover", "--kind", "closed", "--input", z, "--sigma", "0.5", "--out", est])
    with open(est, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["index", "t_hat", "rank"]
    assert len(rows) == 51


def test_open_recover_matches_library(tmp_path, capsys):
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "half-circle", "--n", "120", "--snr", "1000",
         "--seed", "5", "--out", z])
    assert run(["recover", "--kind", "open", "--input", z, "--sigma", "0.22360679774997896",
                "--out", est]) == 0
    summary = json.loads(capsys.readouterr().err)
    expected = recover_labels(load_data_matrix(z), CurveKind.OPEN_CURVE, math.sqrt(0.05))
    assert np.array_equal(load_labels(est).angles, expected.labels.angles)
    # the eigenpairs the CLI solved are the library's, bit for bit
    report = expected.report()
    assert summary["eigenvalues"] == report["eigenvalues"]
    assert summary["max_residual"] == report["max_residual"]


def test_denoise_cli_fixed_and_auto(tmp_path, capsys):
    z, out1, out2 = tmp_path / "z.csv", tmp_path / "zt1.csv", tmp_path / "zt2.csv"
    run(["generate", "--curve", "embedded:30", "--n", "60", "--snr", "5",
         "--seed", "2", "--out", z])
    assert run(["denoise", "--input", z, "--rank", "2", "--out", out1]) == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    fixed = denoise_fixed_rank(load_data_matrix(z), 2)
    assert (summary["r_hat"], summary["route"], summary["ratio"]) == (2, "gram", fixed.ratio)
    assert run(["denoise", "--input", z, "--auto", "--r0", "10", "--out", out2]) == 0
    assert out1.exists() and out2.exists()
    # the file holds the N x r_hat coordinates, which load back bit for bit
    assert np.array_equal(load_data_matrix(out1).values, fixed.coords.values)


@pytest.mark.parametrize("mode, flags", [
    (dict(denoise_rank=3), ["--rank", "3"]),
    (dict(denoise_auto_r0=10), ["--auto", "--r0", "10", "--seed", "9"]),  # cfg.seed + 2
])
def test_cli_chain_matches_pipeline_byte_for_byte(tmp_path, mode, flags):
    # generate -> denoise -> recover through the CLI is the pipeline's computation
    pipe = tmp_path / "pipe"
    run_pipeline(PipelineConfig(curve=CurveSpec("embedded", 40), n=150, seed=7, snr=10.0,
                                out_dir=str(pipe), **mode))
    z, coords, est = tmp_path / "z.csv", tmp_path / "coords.csv", tmp_path / "est.csv"
    assert run(["generate", "--curve", "embedded:40", "--n", "150", "--snr", "10",
                "--seed", "7", "--out", z]) == 0
    assert run(["denoise", "--input", z, *flags, "--out", coords]) == 0
    assert run(["recover", "--kind", "closed", "--input", coords, "--out", est]) == 0
    assert coords.read_bytes() == (pipe / "coords.csv").read_bytes()
    assert est.read_bytes() == (pipe / "recovered.csv").read_bytes()


def test_denoise_reference_defaults(tmp_path, monkeypatch):
    # --auto without --r0, --eta or --seed sketches with r0 = 400, eta = 1e-3, seed 0
    z = tmp_path / "z.csv"
    run(["generate", "--curve", "embedded:30", "--n", "60", "--out", z])
    calls = []

    def recorded(data, r0, eta, seed):
        calls.append((r0, eta, seed))
        return denoise_fixed_rank(data, 2)

    monkeypatch.setattr(cli, "denoise_auto", recorded)
    assert run(["denoise", "--input", z, "--auto", "--out", tmp_path / "o.csv"]) == 0
    assert calls == [(400, 1e-3, 0)]


def test_generate_bad_embedded_dimension_exits_2(tmp_path, capsys):
    z = tmp_path / "z.csv"
    for curve in ("embedded:abc", "embedded:2.7"):
        assert run(["generate", "--curve", curve, "--n", "10", "--out", z]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"embedded:<d> needs an integer d >= 2, got '{curve[9:]}'" in err["message"]
    assert not z.exists()


def test_denoise_requires_exactly_one_mode(tmp_path):
    z = tmp_path / "z.csv"
    run(["generate", "--curve", "circle", "--n", "20", "--out", z])
    assert run(["denoise", "--input", z, "--out", tmp_path / "o.csv"]) == 2
    assert run(["denoise", "--input", z, "--rank", "2", "--auto",
                "--out", tmp_path / "o.csv"]) == 2


def test_baseline_cli(tmp_path):
    z, out = tmp_path / "z.csv", tmp_path / "rank.csv"
    run(["generate", "--curve", "cardioid", "--n", "40", "--snr", "100",
         "--seed", "4", "--out", z])
    assert run(["baseline", "--input", z, "--out", out]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["index", "value"]
    ranks = sorted(int(r[1]) for r in rows[1:])
    assert ranks == list(range(40))


def test_baseline_cli_ranks_are_the_pipelines_baseline(tmp_path):
    # one baseline path: the CLI's ranks are the ones run_baseline and the
    # sweep's serialrank rows score
    z, out = tmp_path / "z.csv", tmp_path / "rank.csv"
    run(["generate", "--curve", "half-circle", "--n", "300", "--snr", "100",
         "--seed", "5", "--out", z])
    assert run(["baseline", "--input", z, "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], np.arange(300))
    assert np.array_equal(rows[:, 1], pipeline.baseline_labels(load_data_matrix(z)))


def test_missing_file_gives_json_error(tmp_path, capsys):
    assert run(["recover", "--kind", "open", "--input", tmp_path / "nope.csv",
                "--out", tmp_path / "o.csv"]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "error" in err


@pytest.mark.parametrize("text", ["", "\n\n", "a,b\n"], ids=["empty", "blank", "header-only"])
@pytest.mark.parametrize("command", [["recover", "--kind", "open"], ["denoise", "--rank", "1"],
                                     ["baseline"]], ids=["recover", "denoise", "baseline"])
def test_data_file_without_rows_is_one_json_error(tmp_path, capsys, text, command):
    # numpy warns on a file of no data; the warning must neither print nor,
    # as an error, escape main
    z, out = tmp_path / "z.csv", tmp_path / "o.csv"
    z.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*command, "--input", z, "--out", out])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {"error": "TooFewPointsError",
                                                   "message": f"{z}: no data rows"}
    assert not out.exists()


def test_spectime_error_exit_code(tmp_path, capsys):
    z = tmp_path / "z.csv"
    run(["generate", "--curve", "circle", "--n", "20", "--out", z])
    # rank larger than min(d, N) is a domain error, exit code 2
    assert run(["denoise", "--input", z, "--rank", "50", "--out", tmp_path / "o.csv"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "RankTooLargeError"


def test_sweep_cli_row_count(tmp_path):
    out_dir = tmp_path / "sweepout"
    assert run(["sweep", "--curve", "half-circle", "--n", "40", "--snr", "10",
                "--snr", "100", "--replicates", "2", "--methods", "spectral",
                "--out-dir", out_dir]) == 0
    with open(out_dir / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len([r for r in rows if r["replicate"] != "mean"]) == 4
    assert (out_dir / "manifest.json").exists()


def test_sweep_cli_data_bandwidth(tmp_path, capsys):
    out_dir = tmp_path / "sweepout"
    assert run(["sweep", "--curve", "half-circle", "--n", "40", "--snr", "100",
                "--methods", "spectral", "--sigma", "data", "--out-dir", out_dir]) == 0
    assert json.loads(capsys.readouterr().err)["failures"] == 0
    with open(out_dir / "results.csv", newline="") as f:
        row = next(csv.DictReader(f))
    assert row["error"] == "" and float(row["sigma"]) > 0.0
    assert json.loads((out_dir / "manifest.json").read_text())["config"]["sigma"] == "data"


def test_sweep_cli_bad_sigma_exits_2_before_work(tmp_path, capsys):
    out_dir = tmp_path / "sweepout"
    assert run(["sweep", "--curve", "circle", "--n", "40", "--snr", "100",
                "--sigma", "-1", "--out-dir", out_dir]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out_dir.exists()


def test_evaluate_relative_metric(tmp_path):
    z, t = tmp_path / "z.csv", tmp_path / "t.csv"
    run(["generate", "--curve", "cardioid", "--n", "50", "--seed", "6",
         "--out", z, "--labels", t])
    est = tmp_path / "est.csv"
    assert run(["recover", "--kind", "open", "--input", z, "--sigma", "0.22360679774997896",
                "--out", est]) == 0
    out = tmp_path / "rep.json"
    assert run(["evaluate", "--metric", "relative", "--truth", t, "--estimate", est,
                "--matrix", z, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert 0.0 <= rep["error"] <= 2.0


def test_recover_disconnected_graph_exits_2(tmp_path, capsys):
    # at sigma = sqrt(0.005) two of these 50 cardioid points have no kernel
    # neighbour above rounding; no labels may come back
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "cardioid", "--n", "50", "--seed", "6", "--out", z])
    capsys.readouterr()
    for kind in ("open", "closed"):
        assert run(["recover", "--kind", kind, "--input", z, "--sigma", "0.070710678118654752",
                    "--out", est]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DisconnectedGraphError"
        assert "2 of 50" in err["message"]
    assert not est.exists()


@pytest.mark.parametrize("sigma", ["auto", "data", "0.3"])
@pytest.mark.parametrize("kind", ["open", "closed"])
def test_recover_coincident_points_exits_2_under_every_rule(tmp_path, capsys, kind, sigma):
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    z.write_text("1,1\n" * 50)
    assert run(["recover", "--kind", kind, "--input", z, "--sigma", sigma, "--out", est]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "CoincidentPointsError",
                   "message": "all 50 points coincide; they have no order"}
    assert not est.exists()


@pytest.mark.parametrize("text", ["index\n0\n1\n2\n", "0\n1\n2\n"], ids=["header", "no-header"])
def test_one_column_truth_file_exits_2(tmp_path, capsys, text):
    z, t, est = tmp_path / "z.csv", tmp_path / "t.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "circle", "--n", "3", "--out", z, "--labels", est])
    t.write_text(text)
    capsys.readouterr()
    assert run(["evaluate", "--metric", "closed-time", "--truth", t, "--estimate", est]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LengthMismatchError"
    assert err["message"].startswith(f"{t}: 1 column")


def test_data_file_with_a_text_header_recovers_as_without(tmp_path):
    z, zh = tmp_path / "z.csv", tmp_path / "zh.csv"
    run(["generate", "--curve", "circle", "--n", "300", "--snr", "100", "--out", z])
    zh.write_text("x,y\n" + z.read_text())
    for data in (z, zh):
        assert run(["recover", "--kind", "closed", "--input", data,
                    "--out", data.with_suffix(".est")]) == 0
    assert z.with_suffix(".est").read_bytes() == zh.with_suffix(".est").read_bytes()


def test_recover_data_bandwidth_on_coincident_points_exits_2(tmp_path, capsys):
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    z.write_text("0.5,-1.25\n" * 20)
    assert run(["recover", "--kind", "closed", "--input", z, "--sigma", "data",
                "--out", est]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CoincidentPointsError"
    assert "all 20 points coincide" in err["message"]
    assert not est.exists()


def test_evaluate_bad_index_exits_2(tmp_path, capsys):
    t = tmp_path / "t.csv"
    t.write_text("index,value\n0,0.1\n0,0.2\n2,0.3\n")
    assert run(["evaluate", "--metric", "closed-time", "--truth", t, "--estimate", t]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadIndexError"
    assert "index 0 appears more than once" in err["message"]


def test_evaluate_ragged_row_exits_2(tmp_path, capsys):
    t = tmp_path / "t.csv"
    t.write_text("index,value\n0,0.1\n1\n2,0.3\n")
    assert run(["evaluate", "--metric", "closed-time", "--truth", t, "--estimate", t]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LengthMismatchError"
    assert str(t) in err["message"]
    assert "line 3 has 1 columns, expected 2" in err["message"]


def test_evaluate_non_numeric_cell_exits_2(tmp_path, capsys):
    t = tmp_path / "t.csv"
    t.write_text("index,value\n0,0.1\n1,abc\n")
    assert run(["evaluate", "--metric", "closed-time", "--truth", t, "--estimate", t]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadCellError"
    assert str(t) in err["message"]
    assert "line 3, column 2: 'abc' is not a number" in err["message"]


@pytest.mark.parametrize("metric, text", [
    ("closed-time", "index,value\n0,0.1\n1,nan\n2,0.3\n"),
    ("closed-rank", "index,value\n0,0\n1,nan\n2,2\n"),
], ids=["labels", "ranking"])
def test_evaluate_nan_cell_exits_2(tmp_path, capsys, metric, text):
    # a labels file and a ranking file; numpy's cast of a NaN rank warns,
    # so the check runs before it
    t = tmp_path / "t.csv"
    t.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["evaluate", "--metric", metric, "--truth", t, "--estimate", t]) == 2
    err = json.loads(capsys.readouterr().err)  # exactly one JSON object
    assert err["error"] == "NonFiniteEntryError"
    assert str(t) in err["message"]
    assert "index 1, column 2: nan is not a finite number" in err["message"]


@pytest.mark.parametrize("command", [["recover", "--kind", "closed"], ["baseline"]],
                         ids=["recover", "baseline"])
def test_data_file_nan_cell_named_by_file_line_and_column(tmp_path, capsys, command):
    z, out = tmp_path / "z.csv", tmp_path / "o.csv"
    z.write_text("0.0,1.0\n1.0,0.0\nnan,0.5\n")
    assert run([*command, "--input", z, "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)  # exactly one JSON object
    assert err == {"error": "NonFiniteEntryError",
                   "message": f"{z}: line 3, column 1: nan is not a finite number"}
    assert not out.exists()


def test_generated_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each case's noise scale differed in its last bits under 1 and 2 BLAS
    # threads while it was a BLAS dot product
    src = str(Path(cli.__file__).resolve().parents[1])
    for curve, n in (("circle", 8000), ("embedded:50", 2000)):
        files = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [src, os.environ.get("PYTHONPATH", "")])}
            z, t = tmp_path / f"z{threads}.csv", tmp_path / f"t{threads}.csv"
            subprocess.run([sys.executable, "-m", "spectime.cli", "generate", "--curve", curve,
                            "--n", str(n), "--snr", "100", "--seed", "1", "--out", str(z),
                            "--labels", str(t)], env=env, check=True)
            files.append((z.read_bytes(), t.read_bytes()))
        assert files[0] == files[1], curve


def test_recover_column_count_change_exits_2(tmp_path, capsys):
    z = tmp_path / "z.csv"
    z.write_text("0.0,1.0\n1.0,0.0\n-1.0\n")
    assert run(["recover", "--kind", "closed", "--input", z, "--out", tmp_path / "o.csv"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LengthMismatchError"
    assert str(z) in err["message"]
    assert "line 3 has 1 columns, expected 2" in err["message"]


@pytest.mark.parametrize(
    "flags, choice",
    [
        (["--sigma", "auto"],
         dict(pick=lambda z: select_bandwidth(z.n_points, kind=CurveKind.CLOSED_LOOP).sigma,
              rule="auto")),
        (["--sigma", "data"], dict(pick=lambda z: data_driven_bandwidth(z).sigma, rule="data")),
        (["--sigma", "0.3"], dict(pick=lambda z: 0.3, rule="fixed")),
    ],
)
def test_recover_reports_the_bandwidth_choose_bandwidth_picks(tmp_path, capsys, flags, choice):
    # the reported sigma is the named rule's pick on the loaded data, or the
    # number given, and sigma_rule names which
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "circle", "--n", "200", "--snr", "100", "--out", z])
    capsys.readouterr()
    assert run(["recover", "--kind", "closed", "--input", z, "--out", est, *flags]) == 0
    reported = json.loads(capsys.readouterr().err)
    assert reported["sigma"] == choice["pick"](load_data_matrix(z))
    assert reported["sigma_rule"] == choice["rule"]


@pytest.mark.parametrize("flags, name", [
    (["--delta-fraction", "0.7"], "delta_fraction"),
    (["--delta-fraction", "-0.1"], "delta_fraction"),
    (["--methods", ","], "methods"),
    (["--methods", "spectral,spectral"], "methods"),
    (["--n", "50"], "n grid"),  # a repeated grid value would key two rows alike
    (["--snr", "100"], "snr grid"),
])
def test_sweep_cli_bad_setting_exits_2_before_work(tmp_path, capsys, flags, name):
    out_dir = tmp_path / "sw"
    assert run(["sweep", "--curve", "half-circle", "--n", "50", "--snr", "100",
                "--out-dir", out_dir, *flags]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert name in err["message"]
    assert not out_dir.exists()


def test_closed_loop_of_two_points_exits_2_before_work(tmp_path, capsys):
    z, est, out_dir = tmp_path / "z.csv", tmp_path / "est.csv", tmp_path / "sw"
    assert run(["generate", "--curve", "circle", "--n", "2", "--out", z]) == 0
    assert run(["recover", "--kind", "closed", "--input", z, "--out", est]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "TooFewPointsError",
                   "message": "a closed loop needs at least 3 points, got N=2"}
    assert not est.exists()
    assert run(["sweep", "--curve", "circle", "--n", "2", "--snr", "100",
                "--out-dir", out_dir]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out_dir.exists()


def test_recover_stderr_reports_the_eigensolve(tmp_path, capsys):
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    assert run(["generate", "--curve", "circle", "--n", "200", "--snr", "100", "--out", z]) == 0
    assert run(["recover", "--kind", "closed", "--input", z, "--sigma", "0.4", "--out", est]) == 0
    summary = json.loads(capsys.readouterr().err)
    expected = recover_labels(load_data_matrix(z), CurveKind.CLOSED_LOOP, 0.4).report()
    for key in ("stage_ms", "stage_peak_mb"):  # timings and memory rises differ from run to run
        assert set(summary.pop(key)) == set(expected.pop(key))
    assert summary == {**expected, "out": str(est)}  # the path the solver returned, too
    assert len(summary["eigenvalues"]) == 3


def test_sweep_cli_nan_snr_exits_2_before_work(tmp_path, capsys):
    out_dir = tmp_path / "sw"
    assert run(["sweep", "--curve", "circle", "--n", "40", "--snr", "100", "--snr", "nan",
                "--out-dir", out_dir]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "snr must be positive" in err["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("metric, flags", [
    ("closed-time", ["--delta-fraction", "5"]),
    ("closed-time", ["--matrix", "nope.csv"]),
    ("closed-rank", ["--matrix", "nope.csv"]),
    ("closed-rank", ["--delta-fraction", "0"]),
    ("open-time", ["--matrix", "nope.csv"]),
    ("open-rank", ["--matrix", "nope.csv"]),
    ("relative", ["--delta-fraction", "0.3"]),
])
def test_evaluate_flag_its_metric_does_not_read_exits_2(tmp_path, capsys, metric, flags):
    # neither input exists: the flags are checked before any file is read
    matrix = ["--matrix", tmp_path / "z.csv"] if metric == "relative" else []
    assert run(["evaluate", "--metric", metric, "--truth", tmp_path / "t.csv", "--estimate",
                tmp_path / "e.csv", *matrix, *flags]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"--metric {metric} does not read {flags[0]}" in err["message"]


@pytest.mark.parametrize("metric", ["open-time", "open-rank"])
@pytest.mark.parametrize("delta", ["5", "-0.1", "nan", str(math.pi)])
def test_evaluate_bad_delta_exits_2_before_io(tmp_path, capsys, metric, delta):
    assert run(["evaluate", "--metric", metric, "--truth", tmp_path / "t.csv",
                "--estimate", tmp_path / "e.csv", "--delta-fraction", delta]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "delta_fraction must lie in [0, 0.5)" in err["message"]


@pytest.mark.parametrize("metric", ["open-time", "open-rank", "closed-time"])
def test_evaluate_refuses_a_radians_delta_flag(tmp_path, capsys, metric):
    # --delta is no abbreviation of --delta-fraction: a radians value must not
    # be read as a fraction
    assert run(["evaluate", "--metric", metric, "--truth", tmp_path / "t.csv",
                "--estimate", tmp_path / "e.csv", "--delta", "0.3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "unrecognized arguments: --delta 0.3" in err["message"]


def test_default_open_reports_keep_the_window_and_errors(tmp_path, capsys):
    # the default window is delta_fraction = 0.05 for both open metrics; the
    # errors are the ones the radians window 0.1*pi gave.  Two truth labels sit
    # on that window's edges, with estimates far off, so they must stay out.
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2.0 * math.pi, 40)
    t[:2] = 0.1 * math.pi, 2.0 * math.pi - 0.1 * math.pi
    est = np.clip(t + rng.normal(0.0, 0.2, 40), 0.0, 2.0 * math.pi)
    est[:2] = 2.0 * math.pi - t[:2]
    truth, estimate = tmp_path / "t.csv", tmp_path / "e.csv"
    save_labels(truth, TimeLabels(t))
    save_labels(estimate, TimeLabels(est))
    for metric, error in (("open-time", 0.3582351026995979), ("open-rank", 36.0)):
        assert run(["evaluate", "--metric", metric, "--truth", truth,
                    "--estimate", estimate]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"metric": metric, "delta_fraction": 0.05, "r": 1, "theta": None,
                          "shift": None, "error": error}


def test_denoise_without_mode_exits_2_before_io(tmp_path, capsys):
    assert run(["denoise", "--input", tmp_path / "nope.csv", "--out", tmp_path / "x.csv"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "one of the arguments --rank --auto is required" in err["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("metric", ["relative", "closed-rank"])
def test_small_labels_file_is_ranked_by_its_labels(tmp_path, capsys, metric):
    # rounded to integers these labels are {0, 1, 2, 3, 6}, not ranks of 5
    # points, so the file is read as labels
    t, z = tmp_path / "t.csv", tmp_path / "z.csv"
    t.write_text("index,value\n0,0.5\n1,6.0\n2,2.0\n3,3.1\n4,1.2\n")
    z.write_text("0,1\n1,0\n0,-1\n-1,0\n0.5,0.5\n")
    matrix = ["--matrix", z] if metric == "relative" else []
    assert run(["evaluate", "--metric", metric, "--truth", t, "--estimate", t, *matrix]) == 0
    assert json.loads(capsys.readouterr().out)["error"] == 0.0


@pytest.mark.parametrize("metric", ["open-rank", "closed-rank"])
def test_baseline_output_scored_by_rank_metrics(tmp_path, metric):
    # a baseline ranking file is read as a ranking, the truth labels file
    # as labels, as --metric relative reads them
    z, t, ranks, rep = (tmp_path / name for name in ("z.csv", "t.csv", "r.csv", "rep.json"))
    run(["generate", "--curve", "half-circle", "--n", "60", "--snr", "100", "--seed", "2",
         "--out", z, "--labels", t])
    assert run(["baseline", "--input", z, "--out", ranks]) == 0
    assert run(["evaluate", "--metric", metric, "--truth", t, "--estimate", ranks,
                "--out", rep]) == 0
    report = json.loads(rep.read_text())
    truth, estimate = ranking_from_labels(load_labels(t)), load_ranking(ranks)
    if metric == "open-rank":
        assert report["error"] == err_open_rank(truth, estimate, 0.05).error
        assert report["delta_fraction"] == 0.05
    else:
        assert report["error"] == err_closed_rank(truth, estimate).error


# the flags each subcommand's handler reads, and no others
DECLARED_FLAGS = {
    "generate": ["--curve", "--n", "--snr", "--eps", "--out", "--labels", "--seed"],
    "denoise": ["--input", "--rank", "--auto", "--r0", "--eta", "--out", "--seed"],
    "recover": ["--kind", "--input", "--sigma", "--out"],
    "evaluate": ["--metric", "--truth", "--estimate", "--delta-fraction", "--matrix", "--out"],
    "sweep": ["--curve", "--n", "--snr", "--replicates", "--sigma", "--methods",
              "--delta-fraction", "--seed", "--threads", "--out-dir"],
    "baseline": ["--input", "--out"],
}

# the smallest argument list each subcommand parses; with one more flag
# the only usage error left is that flag
REQUIRED_ARGS = {
    "generate": ["--curve", "circle", "--n", "10", "--out", "z.csv"],
    "denoise": ["--input", "z.csv", "--auto", "--out", "zt.csv"],
    "recover": ["--kind", "closed", "--input", "z.csv", "--out", "est.csv"],
    "evaluate": ["--metric", "closed-time", "--truth", "t.csv", "--estimate", "est.csv"],
    "sweep": ["--curve", "circle", "--n", "10", "--snr", "10"],
    "baseline": ["--input", "z.csv", "--out", "rank.csv"],
}


def declared_flags():
    (subs,) = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.option_strings[-1] for a in p._actions if a.dest != "help"]
            for name, p in subs.choices.items()}


def test_each_subcommand_declares_exactly_the_flags_it_reads():
    assert declared_flags() == DECLARED_FLAGS
    assert sum(len(flags) for flags in DECLARED_FLAGS.values()) == 36


@pytest.mark.parametrize("command", sorted(DECLARED_FLAGS))
def test_undeclared_formerly_shared_flags_exit_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # nothing may be written, here or elsewhere
    values = {"--seed": "3", "--threads": "2", "--out-dir": "runs", "--format": "csv"}
    for flag, value in values.items():
        if flag in DECLARED_FLAGS[command]:
            continue
        assert run([command, *REQUIRED_ARGS[command], flag, value]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"unrecognized arguments: {flag} {value}" in err["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recover", "--kind", "closed", "--input", "z.csv", "--out", "o.csv", "--bogus", "1"],
         "unrecognized arguments: --bogus 1"),
        (["generate", "--curve", "circle", "--n", "many", "--out", "z.csv"],
         "argument --n: invalid int value: 'many'"),
        (["recover", "--kind", "loop", "--input", "z.csv", "--out", "o.csv"],
         "argument --kind: invalid choice: 'loop'"),
        (["recover", "--kind", "closed", "--input", "z.csv"],
         "spectime recover: the following arguments are required: --out"),
        ([], "the following arguments are required: command"),
        (["smooth"], "invalid choice: 'smooth'"),
        (["recover", "--kind", "closed", "--input", "z.csv", "--out", "o.csv",
          "--dump-laplacian", "lap.csv"], "unrecognized arguments: --dump-laplacian lap.csv"),
        # a text header is read as one with no flag
        (["recover", "--kind", "closed", "--input", "z.csv", "--out", "o.csv", "--header"],
         "unrecognized arguments: --header"),
        # truth labels are time on [0, 2pi], and the report is JSON
        (["evaluate", "--metric", "closed-time", "--truth", "t.csv", "--estimate", "e.csv",
          "--out", "rep.json", "--truth-span", "3"], "unrecognized arguments: --truth-span 3"),
        (["evaluate", "--metric", "closed-time", "--truth", "t.csv", "--estimate", "e.csv",
          "--out", "rep.json", "--format", "csv"], "unrecognized arguments: --format csv"),
        # the auto bandwidth reads no noise level
        (["recover", "--kind", "closed", "--input", "z.csv", "--out", "o.csv",
          "--noise-level", "0.01"], "unrecognized arguments: --noise-level 0.01"),
        (["sweep", "--curve", "circle", "--n", "10", "--snr", "10", "--out-dir", "sw",
          "--noise-level", "0.01"], "unrecognized arguments: --noise-level 0.01"),
    ],
)
def test_usage_error_is_a_json_config_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert message in err["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["recover", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage: spectime" in capsys.readouterr().out


@pytest.mark.parametrize("sigma", ["1e-200", "1e300"])
def test_recover_sigma_with_nonfinite_kernel_scale_exits_2(tmp_path, capsys, sigma):
    # 2 sigma^2 underflows to 0 at 1e-200 and overflows at 1e300
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "circle", "--n", "50", "--out", z])
    capsys.readouterr()
    assert run(["recover", "--kind", "closed", "--input", z, "--sigma", sigma,
                "--out", est]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "sigma" in err["message"]
    assert not est.exists()


def readme_cli_commands():
    """Each ``spectime ...`` command of the README's CLI block, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("spectime ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == set(DECLARED_FLAGS)
    for argv in commands:
        build_parser().parse_args(argv)
