import csv
import json
import math

import numpy as np
import pytest

from spectime import CurveKind, KernelParams, build_kernel, build_laplacian, recover_labels
from spectime.cli import main
from spectime.io import load_data_matrix, load_labels
from spectime.pipeline import choose_bandwidth


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


def test_open_curve_with_truth_span(tmp_path):
    z, t, est = tmp_path / "z.csv", tmp_path / "t.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "half-circle", "--n", "400", "--seed", "1",
         "--snr", "1000", "--out", z, "--labels", t])
    assert run(["recover", "--kind", "open", "--input", z, "--sigma2", "0.05",
                "--out", est]) == 0
    out = tmp_path / "rep.json"
    assert run(["evaluate", "--metric", "open-time", "--truth", t, "--estimate", est,
                "--truth-span", str(math.pi), "--delta", str(0.1 * math.pi),
                "--out", out]) == 0
    assert json.loads(out.read_text())["error"] < math.pi / 2


def test_recover_output_format_and_dump(tmp_path):
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    lap = tmp_path / "lap.csv"
    run(["generate", "--curve", "circle", "--n", "50", "--out", z])
    run(["recover", "--kind", "closed", "--input", z, "--sigma", "0.5",
         "--dump-laplacian", lap, "--out", est])
    with open(est, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["index", "t_hat", "rank"]
    assert len(rows) == 51
    dumped = np.loadtxt(lap, delimiter=",")
    assert dumped.shape == (50, 50)
    assert np.abs(dumped - dumped.T).max() <= 1e-12


def test_open_recover_matches_library(tmp_path):
    z, est, lap = tmp_path / "z.csv", tmp_path / "est.csv", tmp_path / "lap.csv"
    run(["generate", "--curve", "half-circle", "--n", "120", "--snr", "1000",
         "--seed", "5", "--out", z])
    assert run(["recover", "--kind", "open", "--input", z, "--sigma2", "0.05",
                "--dump-laplacian", lap, "--out", est]) == 0
    data = load_data_matrix(z)
    params = KernelParams.from_sigma2(0.05)
    expected = recover_labels(data, CurveKind.OPEN_CURVE, params)
    assert np.array_equal(load_labels(est).angles, expected.labels.angles)
    dumped = np.loadtxt(lap, delimiter=",")
    assert np.array_equal(dumped, build_laplacian(build_kernel(data, params)).l)


def test_denoise_cli_fixed_and_auto(tmp_path, capsys):
    z, out1, out2 = tmp_path / "z.csv", tmp_path / "zt1.csv", tmp_path / "zt2.csv"
    run(["generate", "--curve", "embedded:30", "--n", "60", "--snr", "5",
         "--seed", "2", "--out", z])
    assert run(["denoise", "--input", z, "--rank", "2", "--out", out1]) == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["r_hat"] == 2
    assert run(["denoise", "--input", z, "--auto", "--r0", "10", "--out", out2]) == 0
    assert out1.exists() and out2.exists()


def test_denoise_reference_defaults():
    from spectime.cli import build_parser

    args = build_parser().parse_args(
        ["denoise", "--input", "z.csv", "--auto", "--out", "o.csv"]
    )
    assert args.r0 == 400
    assert args.eta == 1e-3


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


def test_missing_file_gives_json_error(tmp_path, capsys):
    assert run(["recover", "--kind", "open", "--input", tmp_path / "nope.csv",
                "--out", tmp_path / "o.csv"]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "error" in err


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


def test_evaluate_csv_format(tmp_path, capsys):
    t = tmp_path / "t.csv"
    run(["generate", "--curve", "circle", "--n", "30", "--out", tmp_path / "z.csv",
         "--labels", t])
    assert run(["evaluate", "--metric", "closed-time", "--truth", t, "--estimate", t,
                "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("metric,")
    assert "closed-time" in out[1]


def test_evaluate_relative_metric(tmp_path):
    z, t = tmp_path / "z.csv", tmp_path / "t.csv"
    run(["generate", "--curve", "cardioid", "--n", "50", "--seed", "6",
         "--out", z, "--labels", t])
    est = tmp_path / "est.csv"
    assert run(["recover", "--kind", "open", "--input", z, "--sigma2", "0.05",
                "--out", est]) == 0
    out = tmp_path / "rep.json"
    assert run(["evaluate", "--metric", "relative", "--truth", t, "--estimate", est,
                "--matrix", z, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert 0.0 <= rep["error"] <= 2.0


def test_recover_disconnected_graph_exits_2(tmp_path, capsys):
    # at sigma^2 = 0.005 two of these 50 cardioid points have no kernel
    # neighbour above rounding; no labels may come back
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "cardioid", "--n", "50", "--seed", "6", "--out", z])
    capsys.readouterr()
    for kind in ("open", "closed"):
        assert run(["recover", "--kind", kind, "--input", z, "--sigma2", "0.005",
                    "--out", est]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DisconnectedGraphError"
        assert "2 of 50" in err["message"]
    assert not est.exists()


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
        (["--sigma", "auto", "--noise-level", "0.01"], dict(policy="auto", noise_level=0.01)),
        (["--sigma", "data"], dict(policy="data")),
        (["--sigma", "0.3"], dict(sigma=0.3)),
    ],
)
def test_recover_reports_the_bandwidth_choose_bandwidth_picks(tmp_path, capsys, flags, choice):
    z, est = tmp_path / "z.csv", tmp_path / "est.csv"
    run(["generate", "--curve", "circle", "--n", "200", "--snr", "100", "--out", z])
    capsys.readouterr()
    assert run(["recover", "--kind", "closed", "--input", z, "--out", est, *flags]) == 0
    reported = json.loads(capsys.readouterr().err)["sigma"]
    expected = choose_bandwidth(load_data_matrix(z), CurveKind.CLOSED_LOOP, **choice)
    assert reported == expected.sigma


def test_recover_rejects_sigma_with_sigma2(tmp_path, capsys):
    z = tmp_path / "z.csv"
    run(["generate", "--curve", "circle", "--n", "50", "--out", z])
    assert run(["recover", "--kind", "closed", "--input", z, "--sigma", "0.3",
                "--sigma2", "0.09", "--out", tmp_path / "est.csv"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
