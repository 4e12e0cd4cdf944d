"""Each run-setting rule has one home, the module of the stage that reads
the setting, and every entry point applies it before any work.

Each table below is one rule.  A row drives one bad value through every
entry point that takes it: the stage functions, ``PipelineConfig`` (through
``run_pipeline``), ``SweepConfig`` (through ``sweep``) and the CLI.  Every
entry point must raise the row's error type, the CLI must exit 2 with it
as JSON, and nothing may be written.
"""

import json
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from spectime import (
    AlignmentReport,
    CurveSpec,
    DataMatrix,
    PipelineConfig,
    SweepConfig,
    TimeLabels,
    add_noise,
    denoise_auto,
    denoise_fixed_rank,
    err_closed_time,
    err_open_rank,
    err_open_time,
    generate,
    interior_relative_error,
    noise_for_snr,
    noisy_sample,
    ranking_from_labels,
    run_pipeline,
    sweep,
)
from spectime import io, metrics
from spectime.cli import main
from spectime.errors import (
    ConfigError,
    LabelRangeError,
    RankTooLargeError,
    SpectimeError,
)

NAN, INF = math.nan, math.inf
CIRCLE = CurveSpec("circle")
EMBEDDED = CurveSpec.parse("embedded:20")
X = generate(CIRCLE, 20, 0)[0]
Z = DataMatrix(np.random.default_rng(0).standard_normal((20, 30)))  # d = 20, N = 30


class Case(NamedTuple):
    error: type
    stage: Callable | tuple | None = None  # the stage function(s), called with the bad value
    config: dict | None = None  # PipelineConfig fields over a 20-point circle
    sweep: dict | None = None  # SweepConfig fields over a 20-point circle at SNR 10
    cli: tuple = ()  # argv lists; "{z}" is a 30 x 20 data file, "{out}" the output directory


def entries(cases):
    return [pytest.param(case, entry, id=f"{name}-{entry}")
            for name, case in cases.items()
            for entry in ("stage", "config", "sweep", "cli") if getattr(case, entry)]


def refused_before_any_write(case, entry, tmp_path, monkeypatch, capsys):
    z = tmp_path / "z.csv"
    io.save_data_matrix(z, Z)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    if entry == "cli":
        for argv in case.cli:
            assert main([a.format(z=z, out=out) for a in argv]) == 2
            assert json.loads(capsys.readouterr().err)["error"] == case.error.__name__
    else:
        calls = {
            "stage": case.stage,
            "config": lambda: run_pipeline(PipelineConfig(
                **{"curve": CIRCLE, "n": 20, **case.config}, out_dir=str(out / "run"))),
            "sweep": lambda: sweep(SweepConfig(
                **{"curve": CIRCLE, "n_values": (20,), "snr_values": (10.0,), **case.sweep},
                out_dir=str(out / "sw"))),
        }[entry]
        for call in calls if isinstance(calls, tuple) else (calls,):
            with pytest.raises(SpectimeError) as info:
                call()
            assert type(info.value) is case.error
    assert not any(out.iterdir())


def generate_argv(*flags):
    return ["generate", "--curve", "circle", "--n", "20", *flags, "--out", "{out}/z.csv",
            "--labels", "{out}/t.csv"]


def sweep_argv(*flags, curve="circle"):
    return ["sweep", "--curve", curve, "--n", "20", "--snr", "10", *flags,
            "--out-dir", "{out}/sw"]


def evaluate_argv(metric, *flags):
    # neither input exists: a rule applied after reading them would exit 3
    return ["evaluate", "--metric", metric, "--truth", "{out}/t.csv", "--estimate",
            "{out}/e.csv", *flags, "--out", "{out}/report.json"]


# synth.check_sample: n >= 2; at most one of snr > 0 and 0 <= eps < inf
SAMPLE_RULE = {
    "n-1": Case(ConfigError, lambda: generate(CIRCLE, 1, 0), dict(n=1), dict(n_values=(1,)),
                (["generate", "--curve", "circle", "--n", "1", "--out", "{out}/z.csv"],)),
    "snr-nan": Case(ConfigError, lambda: noise_for_snr(X, NAN, 0), dict(snr=NAN),
                    dict(snr_values=(NAN,)), (generate_argv("--snr", "nan"),
                                              ["sweep", "--curve", "circle", "--n", "20",
                                               "--snr", "nan", "--out-dir", "{out}/sw"])),
    "snr-negative": Case(ConfigError, lambda: noise_for_snr(X, -1.0, 0), dict(snr=-1.0),
                         dict(snr_values=(-1.0,)), (generate_argv("--snr", "-1"),)),
    "snr-zero": Case(ConfigError, lambda: noisy_sample(CIRCLE, 20, 0, snr=0.0), dict(snr=0.0),
                     dict(snr_values=(0.0,)), (generate_argv("--snr", "0"),)),
    "eps-nan": Case(ConfigError, lambda: add_noise(X, NAN, 0), dict(eps=NAN), None,
                    (generate_argv("--eps", "nan"),)),
    "eps-inf": Case(ConfigError, lambda: add_noise(X, INF, 0), dict(eps=INF), None,
                    (generate_argv("--eps", "inf"),)),
    "eps-negative": Case(ConfigError, lambda: add_noise(X, -0.1, 0), dict(eps=-0.1), None,
                         (generate_argv("--eps", "-0.1"),)),
    "snr-and-eps": Case(ConfigError, lambda: noisy_sample(CIRCLE, 20, 0, snr=1.0, eps=0.1),
                        dict(snr=1.0, eps=0.1), None, (generate_argv("--snr", "1", "--eps", "0.1"),)),
}

# denoise.check_denoise: at most one of rank and r0; 0 < eta < 1, read only with r0;
# the rank an integer in [1, min(d, N)]
EMBEDDED_30 = dict(curve=EMBEDDED, n=30, snr=10.0)
DENOISE_RULE = {
    "rank-2.7": Case(RankTooLargeError, lambda: denoise_fixed_rank(Z, 2.7),
                     dict(EMBEDDED_30, denoise_rank=2.7)),
    "r0-3.9": Case(RankTooLargeError, lambda: denoise_auto(Z, 3.9, 1e-3, 0),
                   dict(EMBEDDED_30, denoise_auto_r0=3.9)),
    "rank-0": Case(RankTooLargeError, lambda: denoise_fixed_rank(Z, 0),
                   dict(EMBEDDED_30, denoise_rank=0),
                   cli=(["denoise", "--input", "{z}", "--rank", "0", "--out", "{out}/x.csv"],)),
    "r0-negative": Case(RankTooLargeError, lambda: denoise_auto(Z, -4, 1e-3, 0),
                        dict(EMBEDDED_30, denoise_auto_r0=-4),
                        cli=(["denoise", "--input", "{z}", "--auto", "--r0", "-4",
                              "--out", "{out}/x.csv"],)),
    "r0-above-min-d-n": Case(RankTooLargeError, lambda: denoise_auto(Z, 50, 1e-3, 0),
                             dict(EMBEDDED_30, denoise_auto_r0=50),
                             cli=(["denoise", "--input", "{z}", "--auto", "--r0", "50",
                                   "--out", "{out}/x.csv"],)),
    "eta-2": Case(ConfigError, lambda: denoise_auto(Z, 5, 2.0, 0),
                  dict(EMBEDDED_30, denoise_auto_r0=5, denoise_eta=2.0),
                  cli=(["denoise", "--input", "{z}", "--auto", "--eta", "2",
                        "--out", "{out}/x.csv"],)),
    "eta-nan": Case(ConfigError, lambda: denoise_auto(Z, 5, NAN, 0),
                    dict(EMBEDDED_30, denoise_auto_r0=5, denoise_eta=NAN),
                    cli=(["denoise", "--input", "{z}", "--auto", "--eta", "nan",
                          "--out", "{out}/x.csv"],)),
    "eta-without-r0": Case(ConfigError, None, dict(EMBEDDED_30, denoise_rank=3, denoise_eta=0.5),
                           cli=(["denoise", "--input", "{z}", "--rank", "3", "--eta", "0.5",
                                 "--out", "{out}/x.csv"],
                                ["denoise", "--input", "{z}", "--rank", "3", "--eta", "5",
                                 "--r0", "-4", "--out", "{out}/x.csv"],
                                ["denoise", "--input", "{z}", "--rank", "3", "--seed", "1",
                                 "--out", "{out}/x.csv"])),
    "eta-without-denoising": Case(ConfigError, None, dict(denoise_eta=0.01)),
    "rank-and-r0": Case(ConfigError, None, dict(EMBEDDED_30, denoise_rank=2, denoise_auto_r0=3),
                        cli=(["denoise", "--input", "{z}", "--rank", "2", "--r0", "3",
                              "--out", "{out}/x.csv"],)),
}

# metrics.check_delta_fraction: the open-curve margin is a fraction in [0, 0.5),
# at every reader of the window; pipeline.PipelineConfig: a closed loop reads none
HALF_CIRCLE = CurveSpec("half-circle")
T = TimeLabels(np.linspace(0.0, 2.0 * math.pi, 20))
P = ranking_from_labels(T)


def window_readers(fraction):
    return (lambda: err_open_time(T, T, fraction), lambda: err_open_rank(P, P, fraction),
            lambda: interior_relative_error(X, T, T, fraction))


WINDOW_RULE = {
    **{f"fraction-{v}": Case(ConfigError, window_readers(float(v)),
                             dict(curve=HALF_CIRCLE, delta_fraction=float(v)),
                             dict(curve=HALF_CIRCLE, delta_fraction=float(v)),
                             (evaluate_argv("open-time", "--delta-fraction", v),
                              evaluate_argv("open-rank", "--delta-fraction", v),
                              sweep_argv("--delta-fraction", v, curve="half-circle")))
       for v in ("-0.1", "0.5", "0.7", "nan", "inf")},
    "closed-loop-0.3": Case(ConfigError, None, dict(delta_fraction=0.3),
                            dict(delta_fraction=0.3), (sweep_argv("--delta-fraction", "0.3"),)),
    "embedded-loop-0": Case(ConfigError, None, dict(curve=EMBEDDED, delta_fraction=0.0),
                            dict(curve=EMBEDDED, delta_fraction=0.0)),
}


@pytest.mark.parametrize("case, entry", entries(SAMPLE_RULE))
def test_sample_rule(case, entry, tmp_path, monkeypatch, capsys):
    refused_before_any_write(case, entry, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("case, entry", entries(DENOISE_RULE))
def test_denoise_rule(case, entry, tmp_path, monkeypatch, capsys):
    refused_before_any_write(case, entry, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("case, entry", entries(WINDOW_RULE))
def test_delta_fraction_rule(case, entry, tmp_path, monkeypatch, capsys):
    refused_before_any_write(case, entry, tmp_path, monkeypatch, capsys)


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError) and issubclass(ConfigError, SpectimeError)
    with pytest.raises(ValueError, match="snr must be positive"):
        noise_for_snr(X, -1.0, 0)


def test_valid_settings_still_run(tmp_path, capsys):
    # the defaults and every mode's own settings pass the rules
    run_pipeline(PipelineConfig(curve=CurveSpec("half-circle"), n=40, snr=100.0,
                                delta_fraction=0.2))
    run_pipeline(PipelineConfig(curve=EMBEDDED, n=30, snr=10.0, denoise_auto_r0=np.int64(20),
                                denoise_eta=0.01))
    assert denoise_fixed_rank(Z, np.int64(2)).r_hat == 2
    z, x = tmp_path / "z.csv", tmp_path / "x.csv"
    io.save_data_matrix(z, Z)
    assert main(["denoise", "--input", str(z), "--auto", "--r0", "5", "--eta", "0.1",
                 "--seed", "3", "--out", str(x)]) == 0
    assert main(["denoise", "--input", str(z), "--rank", "2", "--out", str(x)]) == 0


# ---- scoring: one reflection quotient, one best-report rule, one ranking reader

def test_reflection_tie_keeps_the_direct_branch():
    # direct |a - b| and reflected |1 - a - b| are both 0.5
    a, b = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    assert metrics._reflection(a, b, 1.0) == AlignmentReport(error=0.5, r=1)
    # through both open metrics: labels and ranks symmetric about the middle
    t = TimeLabels(np.array([1.0, 2.0 * math.pi - 1.0]))
    assert err_open_time(t, TimeLabels(np.full(2, math.pi)), 0.0).r == 1
    p = ranking_from_labels(TimeLabels(np.array([0.0, 1.0, 2.0])))
    tied = ranking_from_labels(TimeLabels(np.array([1.0, 0.0, 2.0])))  # ranks 1, 0, 2
    report = err_open_rank(p, tied, 0.0)
    assert (report.error, report.r) == (1.0, 1)  # reflected ranks 2, 1, 0 also miss by 1


def test_best_tie_keeps_the_first_report():
    first, second = AlignmentReport(error=0.5, r=1), AlignmentReport(error=0.5, r=-1)
    assert metrics._best([first, second]) is first
    assert metrics._best(iter([second, first])) is second
    # a closed-time tie: t and t2 = t align by identity and by reflection alike
    t = TimeLabels(np.array([0.0, math.pi]))
    assert err_closed_time(t, t).r == 1


def test_closed_rank_parses_a_labels_truth_file_once(tmp_path, monkeypatch, capsys):
    z, t, est = tmp_path / "z.csv", tmp_path / "t.csv", tmp_path / "est.csv"
    main(["generate", "--curve", "circle", "--n", "60", "--snr", "100", "--seed", "1",
          "--out", str(z), "--labels", str(t)])
    main(["recover", "--kind", "closed", "--input", str(z), "--out", str(est)])
    parsed = []
    read = io._read_indexed_csv

    def counted(path):
        parsed.append(str(path))
        return read(path)

    monkeypatch.setattr(io, "_read_indexed_csv", counted)
    capsys.readouterr()
    assert main(["evaluate", "--metric", "closed-rank", "--truth", str(t),
                 "--estimate", str(est)]) == 0
    assert parsed == [str(t), str(est)]
    assert json.loads(capsys.readouterr().out)["error"] < 0.1


def test_label_outside_range_names_index_value_and_file(tmp_path, capsys):
    with pytest.raises(LabelRangeError, match=r"label 1 is 7\.5, outside \[0, 2\*pi\]"):
        TimeLabels(np.array([0.5, 7.5, -1.0]))
    assert issubclass(LabelRangeError, ValueError) and issubclass(LabelRangeError, SpectimeError)
    t = tmp_path / "t.csv"
    t.write_text("index,value\n0,0.5\n2,1.0\n1,7.5\n")
    with pytest.raises(LabelRangeError) as info:
        io.load_labels(t)
    assert str(info.value) == f"{t}: label 1 is 7.5, outside [0, 2*pi]"
    for metric in ("closed-time", "closed-rank"):
        assert main(["evaluate", "--metric", metric, "--truth", str(t),
                     "--estimate", str(t)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "LabelRangeError", "message": str(info.value)}
