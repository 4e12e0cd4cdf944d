import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spectime import (
    CurveKind,
    CurveSpec,
    DataMatrix,
    KernelParams,
    PipelineConfig,
    TimeLabels,
    build_kernel,
    build_laplacian,
    data_driven_bandwidth,
    denoise_auto,
    err_closed_time,
    generate,
    interior_relative_error,
    noise_for_snr,
    noisy_sample,
    recover_closed,
    recover_labels,
    recover_open,
    run_pipeline,
    select_bandwidth,
    smallest_eigenpairs,
)
from spectime import eigen, io, pipeline, recover
from spectime.errors import ConfigError, DisconnectedGraphError, TooFewPointsError
from spectime.kernel import STRIP

STAGES = ("bandwidth", "kernel", "laplacian", "eigensolve", "labels")


def test_smoke_noiseless_circle(tmp_path):
    cfg = PipelineConfig(curve=CurveSpec("circle"), n=500, seed=0, out_dir=str(tmp_path))
    report = run_pipeline(cfg)
    assert "time_error" in report and report["time_error"] < 0.3
    assert (tmp_path / "z.csv").exists()
    assert (tmp_path / "recovered.csv").exists()
    assert json.loads((tmp_path / "report.json").read_text())["n"] == 500


def test_denoise_stage_skipped_without_rank(tmp_path):
    cfg = PipelineConfig(curve=CurveSpec("circle"), n=100, seed=1, out_dir=str(tmp_path))
    report = run_pipeline(cfg)
    assert "r_hat" not in report
    assert not (tmp_path / "coords.csv").exists()


def test_denoise_stage_runs_when_requested(tmp_path):
    cfg = PipelineConfig(
        curve=CurveSpec("embedded", 50), n=120, seed=2, snr=10.0,
        denoise_auto_r0=10, out_dir=str(tmp_path),
    )
    report = run_pipeline(cfg)
    assert report["r_hat"] >= 1
    assert (tmp_path / "coords.csv").exists()


@pytest.mark.parametrize("mode", [dict(denoise_rank=3), dict(denoise_auto_r0=10)])
def test_denoised_recovery_reads_coordinates(tmp_path, monkeypatch, mode):
    # the kernel sees the r_hat coordinate rows, and coords.csv holds them
    calls = {}

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            result = fn(*args)
            calls[name] = (args, result)
            return result

        monkeypatch.setattr(module, name, wrapped)

    for name in ("denoise_fixed_rank", "denoise_auto"):
        spy(pipeline, name)
    for name in ("build_kernel", "build_laplacian"):
        spy(recover, name)
    cfg = PipelineConfig(curve=CurveSpec("embedded", 50), n=120, seed=2, snr=10.0,
                         out_dir=str(tmp_path), **mode)
    report = run_pipeline(cfg)
    (z, *_), den = calls["denoise_fixed_rank" if "denoise_rank" in mode else "denoise_auto"]
    (seen, _), km = calls["build_kernel"]
    ((built,), lap) = calls["build_laplacian"]
    assert built is km and lap.l is km.k  # L is written over the kernel's packed matrix
    assert seen.values.shape == (report["r_hat"], 120)
    assert np.array_equal(seen.values, den.basis.T @ z.values)
    written = io.load_data_matrix(tmp_path / "coords.csv").values
    assert np.array_equal(written, den.coords.values)


def test_rerun_reproduces_stage_outputs(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    cfg = dict(curve=CurveSpec("half-circle"), n=150, seed=3, snr=50.0)
    run_pipeline(PipelineConfig(**cfg, out_dir=str(a_dir)))
    run_pipeline(PipelineConfig(**cfg, out_dir=str(b_dir)))
    for name in ("z.csv", "t_true.csv", "recovered.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    ra = json.loads((a_dir / "report.json").read_text())
    rb = json.loads((b_dir / "report.json").read_text())
    for r in (ra, rb):
        # the timings and the memory rises are the nondeterministic fields
        r.pop("wall_ms"), r.pop("stage_ms"), r.pop("stage_peak_mb")
    assert ra == rb


def test_fixed_sigma_respected():
    report = run_pipeline(
        PipelineConfig(curve=CurveSpec("circle"), n=80, seed=4, sigma=0.5)
    )
    assert report["sigma"] == 0.5


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(curve=CurveSpec("circle"), n=1)
    with pytest.raises(ConfigError):
        PipelineConfig(curve=CurveSpec("circle"), n=10, snr=1.0, eps=0.1)
    with pytest.raises(ConfigError):
        PipelineConfig(curve=CurveSpec("circle"), n=10, denoise_rank=2, denoise_auto_r0=3)
    with pytest.raises(ConfigError):
        PipelineConfig(curve=CurveSpec("circle"), n=10, sigma="guess")


def test_closed_loop_of_two_points_refused_before_work(tmp_path):
    with pytest.raises(ConfigError, match="a closed loop needs at least 3 points"):
        PipelineConfig(curve=CurveSpec("circle"), n=2, snr=10.0, out_dir=str(tmp_path / "run"))
    assert not any(tmp_path.iterdir())
    PipelineConfig(curve=CurveSpec("half-circle"), n=2)  # an open curve reads two pairs


def test_recover_labels_refuses_a_closed_loop_of_two_points_before_the_kernel(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the bandwidth or the kernel ran")

    for name in ("select_bandwidth", "data_driven_bandwidth", "build_kernel"):
        monkeypatch.setattr(recover, name, unreachable)
    z = DataMatrix(np.array([[1.0, -1.0], [0.0, 0.5]]))
    for sigma in ("auto", "data", 0.5):
        with pytest.raises(TooFewPointsError, match="closed loop needs at least 3 points, got N=2"):
            recover_labels(z, CurveKind.CLOSED_LOOP, sigma)


@pytest.mark.parametrize("kind", list(CurveKind))
def test_recovery_carries_the_eigensolve_diagnostics(kind):
    x, _ = generate(CurveSpec("circle" if kind is CurveKind.CLOSED_LOOP else "half-circle"), 300, 5)
    out = recover_labels(x, kind, 0.3)
    spectral = smallest_eigenpairs(build_laplacian(build_kernel(x, KernelParams(0.3))),
                                   k=3 if kind is CurveKind.CLOSED_LOOP else 2)
    assert out.solver_path == spectral.path
    assert out.eigenvalues == tuple(spectral.eigenvalues.tolist())
    assert out.max_residual == spectral.residuals.max()
    assert out.applications == spectral.applications
    report = out.report()
    assert report["eigenvalues"] == list(out.eigenvalues)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("sigma", ["auto", "data", 0.3])
def test_report_times_each_stage_of_the_recovery(sigma):
    x, _ = generate(CurveSpec("circle"), 300, 5)
    started = time.perf_counter()
    out = recover_labels(x, CurveKind.CLOSED_LOOP, sigma)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    assert tuple(out.stage_ms) == STAGES
    assert all(ms >= 0.0 for ms in out.stage_ms.values())
    assert sum(out.stage_ms.values()) <= elapsed_ms
    assert out.report()["stage_ms"] == out.stage_ms
    assert tuple(out.stage_peak_mb) == STAGES
    assert all(mb >= 0.0 for mb in out.stage_peak_mb.values())
    assert out.report()["stage_peak_mb"] == out.stage_peak_mb


def test_stage_peaks_add_up_to_less_than_one_n_by_n_array():
    # in a fresh process the kernel stage raises the peak resident size by at
    # most its packed matrix, half an N x N array, and a few MB, and all the
    # stages together (the Laplacian is written over that matrix) by less
    # than one N x N array.  How much of the kernel shows depends on how much
    # freed memory malloc had kept, so there is no lower bound.
    n = 3000
    src = str(Path(eigen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("import json, spectime as st\n"
              f"z = st.noisy_sample(st.CurveSpec('circle'), {n}, 0, 100.0)[2]\n"
              "print(json.dumps(st.recover_labels(z, st.CurveKind.CLOSED_LOOP).stage_peak_mb))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    peak = json.loads(out.stdout)
    packed_mb = 8 * (n * (n + 1) // 2 + n * STRIP) / 2**20
    assert tuple(peak) == STAGES
    assert peak["kernel"] <= packed_mb + 8.0
    assert sum(peak.values()) < 8 * n * n / 2**20


def test_highdim_configuration_takes_the_block_path():
    # the highdim-5k benchmark's recovery: embedded:5000, N=2000, SNR 1,
    # denoised to r_hat coordinates; its Laplacian's spectrum is well separated
    _, _, z = noisy_sample(CurveSpec("embedded", 5000), 2000, 0, 1.0, None)
    den = denoise_auto(z, 400, 1e-3, 2)
    del z
    out = recover_labels(den.coords, CurveKind.CLOSED_LOOP)
    assert out.solver_path == "block"


def test_report_records_the_denoise_route_and_the_recovery_diagnostics(tmp_path):
    cfg = PipelineConfig(curve=CurveSpec("embedded", 50), n=120, seed=2, snr=10.0,
                         denoise_auto_r0=10, out_dir=str(tmp_path))
    report = run_pipeline(cfg)
    _, _, z = noisy_sample(cfg.curve, cfg.n, cfg.seed, cfg.snr, None)
    den = denoise_auto(z, 10, cfg.denoise_eta, cfg.seed + 2)
    assert (report["r_hat"], report["denoise_route"], report["denoise_ratio"]) == (
        den.r_hat, "gram", den.ratio)
    recovery = recover_labels(den.coords, CurveKind.CLOSED_LOOP)
    for key, value in recovery.report().items():
        assert key in ("stage_ms", "stage_peak_mb") or report[key] == value
    assert len(report["eigenvalues"]) == 3
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["solver_path"] == recovery.solver_path
    assert set(written["stage_ms"]) == set(written["stage_peak_mb"]) == set(STAGES)


@pytest.mark.parametrize("setting, name", [
    (dict(delta_fraction=0.7), "delta_fraction"),
    (dict(delta_fraction=float("nan")), "delta_fraction"),
])
def test_bad_delta_fraction_rejected_before_work(tmp_path, setting, name):
    with pytest.raises(ConfigError, match=name):
        PipelineConfig(curve=CurveSpec("half-circle"), n=10, out_dir=str(tmp_path / "run"),
                       **setting)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("setting, name", [
    (dict(snr=0.0), "snr"),
    (dict(snr=-1.0), "snr"),
    (dict(snr=float("nan")), "snr"),
    (dict(eps=-0.1), "eps"),
    (dict(eps=float("inf")), "eps"),
    (dict(eps=float("nan")), "eps"),
])
def test_bad_noise_setting_rejected_before_work(tmp_path, setting, name):
    out_dir = tmp_path / "run"
    with pytest.raises(ConfigError, match=name):
        run_pipeline(PipelineConfig(curve=CurveSpec("circle"), n=10, out_dir=str(out_dir),
                                    **setting))
    assert not out_dir.exists()


@pytest.mark.parametrize("curve", ["circle", "half-circle"])
def test_run_baseline_scores_the_pipelines_sample_and_window(curve):
    # the baseline reads the same noisy sample as run_pipeline and is scored
    # on its window: delta_fraction for an open curve, every point on a loop
    # (which takes only the default delta_fraction, 0.05)
    setting = dict(delta_fraction=0.1) if curve == "half-circle" else {}
    cfg = PipelineConfig(curve=CurveSpec(curve), n=80, seed=3, snr=50.0, **setting)
    x, t_true, z = noisy_sample(cfg.curve, cfg.n, cfg.seed, cfg.snr, None)
    fraction = 0.1 if curve == "half-circle" else 0.0
    expected = interior_relative_error(x, t_true, pipeline.baseline_labels(z), fraction)
    assert pipeline.run_baseline(cfg) == {"relative_error": expected}


@pytest.mark.parametrize("kind, curve", [(CurveKind.CLOSED_LOOP, "circle"),
                                         (CurveKind.OPEN_CURVE, "half-circle")])
@pytest.mark.parametrize("setting", [dict(sigma="auto"), dict(sigma="data")])
def test_report_sigma_is_the_rules_pick(kind, curve, setting):
    # a fixed sigma is test_fixed_sigma_respected
    cfg = PipelineConfig(curve=CurveSpec(curve), n=120, seed=6, snr=100.0, **setting)
    report = run_pipeline(cfg)
    if setting["sigma"] == "auto":
        expected = select_bandwidth(cfg.n, kind=kind)
    else:
        _, _, z = noisy_sample(cfg.curve, cfg.n, cfg.seed, cfg.snr, None)
        expected = data_driven_bandwidth(z)
    assert report["sigma"] == expected.sigma


@pytest.mark.parametrize("sigma, rule", [("auto", "auto"), ("data", "data"), (0.3, "fixed"),
                                         ("0.3", "fixed")])
def test_report_names_the_rule_that_chose_sigma(tmp_path, sigma, rule):
    cfg = PipelineConfig(curve=CurveSpec("circle"), n=120, seed=6, snr=100.0, sigma=sigma,
                         out_dir=str(tmp_path))
    assert run_pipeline(cfg)["sigma_rule"] == rule
    assert json.loads((tmp_path / "report.json").read_text())["sigma_rule"] == rule
    _, _, z = noisy_sample(cfg.curve, cfg.n, cfg.seed, cfg.snr, None)
    assert recover_labels(z, CurveKind.CLOSED_LOOP, sigma).sigma_rule == rule


@pytest.mark.parametrize("curve, window", [("circle", None), ("half-circle", 0.05)])
def test_report_window_is_the_one_the_metrics_used(tmp_path, curve, window):
    # a loop's relative_error reads every point and its time_error has no
    # window, so its report gives none
    cfg = PipelineConfig(curve=CurveSpec(curve), n=200, snr=100.0, out_dir=str(tmp_path))
    assert run_pipeline(cfg)["delta_fraction"] == window
    assert json.loads((tmp_path / "report.json").read_text())["delta_fraction"] == window


@pytest.mark.parametrize("kind", list(CurveKind))
def test_recover_labels_matches_separate_stages(kind, monkeypatch):
    # the one-buffer path against kernel -> copied Laplacian -> eigensolve,
    # bit for bit, on the block path
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 100)
    curve = "circle" if kind is CurveKind.CLOSED_LOOP else "half-circle"
    x, _ = generate(CurveSpec(curve), 600, 21)
    z = noise_for_snr(x, 100.0, 22)
    seen = []

    def build_copy(km):
        # L as recover_labels built it, copied before the eigensolve reads it
        lap = build_laplacian(km)
        seen.append(lap.l.data.copy())
        return lap

    monkeypatch.setattr(recover, "build_laplacian", build_copy)
    out = recover_labels(z, kind, 0.25)
    assert out.sigma == 0.25
    lap = build_laplacian(build_kernel(z, KernelParams(0.25)))
    assert np.array_equal(seen[0], lap.l.data)
    if kind is CurveKind.OPEN_CURVE:
        u = smallest_eigenpairs(lap, k=2).eigenvectors
        expected = recover_open(lap.inv_sqrt_degrees * u[:, 1])
    else:
        u = smallest_eigenpairs(lap, k=3).eigenvectors
        expected = recover_closed(u[:, 1], u[:, 2])
    assert np.array_equal(out.labels.angles, expected.labels.angles)
    assert np.array_equal(out.ranking.perm, expected.ranking.perm)


def test_closed_loop_labels_under_non_uniform_sampling_density():
    # labels drawn with density proportional to 1 + 0.5 cos t: the alpha = 1
    # operator divides the density out (D^-1/2 K D^-1/2 does not, 0.34-0.42 rad)
    n = 2000
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = np.empty(0)
        while t.size < n:  # rejection sampling
            c = rng.uniform(0.0, 2.0 * np.pi, 2 * n)
            t = np.concatenate([t, c[rng.uniform(0.0, 1.5, c.size) < 1.0 + 0.5 * np.cos(c)]])
        t = t[:n]
        x = DataMatrix(np.vstack([np.cos(t), np.sin(t)]))
        out = recover_labels(x, CurveKind.CLOSED_LOOP, n ** (-1 / 7))
        assert err_closed_time(TimeLabels(t), out.labels).error <= 0.1


def test_recover_labels_holds_one_n_by_n_buffer():
    # block path (N above the dense cutoff): the kernel, the Laplacian
    # and the eigensolve share one N x N array, plus row-block
    # temporaries; two arrays would read 2.0
    n = 2100
    x, _ = generate(CurveSpec("circle"), n, 23)
    z = noise_for_snr(x, 100.0, 24)
    tracemalloc.start()
    try:
        recover_labels(z, CurveKind.CLOSED_LOOP, n ** (-1 / 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n > eigen.DENSE_CUTOFF
    assert peak <= 1.25 * 8 * n * n


def test_recover_labels_dense_path_holds_one_n_by_n_buffer():
    # dense path (N at most the cutoff): the Cholesky factor lives in the
    # Laplacian's own buffer, so no second N x N array appears either
    n = 2000
    x, _ = generate(CurveSpec("cardioid"), n, 25)
    z = noise_for_snr(x, 100.0, 26)
    tracemalloc.start()
    try:
        recover_labels(z, CurveKind.OPEN_CURVE, 0.1414)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n <= eigen.DENSE_CUTOFF
    assert peak <= 1.25 * 8 * n * n


@pytest.mark.parametrize("kind", list(CurveKind))
def test_two_components_raise_instead_of_labels(kind):
    # two arcs of the unit circle, every point with close neighbours: no
    # point is isolated, but L's zero eigenvalue is double
    t = np.concatenate([np.linspace(0.0, 1.0, 300), np.linspace(3.5, 4.5, 300)])
    z = DataMatrix(np.vstack([np.cos(t), np.sin(t)]))
    with pytest.raises(DisconnectedGraphError, match="sigma=0.05") as info:
        recover_labels(z, kind, 0.05)
    assert "more than one component, at least 2;" in str(info.value)
    # one arc alone is connected
    recover_labels(DataMatrix(z.values[:, :300]), kind, 0.05)


def test_three_components_are_counted_on_a_closed_loop():
    # a closed loop computes three eigenvalues, so it can name three components
    t = np.concatenate([np.linspace(0.0, 1.0, 200), np.linspace(2.0, 3.0, 200),
                        np.linspace(4.0, 5.0, 200)])
    z = DataMatrix(np.vstack([np.cos(t), np.sin(t)]))
    with pytest.raises(DisconnectedGraphError, match="3 of the 3 computed") as info:
        recover_labels(z, CurveKind.CLOSED_LOOP, 0.05)
    assert "at least 3;" in str(info.value)
