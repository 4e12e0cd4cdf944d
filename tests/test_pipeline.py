import json
import tracemalloc

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
    err_closed_time,
    generate,
    noise_for_snr,
    recover_closed,
    recover_labels,
    recover_open_blend,
    run_pipeline,
    smallest_eigenpairs,
)
from spectime import eigen
from spectime.errors import ConfigError, DisconnectedGraphError


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
    assert not (tmp_path / "z_tilde.csv").exists()


def test_denoise_stage_runs_when_requested(tmp_path):
    cfg = PipelineConfig(
        curve=CurveSpec("embedded", 50), n=120, seed=2, snr=10.0,
        denoise_auto_r0=10, out_dir=str(tmp_path),
    )
    report = run_pipeline(cfg)
    assert report["r_hat"] >= 1
    assert (tmp_path / "z_tilde.csv").exists()


def test_rerun_reproduces_stage_outputs(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    cfg = dict(curve=CurveSpec("half-circle"), n=150, seed=3, snr=50.0)
    run_pipeline(PipelineConfig(**cfg, out_dir=str(a_dir)))
    run_pipeline(PipelineConfig(**cfg, out_dir=str(b_dir)))
    for name in ("z.csv", "t_true.csv", "recovered.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    ra = json.loads((a_dir / "report.json").read_text())
    rb = json.loads((b_dir / "report.json").read_text())
    ra.pop("wall_ms"), rb.pop("wall_ms")
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
        PipelineConfig(curve=CurveSpec("circle"), n=10, sigma_policy="guess")


@pytest.mark.parametrize("kind", list(CurveKind))
def test_recover_labels_matches_separate_stages(kind, monkeypatch):
    # the one-buffer path against kernel -> copied Laplacian -> eigensolve,
    # bit for bit, on the Lanczos path
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 100)
    curve = "circle" if kind is CurveKind.CLOSED_LOOP else "half-circle"
    x, _ = generate(CurveSpec(curve), 600, 21)
    z = noise_for_snr(x, 100.0, 22)
    p = KernelParams(0.25)
    seen = []
    out = recover_labels(z, kind, p, on_laplacian=seen.append)
    lap = build_laplacian(build_kernel(z, p))
    assert np.array_equal(seen[0].l, lap.l)
    if kind is CurveKind.OPEN_CURVE:
        u = smallest_eigenpairs(lap, k=2).eigenvectors
        expected = recover_open_blend(lap.inv_sqrt_degrees * u[:, 1])
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
        out = recover_labels(x, CurveKind.CLOSED_LOOP, KernelParams(n ** (-1 / 7)))
        assert err_closed_time(TimeLabels(t), out.labels).error <= 0.1


def test_recover_labels_holds_one_n_by_n_buffer():
    # Lanczos path (N above the dense cutoff): the kernel, the Laplacian
    # and the eigensolve share one N x N array, plus row-block
    # temporaries; two arrays would read 2.0
    n = 2100
    x, _ = generate(CurveSpec("circle"), n, 23)
    z = noise_for_snr(x, 100.0, 24)
    tracemalloc.start()
    try:
        recover_labels(z, CurveKind.CLOSED_LOOP, KernelParams(n ** (-1 / 7)))
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
        recover_labels(z, CurveKind.OPEN_CURVE, KernelParams(0.1414))
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
        recover_labels(z, kind, KernelParams(0.05))
    assert "more than one component" in str(info.value)
    # one arc alone is connected
    recover_labels(DataMatrix(z.values[:, :300]), kind, KernelParams(0.05))
