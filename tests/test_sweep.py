import csv
import importlib
import json
from pathlib import Path

import pytest

from spectime import CurveSpec, SweepConfig, sweep
from spectime.errors import ConfigError, NoConvergenceError

# the submodule is shadowed by the re-exported sweep() function
sweep_mod = importlib.import_module("spectime.sweep")


def read_rows(out_dir):
    with open(Path(out_dir) / "results.csv", newline="") as f:
        return list(csv.DictReader(f))


def test_row_count_single_method(tmp_path):
    sc = SweepConfig(
        curve=CurveSpec("half-circle"),
        n_values=(40, 60),
        snr_values=(10.0, 100.0, 1000.0),
        replicates=2,
        methods=("spectral",),
        out_dir=str(tmp_path),
    )
    rows = sweep(sc)
    assert len(rows) == 2 * 3 * 2  # |n| * |snr| * replicates
    on_disk = read_rows(tmp_path)
    cell_rows = [r for r in on_disk if r["replicate"] != "mean"]
    agg_rows = [r for r in on_disk if r["replicate"] == "mean"]
    assert len(cell_rows) == 12
    assert len(agg_rows) == 6  # one mean row per (n, snr, method)


def test_both_methods_share_seed_per_replicate(tmp_path):
    sc = SweepConfig(
        curve=CurveSpec("cardioid"),
        n_values=(50,),
        snr_values=(100.0,),
        replicates=2,
        out_dir=str(tmp_path),
    )
    rows = sweep(sc)
    by_rep = {}
    for r in rows:
        by_rep.setdefault(r["replicate"], set()).add(r["seed"])
    for seeds in by_rep.values():
        assert len(seeds) == 1


def test_deterministic_given_seed_base(tmp_path):
    kwargs = dict(
        curve=CurveSpec("half-circle"),
        n_values=(40,),
        snr_values=(100.0,),
        replicates=2,
        seed_base=7,
    )
    sweep(SweepConfig(**kwargs, out_dir=str(tmp_path / "a")))
    sweep(SweepConfig(**kwargs, out_dir=str(tmp_path / "b"), threads=2))
    rows_a, rows_b = read_rows(tmp_path / "a"), read_rows(tmp_path / "b")
    for ra, rb in zip(rows_a, rows_b):
        ra.pop("wall_ms"), rb.pop("wall_ms")  # timing is the one nondeterministic column
        assert ra == rb


def test_empty_grid_rejected_before_work(tmp_path):
    with pytest.raises(ConfigError):
        SweepConfig(curve=CurveSpec("circle"), n_values=(10,), snr_values=())


@pytest.mark.parametrize("sigma", ["guess", -1.0, 0.0, float("inf"), 1e-200, 1e300])
def test_bad_sigma_rejected_before_work(tmp_path, sigma):
    with pytest.raises(ConfigError, match="sigma"):
        SweepConfig(curve=CurveSpec("circle"), n_values=(10,), snr_values=(10.0,),
                    sigma=sigma, out_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("setting, name", [
    (dict(noise_level=-1.0), "noise_level"),
    (dict(noise_level=float("nan")), "noise_level"),
    (dict(sigma=0.3, noise_level=0.5), "noise_level"),
    (dict(delta_fraction=0.7), "delta_fraction"),
    (dict(delta_fraction=0.5), "delta_fraction"),
    (dict(delta_fraction=-0.1), "delta_fraction"),
])
def test_bad_noise_level_or_delta_fraction_rejected_before_work(tmp_path, setting, name):
    with pytest.raises(ConfigError, match=name):
        SweepConfig(curve=CurveSpec("half-circle"), n_values=(10,), snr_values=(10.0,),
                    out_dir=str(tmp_path / "sw"), **setting)
    assert not any(tmp_path.iterdir())


def test_cell_failure_recorded_and_sweep_continues(tmp_path, monkeypatch):
    def boom(cfg):
        raise NoConvergenceError(7, "injected failure")

    monkeypatch.setattr(sweep_mod, "run_pipeline", boom)
    sc = SweepConfig(
        curve=CurveSpec("half-circle"),
        n_values=(40,),
        snr_values=(100.0,),
        replicates=2,
        out_dir=str(tmp_path),
    )
    rows = sweep(sc)
    spectral = [r for r in rows if r["method"] == "spectral"]
    baseline = [r for r in rows if r["method"] == "serialrank"]
    assert all("injected failure" in r["error"] for r in spectral)
    assert all(r["error"] == "" for r in baseline)
    agg = [r for r in read_rows(tmp_path) if r["replicate"] == "mean"
           and r["method"] == "spectral"]
    assert agg and "failed" in agg[0]["error"]


def test_programming_error_propagates(tmp_path, monkeypatch):
    # only data and solver failures become rows; a fault in the code must surface
    def boom(cfg):
        raise TypeError("injected bug")

    monkeypatch.setattr(sweep_mod, "run_pipeline", boom)
    sc = SweepConfig(
        curve=CurveSpec("half-circle"),
        n_values=(40,),
        snr_values=(100.0,),
        methods=("spectral",),
        out_dir=str(tmp_path),
    )
    with pytest.raises(TypeError, match="injected bug"):
        sweep(sc)


def test_manifest_records_config_and_seeds(tmp_path):
    sc = SweepConfig(
        curve=CurveSpec("circle"),
        n_values=(30,),
        snr_values=(10.0,),
        replicates=1,
        methods=("spectral",),
        seed_base=5,
        out_dir=str(tmp_path),
    )
    sweep(sc)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["seed_base"] == 5
    assert manifest["config"]["sigma"] == "auto"
    assert manifest["seeds"] == [5]
    assert manifest["rows"] == 1
