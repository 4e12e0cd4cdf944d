import csv
import importlib
import json
from pathlib import Path

import pytest

import spectime
from spectime import CurveSpec, PipelineConfig, SweepConfig, sweep
from spectime.errors import ConfigError, NoConvergenceError
from spectime.pipeline import run_baseline

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


def test_concurrent_data_sets_match_serial_above_one_strip(tmp_path):
    # N = 1200 spans several kernel strips, built by two data sets' threads at once
    kwargs = dict(curve=CurveSpec("circle"), n_values=(1200,), snr_values=(100.0,),
                  replicates=2, methods=("spectral",))
    serial = sweep(SweepConfig(**kwargs, out_dir=str(tmp_path / "a")))
    threaded = sweep(SweepConfig(**kwargs, out_dir=str(tmp_path / "b"), threads=2))
    assert len(serial) == len(threaded) == 2
    for ra, rb in zip(serial, threaded):
        ra.pop("wall_ms"), rb.pop("wall_ms")
        assert ra == rb and not ra["error"]


def test_empty_grid_rejected_before_work(tmp_path):
    with pytest.raises(ConfigError):
        SweepConfig(curve=CurveSpec("circle"), n_values=(10,), snr_values=())


@pytest.mark.parametrize("methods", [(), ("spectral", "spectral"),
                                     ("serialrank", "spectral", "serialrank")])
def test_empty_or_repeated_methods_rejected_before_work(tmp_path, methods):
    # no method would write a header-only CSV; a repeat would run a data set twice
    with pytest.raises(ConfigError, match="methods"):
        SweepConfig(curve=CurveSpec("circle"), n_values=(10,), snr_values=(10.0,),
                    methods=methods, out_dir=str(tmp_path / "sw"))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sigma", ["guess", -1.0, 0.0, float("inf"), 1e-200, 1e300])
def test_bad_sigma_rejected_before_work(tmp_path, sigma):
    with pytest.raises(ConfigError, match="sigma"):
        SweepConfig(curve=CurveSpec("circle"), n_values=(10,), snr_values=(10.0,),
                    sigma=sigma, out_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("setting, name", [
    (dict(delta_fraction=0.7), "delta_fraction"),
    (dict(delta_fraction=0.5), "delta_fraction"),
    (dict(delta_fraction=-0.1), "delta_fraction"),
])
def test_bad_delta_fraction_rejected_before_work(tmp_path, setting, name):
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


def test_manifest_bytes_for_a_fixed_config(tmp_path):
    # every SweepConfig field but threads and out_dir, in field order
    sc = SweepConfig(curve=CurveSpec("half-circle"), n_values=(40, 50), snr_values=(100.0,),
                     methods=("spectral", "serialrank"), seed_base=3,
                     threads=2, delta_fraction=0.1, out_dir=str(tmp_path))
    sweep(sc)
    config = ('{"curve": "half-circle", "n_values": [40, 50], "snr_values": [100.0], '
              '"replicates": 1, "methods": ["spectral", "serialrank"], "sigma": "auto", '
              '"seed_base": 3, "delta_fraction": 0.1}')
    expected = {"config": json.loads(config), "seeds": [3, 3, 4, 4],
                "version": spectime.__version__, "rows": 4}
    assert (tmp_path / "manifest.json").read_text() == json.dumps(expected, indent=2)


def test_data_sets_are_pipeline_configs_seeded_in_grid_order():
    sc = SweepConfig(curve=CurveSpec("half-circle"), n_values=(40, 60), snr_values=(10.0, 100.0),
                     replicates=2, sigma="0.3", seed_base=9)
    grid = [(n, snr, rep) for n in (40, 60) for snr in (10.0, 100.0) for rep in range(2)]
    assert [(cfg.n, cfg.snr, rep) for rep, cfg in sc.data_sets] == grid
    assert [cfg.seed for _, cfg in sc.data_sets] == list(range(9, 17))
    assert all(isinstance(cfg, PipelineConfig) and cfg.sigma == 0.3 for _, cfg in sc.data_sets)
    assert sc.sigma == 0.3


@pytest.mark.parametrize("curve", ["cardioid", "circle"])
def test_serialrank_row_is_run_baseline(tmp_path, curve):
    sc = SweepConfig(curve=CurveSpec(curve), n_values=(60,), snr_values=(100.0,),
                     replicates=2, methods=("serialrank",), seed_base=4, out_dir=str(tmp_path))
    rows = sweep(sc)
    for row, (_, cfg) in zip(rows, sc.data_sets):
        assert row["seed"] == cfg.seed and row["error"] == ""
        assert row["relative_error"] == run_baseline(cfg)["relative_error"]
        assert row["sigma"] == "" and row["time_error"] == ""


@pytest.mark.parametrize("setting, name", [
    (dict(n_values=(40, 1)), "n must be at least 2"),
    (dict(snr_values=(100.0, float("nan"))), "snr must be positive"),
    (dict(snr_values=(0.0,)), "snr must be positive"),
    (dict(n_values=(40, 2)), "a closed loop needs at least 3 points"),
])
def test_each_data_set_checked_before_work(tmp_path, setting, name):
    kwargs = dict(curve=CurveSpec("circle"), n_values=(40,), snr_values=(100.0,))
    with pytest.raises(ConfigError, match=name):
        SweepConfig(**{**kwargs, **setting}, out_dir=str(tmp_path / "sw"))
    assert not any(tmp_path.iterdir())


def test_baseline_failure_recorded_through_the_module_name(tmp_path, monkeypatch):
    # the runner is looked up when each row runs, as the benchmark tracer needs
    def boom(cfg):
        raise ValueError("injected baseline failure")

    monkeypatch.setattr(sweep_mod, "run_baseline", boom)
    sc = SweepConfig(curve=CurveSpec("half-circle"), n_values=(40,), snr_values=(100.0,),
                     out_dir=str(tmp_path))
    rows = {r["method"]: r for r in sweep(sc)}
    assert "injected baseline failure" in rows["serialrank"]["error"]
    assert rows["spectral"]["error"] == ""


PARENT_COLUMNS = ("curve", "n", "snr", "replicate", "seed", "sigma", "method", "time_error",
                  "relative_error", "wall_ms", "error")


def test_header_adds_the_solver_columns_and_keeps_the_rest(tmp_path):
    sc = SweepConfig(curve=CurveSpec("half-circle"), n_values=(40,), snr_values=(100.0,),
                     out_dir=str(tmp_path))
    sweep(sc)
    with open(tmp_path / "results.csv", newline="") as f:
        header = next(csv.reader(f))
    assert header == list(sweep_mod.CSV_COLUMNS)
    assert [c for c in header if c in PARENT_COLUMNS] == list(PARENT_COLUMNS)
    assert {"sigma_rule", "solver_path", "max_residual", "applications"} <= set(header)


def test_failed_cells_leave_the_solver_columns_empty(tmp_path, monkeypatch):
    def boom(cfg):
        raise NoConvergenceError(7, "injected failure")

    monkeypatch.setattr(sweep_mod, "run_pipeline", boom)
    sweep(SweepConfig(curve=CurveSpec("half-circle"), n_values=(40,), snr_values=(100.0,),
                      methods=("spectral",), out_dir=str(tmp_path)))
    for row in read_rows(tmp_path):
        assert row["sigma_rule"] == row["solver_path"] == row["max_residual"] == ""
        assert row["applications"] == ""


def solver_columns(tmp_path, **grid):
    """(method, replicate, sigma_rule, solver_path, max_residual, applications)
    of every row on disk."""
    sweep(SweepConfig(**grid, out_dir=str(tmp_path)))
    return [(r["method"], r["replicate"], r["sigma_rule"], r["solver_path"], r["max_residual"],
             r["applications"]) for r in read_rows(tmp_path)]


def test_cardioid_grid_spectral_cells_take_the_factor(tmp_path):
    # the grid of the sweep-cardioid-2k benchmark: a clustered spectrum
    rows = solver_columns(tmp_path, curve=CurveSpec("cardioid"), n_values=(2000,),
                          snr_values=(100.0, 1000.0), replicates=3, sigma=0.1414)
    for method, replicate, rule, path, residual, applications in rows:
        if method == "spectral" and replicate != "mean":
            assert rule == "fixed" and path == "dense" and int(applications) > 0
            assert 0.0 <= float(residual) <= 2e-8  # the certificate: eigenvalues of L < 2
        else:  # baseline cells and mean rows
            assert rule == path == residual == applications == ""


def test_circle_cells_at_n_2000_take_the_block_path(tmp_path):
    rows = solver_columns(tmp_path, curve=CurveSpec("circle"), n_values=(2000,),
                          snr_values=(100.0,), replicates=2, methods=("spectral",))
    cells = [row[2:] for row in rows if row[1] != "mean"]
    assert len(cells) == 2
    for rule, path, residual, applications in cells:
        assert rule == "auto" and path == "block" and int(applications) > 0
        assert 0.0 <= float(residual) <= 2e-8
