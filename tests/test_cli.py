import csv
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import levisqueeze
from levisqueeze import cli, errors, montecarlo
from levisqueeze.cli import main
from levisqueeze.dynamics import MAX_STORED, STEP_ERROR_LIMIT, evolve
from levisqueeze.metrics import TRAJECTORY_COLUMNS, mechanical_trajectory
from levisqueeze.models import SystemParams, build_eliminated_detuned, initial_covariance

DETUNED = {
    "model": "eliminated-detuned",
    "omega_x": 1.0,
    "kappa": 0.2,
    "delta": 5.0,
    "lam": 0.3,
    "q_m": 1e9,
    "nbar": 2e7,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_evolve_mechanical_header_and_sidecar(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "run.json", {**DETUNED, "t_end": 20.0})
    assert main(["evolve", "--config", cfg, "--out", "traj.csv"]) == 0
    header, rows = read_rows(tmp_path / "traj.csv")
    assert header == ["t", "Vxx", "Vxp", "Vpp", "v_sq", "v_asq", "eta"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(20.0)
    sidecar = json.loads((tmp_path / "traj.csv.sidecar.json").read_text())
    assert 0.0 <= sidecar["_provenance"]["stats"]["max_step_error"] < STEP_ERROR_LIMIT


def test_evolve_full_model_adds_cavity_columns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "run.json", {**DETUNED, "model": "full", "t_end": 5.0})
    assert main(["evolve", "--config", cfg, "--out", "traj.csv"]) == 0
    header, rows = read_rows(tmp_path / "traj.csv")
    assert header == ["t", "Vxx", "Vxp", "Vpp", "v_sq", "v_asq", "eta", "VXX", "VXY", "VYY"]
    assert float(rows[0][7]) == pytest.approx(1.0)  # cavity starts in vacuum


def test_evolve_uncoupled_oscillator_keeps_its_variance(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path,
        "run.json",
        {**DETUNED, "lam": 0.0, "nbar": 0.0, "nbar0": 2.0, "t_end": 50.0},
    )
    assert main(["evolve", "--config", cfg, "--out", "flat.csv"]) == 0
    _, rows = read_rows(tmp_path / "flat.csv")
    v_sq = [float(r[4]) for r in rows]
    assert all(abs(v - 5.0) < 1e-6 for v in v_sq)


def test_sidecar_reproduces_the_run_bit_for_bit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "run.json", {**DETUNED, "t_end": 10.0})
    # A CSV and a JSON run of one figure in one directory keep a sidecar each.
    for argv, names in (
        (["evolve", "--config", cfg], ["first.csv"]),
        (["figure", "fig3a", "--set", "points=2"], ["fig3a.csv", "fig3a.json"]),
    ):
        for name in names:
            assert main([*argv, "--out", name, "--format", name.rpartition(".")[2]]) == 0
        written = {name: (tmp_path / name).read_bytes() for name in names}
        for name, data in written.items():
            (tmp_path / name).unlink()
            assert main([argv[0], "--config", f"{name}.sidecar.json"]) == 0
            assert (tmp_path / name).read_bytes() == data


def test_evolve_csv_cells_are_float_reprs(tmp_path, monkeypatch):
    # One line per stored sample, each cell the repr of its Python float.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "run.json", {**DETUNED, "t_end": 20.0})
    assert main(["evolve", "--config", cfg, "--out", "traj.csv"]) == 0
    params = SystemParams(**{k: v for k, v in DETUNED.items() if k != "model"})
    model = build_eliminated_detuned(params)
    table = mechanical_trajectory(evolve(model, initial_covariance(params, model.basis), 20.0))
    lines = [",".join(TRAJECTORY_COLUMNS)] + [",".join(map(repr, row)) for row in table.tolist()]
    assert (tmp_path / "traj.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_evolve_step_is_converged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = {**DETUNED, "t_end": 30.0}
    main(["evolve", "--config", write_config(tmp_path, "a.json", base), "--out", "a.csv"])
    main(
        [
            "evolve",
            "--config",
            write_config(tmp_path, "b.json", {**base, "dt": 0.0025}),
            "--out",
            "b.csv",
        ]
    )
    _, rows_a = read_rows(tmp_path / "a.csv")
    _, rows_b = read_rows(tmp_path / "b.csv")
    assert abs(float(rows_a[-1][4]) - float(rows_b[-1][4])) < 1e-6


def test_threshold_reports_critical_coupling(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "run.json", {**DETUNED, "bracket_lo": 1.0, "bracket_hi": 2.0}
    )
    assert main(["threshold", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["axis"] == "lam"
    assert payload["critical_value"] == pytest.approx(1.5824032355881985, abs=1e-4)


def test_stability_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", DETUNED)
    assert main(["stability", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True
    assert payload["max_real_part"] < 0.0
    assert len(payload["eigenvalues"]) == 2
    # As CSV, every nested list item is a key,value row of its own.
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"] and all(len(row) == 2 for row in rows)
    table = dict(rows[1:])
    for i, (re, im) in enumerate(payload["eigenvalues"]):
        assert float(table[f"eigenvalues[{i}][0]"]) == re
        assert float(table[f"eigenvalues[{i}][1]"]) == im
    assert table["max_real_part"] == repr(payload["max_real_part"])
    assert table["stable"] == "true"


def test_stability_refuses_a_periodic_model(capsys):
    # Its t = 0 drift looks stable, but the Floquet multiplier is 6.79.
    argv = ["stability", "--set", "model=full-modulated", "--set", "delta=1",
            "--set", "kappa=0.2", "--set", "lam=0.3", "--set", "q_m=1e9",
            "--set", "nbar=2e7", "--set", "alpha=1.2"]
    assert main(argv) == 2
    assert "time-independent" in capsys.readouterr().err


def test_steady_on_unstable_model_fails_numerically(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", {**DETUNED, "lam": 1.7})
    assert main(["steady", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", {**DETUNED, "mass": 1e-18})
    assert main(["stability", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["stability", "--config", str(path)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["stability", "--config", str(tmp_path / "absent.json")]) == 2


def test_config_file_holding_an_array(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", [DETUNED])
    assert main(["stability", "--config", cfg]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_missing_model_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", {"omega_x": 1.0, "t_end": 1.0})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "model" in capsys.readouterr().err


def test_set_overrides_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "run.json", {**DETUNED, "bracket_lo": 1.0, "bracket_hi": 2.0}
    )
    assert main(["threshold", "--config", cfg, "--set", "delta=6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = math.sqrt(1.0 * (0.2**2 + 6.0**2) / (2 * 6.0))
    assert payload["critical_value"] == pytest.approx(expected, abs=1e-4)


def test_successive_calls_do_not_share_assignments(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "run.json", {**DETUNED, "bracket_lo": 1.0, "bracket_hi": 2.0}
    )
    values = []
    for sets in (["--set", "delta=6"], ["--set", "kappa=0.3"], []):
        assert main(["threshold", "--config", cfg, *sets]) == 0
        values.append(json.loads(capsys.readouterr().out)["critical_value"])
    for value, (kappa, delta) in zip(values, ((0.2, 6.0), (0.3, 5.0), (0.2, 5.0))):
        expected = math.sqrt(1.0 * (kappa**2 + delta**2) / (2 * delta))
        assert value == pytest.approx(expected, abs=1e-4)


def test_set_without_config_file(capsys):
    args = ["stability"]
    for key, value in DETUNED.items():
        args += ["--set", f"{key}={value}"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["stable"] is True


def test_mc_validate_small_ensemble(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "run.json",
        {
            **DETUNED,
            "q_m": 1e4,
            "nbar": 10.0,
            "t_end": 10.0,
            "n_traj": 400,
            "seed": 0,
        },
    )
    assert main(["mc-validate", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["max_z"] < 5.0


def test_figure_command_writes_named_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "fig3a", "--out", "fig3a.csv"]) == 0
    header, rows = read_rows(tmp_path / "fig3a.csv")
    assert header == ["alpha", "omega_eff", "omega_eff_bare_frame", "zeta_eff"]
    assert len(rows) == 101
    assert float(rows[0][0]) == 0.0


def test_figure_rejects_unknown_id(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "fig0"]) == 2
    assert "unknown figure id" in capsys.readouterr().err


def test_figure_requires_an_id(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["figure"]) == 2


@pytest.mark.parametrize(
    "figure", ["fig2c", "fig3a", "fig3c", "fig3d", "fig4a", "fig4b", "fig4c", "figS5"]
)
def test_figure_rejects_an_empty_grid(tmp_path, monkeypatch, capsys, figure):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", figure, "--set", "points=0"]) == 2
    assert "points" in capsys.readouterr().err


def test_figure_rejects_a_grid_above_the_cap(tmp_path, monkeypatch, capsys):
    # A grid is held in memory at once, so it is capped as stored samples are.
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "fig3a", "--set", f"points={MAX_STORED + 1}"]) == 2
    assert "points" in capsys.readouterr().err
    assert not (tmp_path / "fig3a.csv").exists()


def test_figure_counts_depth_optima_on_the_grid_edge(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "fig4b", "--set", "points=2", "--out", "fig4b.csv"]) == 0
    sidecar = json.loads((tmp_path / "fig4b.csv.sidecar.json").read_text())
    assert sidecar["_provenance"]["meta"]["alpha_opt_at_edge"] == 2


def test_figure_reports_a_failed_grid_point(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["figure", "fig3d", "--set", "points=2", "--set", "t_end=100", "--set", "dt=50"]
    assert main(argv) == 3
    assert "step-halving error" in capsys.readouterr().err


def test_json_output_format(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "run.json", {**DETUNED, "t_end": 5.0})
    # Without --out a table command writes <figure id or command>.<format>.
    for argv, path in (
        (["evolve", "--config", cfg, "--out", "traj.json"], "traj.json"),
        (["evolve", "--config", cfg], "evolve.json"),
    ):
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads((tmp_path / path).read_text())
        assert payload["columns"][:4] == ["t", "Vxx", "Vxp", "Vpp"]
        assert payload["rows"][0][0] == 0.0
    assert main(["figure", "fig3a", "--set", "points=2", "--format", "json"]) == 0
    assert json.loads((tmp_path / "fig3a.json").read_text())["columns"][0] == "alpha"
    # A transient sweep's nonclassical cells are numpy booleans.
    sweep_cfg = {**DETUNED, "t_end": 5.0, "axis": "nbar0", "axis_values": [0.0],
                 "evaluation": "transient"}
    assert main(["sweep", "--config", write_config(tmp_path, "grid.json", sweep_cfg),
                 "--format", "json"]) == 0
    assert type(json.loads((tmp_path / "sweep.json").read_text())["rows"][0][6]) is bool
    assert not (tmp_path / "evolve.csv").exists() and not (tmp_path / "fig3a.csv").exists()


def test_sweep_leaves_unstable_cells_empty(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = {**DETUNED, "q_m": 1e4, "nbar": 10.0, "axis": "lam", "evaluation": "steady"}
    # The listed values, and the same two points as a linear and a log axis.
    grid = {"axis_start": 0.5, "axis_stop": 1.7, "axis_points": 2}
    for axis in (
        {"axis_values": [0.5, 1.7]},
        {**grid, "axis_scale": "linear"},
        {**grid, "axis_scale": "log"},
    ):
        cfg = write_config(tmp_path, "run.json", {**base, **axis})
        assert main(["sweep", "--config", cfg, "--out", "sweep.csv"]) == 0
        header, rows = read_rows(tmp_path / "sweep.csv")
        assert header[:2] == ["lam", "status"]
        assert [float(row[0]) for row in rows] == pytest.approx([0.5, 1.7], rel=1e-15)
        assert rows[0][1] == "ok" and rows[0][2] != ""
        assert rows[1][1] == "unstable" and rows[1][2] == ""


def test_sweep_rejects_the_workers_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "run.json", {**DETUNED, "axis": "lam", "axis_values": [0.3]})
    assert main(["sweep", "--config", cfg, "--set", "workers=2"]) == 2
    assert "workers" in capsys.readouterr().err


MODEL = [arg for key, value in DETUNED.items() for arg in ("--set", f"{key}={value}")]
LAM_AXIS = MODEL + ["--set", "axis=lam"]
MC_SMALL = ["--set", "n_traj=100", "--set", "t_end=0.1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", *MODEL, "--set", "t_end=abc"],
        ["evolve", *MODEL, "--set", "t_end=Infinity"],
        ["sweep", *LAM_AXIS, "--set", 'axis_values=["a"]'],
        ["sweep", *LAM_AXIS, "--set", "axis_start=0.1", "--set", "axis_stop=0.5",
         "--set", "axis_points=abc"],
        ["steady", *MODEL, "--set", "kappa=abc"],
        ["mc-validate", *MODEL, "--set", "n_traj=abc"],
        ["steady", *MODEL, "--set", "kappa=NaN"],
        ["figure", "fig3d", "--set", "points=2.5"],
        ["evolve", *MODEL, "--set", "t_end=1e300", "--set", "dt=1e-300"],
        ["stability", *MODEL, "--set", "format=xml"],
        ["sweep", *LAM_AXIS, "--set", "axis_start=0.1", "--set", "axis_stop=0.5",
         "--set", "axis_points=2", "--set", "axis_scale=cubic"],
        ["sweep", *LAM_AXIS, "--set", "axis_start=0.1", "--set", "axis_stop=0.5",
         "--set", f"axis_points={MAX_STORED + 1}"],
        ["steady", *MODEL, "--set", "model=[1]"],
        ["sweep", *LAM_AXIS, "--set", "axis_start=0.1", "--set", "axis_stop=0.5",
         "--set", "axis_points=2", "--set", "axis_scale=[1]"],
        ["evolve", *MODEL, "--set", "t_end=1", "--set", "out=5"],
        ["figure", "--set", "figure=[1]"],
        ["stability", *MODEL, "--set", "lam"],
        # The working directory is a directory, not a writable file.
        ["evolve", *MODEL, "--set", "t_end=1", "--out", "."],
    ],
)
def test_malformed_config_values_exit_2(tmp_path, monkeypatch, capsys, argv):
    # Each value used to crash with a Python exception, exit 3 or run silently.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_axis_values_and_axis_points_share_the_grid_size_rule(monkeypatch, capsys):
    # MAX_STORED + 1 points are refused alike as a grid and as a list of
    # values, before the sweep runs.
    def refused(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sweep", refused)
    too_many = MAX_STORED + 1
    grid = ["--set", "axis_start=0.1", "--set", "axis_stop=0.5", "--set", f"axis_points={too_many}"]
    listed = ["--set", f"axis_values={json.dumps([0.3] * too_many)}"]
    messages = []
    for sets in (grid, listed):
        assert main(["sweep", *LAM_AXIS, *sets]) == 2
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert f"need 1 to {MAX_STORED} grid points, got {too_many}" in messages[0]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["figure", "fig3d", "--set", "points=2.5"], "grid size must be a whole number, got 2.5"),
        (["sweep", *LAM_AXIS, "--set", "axis_start=0.1", "--set", "axis_stop=0.5",
          "--set", "axis_points=2.5"], "grid size must be a whole number, got 2.5"),
        (["mc-validate", *MODEL, *MC_SMALL, "--set", "n_traj=100.5"],
         "n_traj must be a whole number, got 100.5"),
        (["mc-validate", *MODEL, *MC_SMALL, "--set", "seed=2.5"],
         "seed must be a whole number, got 2.5"),
        (["mc-validate", *MODEL, *MC_SMALL, "--set", "n_checkpoints=2.5"],
         "n_checkpoints must be a whole number, got 2.5"),
    ],
    ids=["points", "axis_points", "n_traj", "seed", "n_checkpoints"],
)
def test_a_count_that_is_not_whole_is_refused_by_the_library_rule(
    monkeypatch, capsys, argv, message
):
    # The CLI checks only that a count is a finite number; dynamics._whole
    # refuses the fraction before a sweep or an ensemble runs.
    def refused(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("sweep", "simulate_ensemble"):
        monkeypatch.setattr(cli, name, refused)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_whole_float_count_runs_as_its_integer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["mc-validate", *MODEL, *MC_SMALL, "--set", "seed=3.0", "--set", "n_checkpoints=4.0"]
    assert main([*argv, "--out", "mc.json", "--format", "json"]) == 0
    report = (tmp_path / "mc.json").read_text()
    assert '"seed": 3,' in report and len(json.loads(report)["checkpoints"]) == 4


def test_threshold_refuses_a_tolerance_that_is_not_positive(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "run.json", {**DETUNED, "bracket_lo": 1.0, "bracket_hi": 2.0}
    )
    assert main(["threshold", "--config", cfg, "--set", "tol=-1"]) == 2
    assert "tolerance must be positive, got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("order", [["gamma=0.5", "q_m=10"], ["q_m=10", "gamma=0.5"]])
def test_figure_refuses_gamma_with_q_m(tmp_path, monkeypatch, capsys, order):
    monkeypatch.chdir(tmp_path)
    argv = ["figure", "fig2a", "--set", order[0], "--set", order[1], "--set", "t_end=1"]
    assert main(argv) == 2
    assert "give gamma or q_m, not both" in capsys.readouterr().err


def test_unwritable_output_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("ran with an unwritable output")

    monkeypatch.setattr(cli, "evolve", no_run)
    monkeypatch.setattr(cli, "run_figure", no_run)
    assert main(["evolve", *MODEL, "--set", "t_end=1", "--out", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert main(["figure", "fig3a", "--out", str(tmp_path / "missing" / "f.csv")]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_mc_validate_csv_report_writes_flags_and_integers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["mc-validate", *MODEL, *MC_SMALL, "--out", "mc.csv", "--format", "csv"]
    assert main(argv) == 0
    header, rows = read_rows(tmp_path / "mc.csv")
    assert header == ["key", "value"]
    assert {"passed,true", "n_traj,100", "seed,0"} <= {",".join(row) for row in rows}


def test_mc_validate_rejects_a_negative_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["mc-validate", *MODEL, *MC_SMALL, "--set", "seed=-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_mc_validate_rejects_huge_checkpoint_counts(tmp_path, monkeypatch, capsys):
    # A grid of 2e9 checkpoints would take 15 GiB; the spec must refuse it first.
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = main(["mc-validate", *MODEL, *MC_SMALL, "--set", "n_checkpoints=2000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "checkpoints" in capsys.readouterr().err
    assert peak < 50e6


def test_mc_validate_rejects_more_trajectories_than_the_cap(tmp_path, monkeypatch, capsys):
    # 2e9 trajectories would need 2e7 streams and terabytes of noise; the
    # spec must refuse an ensemble above the cap before any stream is built.
    def no_streams(seed, n_streams):
        raise AssertionError("streams built for a rejected ensemble")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(montecarlo, "_streams", no_streams)
    n_traj = montecarlo.MAX_TRAJ + 1
    assert main(["mc-validate", *MODEL, *MC_SMALL, "--set", f"n_traj={n_traj}"]) == 2
    assert "trajectories" in capsys.readouterr().err


def test_mc_validate_reports_the_worst_entry_and_its_provenance(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["mc-validate", *MODEL, "--set", "n_traj=200", "--set", "t_end=2.0"]
    assert main([*args, "--out", "mc.json", "--format", "json"]) == 0
    report = json.loads((tmp_path / "mc.json").read_text())
    assert report["worst_time"] in report["checkpoints"]
    assert report["worst_entry"] in [[i, j] for i in ("x", "p") for j in ("x", "p")]
    prov = json.loads((tmp_path / "mc.json.sidecar.json").read_text())["_provenance"]
    n_steps = round(2.0 / report["dt"])
    assert prov["n_steps"] == n_steps
    assert prov["dt"] == 2.0 / n_steps
    assert prov["streams"] == 2
    # Each stream draws its initial points and one block per checkpoint interval.
    assert prov["normals_drawn"] == 200 * 2 * len(report["checkpoints"])
    assert prov["reference_stats"]["n_steps"] > 0
    assert prov["bit_generator"] == "SFC64"
    first = (tmp_path / "mc.json").read_bytes()
    assert main(["mc-validate", "--config", "mc.json.sidecar.json"]) == 0
    assert (tmp_path / "mc.json").read_bytes() == first
    # 250 trajectories are drawn by three streams of 100, the last one cut.
    args = ["mc-validate", *MODEL, "--set", "n_traj=250", "--set", "t_end=0.1"]
    assert main([*args, "--out", "padded.json", "--format", "json"]) == 0
    padded = json.loads((tmp_path / "padded.json").read_text())
    prov = json.loads((tmp_path / "padded.json.sidecar.json").read_text())["_provenance"]
    assert prov["streams"] == 3
    assert prov["normals_drawn"] == 300 * 2 * len(padded["checkpoints"])
    # A failed comparison exits 3 with its report and sidecar written.
    monkeypatch.setattr(montecarlo, "Z_LIMIT", 0.0)
    assert main([*args, "--out", "failed.json", "--format", "json"]) == 3
    assert "ensemble disagrees" in capsys.readouterr().err
    assert json.loads((tmp_path / "failed.json").read_text())["passed"] is False
    assert (tmp_path / "failed.json.sidecar.json").exists()


def test_mc_validate_gives_its_step_to_the_reference_of_a_model_without_a_rate(
    tmp_path, monkeypatch, capsys
):
    # The rotating-frame model advertises no rate, so neither run has a
    # default step; the reference must take the dt that the ensemble takes.
    monkeypatch.chdir(tmp_path)
    argv = ["mc-validate", "--set", "model=eliminated-modulated", "--set", "delta=5",
            "--set", "kappa=0.2", "--set", "lam=0.3", "--set", "dt=0.01", "--set", "t_end=1",
            "--set", "n_traj=100", "--out", "mc.json", "--format", "json"]
    assert main(argv) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "mc.json").read_text())
    assert report["passed"] is True
    prov = json.loads((tmp_path / "mc.json.sidecar.json").read_text())["_provenance"]
    assert prov["n_steps"] == prov["reference_stats"]["n_steps"] == 100


def test_mc_validate_needs_a_dt_for_a_model_without_a_rate(capsys):
    argv = ["mc-validate", "--set", "model=eliminated-modulated", "--set", "delta=5",
            "--set", "kappa=0.2", "--set", "lam=0.3", "--set", "t_end=1", "--set", "n_traj=100"]
    assert main(argv) == 2
    assert "pass dt explicitly" in capsys.readouterr().err


ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)]


def test_every_error_belongs_to_exactly_one_family():
    families = (errors.InputError, errors.SolverError)
    for cls in ERRORS:
        if cls not in families:
            assert [issubclass(cls, family) for family in families].count(True) == 1, cls


@pytest.mark.parametrize(
    "error",
    [*ERRORS, OSError, np.linalg.LinAlgError, OverflowError, ZeroDivisionError],
    ids=lambda cls: cls.__name__,
)
def test_the_error_family_gives_the_exit_code(monkeypatch, capsys, error):
    exit_codes = {
        errors.InputError: 2,
        OSError: 2,
        errors.SolverError: 3,
        np.linalg.LinAlgError: 3,
        ArithmeticError: 3,
    }
    (want,) = {code for family, code in exit_codes.items() if issubclass(error, family)}

    def failing(cfg, out):
        raise error("stub failure")

    monkeypatch.setitem(cli.COMMANDS, "stability", failing)
    assert main(["stability"]) == want
    prefix = "error" if want == 2 else "numerical failure"
    if issubclass(error, ArithmeticError):
        # Float arithmetic names no operand, so the message names the exception and the run.
        prefix += f": {error.__name__} in stability"
    assert capsys.readouterr().err == f"{prefix}: stub failure\n"


@pytest.mark.parametrize(
    ("argv", "failure"),
    [
        (["steady", "--set", "model=eliminated-detuned", "--set", "lam=1e200",
          "--set", "delta=5", "--set", "kappa=0.2"],
         "OverflowError in steady on model eliminated-detuned: Numerical result out of range"),
        (["steady", "--set", "model=eliminated-detuned", "--set", "lam=0.3",
          "--set", "delta=0", "--set", "kappa=1e-200"],
         "ZeroDivisionError in steady on model eliminated-detuned: float division by zero"),
        (["steady", "--set", "model=eliminated-modulated", "--set", "lam=0.3",
          "--set", "kappa=0.2", "--set", "delta=1e-200", "--set", "alpha=0.1"],
         "ZeroDivisionError in steady on model eliminated-modulated: float division by zero"),
        (["evolve", "--set", "model=full-modulated", "--set", "alpha=1e200", "--set", "delta=5",
          "--set", "kappa=0.2", "--set", "lam=0.3", "--set", "t_end=1"],
         "OverflowError in evolve on model full-modulated: Numerical result out of range"),
        (["figure", "fig3a", "--set", "lam=1e200"],
         "OverflowError in figure fig3a: Numerical result out of range"),
    ],
    ids=["overflow", "underflowed-linewidth", "tiny-detuning", "overflowing-depth", "figure"],
)
def test_float_arithmetic_failure_on_finite_input_exits_3(tmp_path, monkeypatch, capsys, argv,
                                                          failure):
    # Python's scalar ** and / raise where numpy would return inf.  str() of
    # the OverflowError is the bare tuple (34, 'Numerical result out of range'),
    # so the message names the exception, the command (with a figure's id)
    # and the model.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"numerical failure: {failure}\n"


@pytest.mark.parametrize("command", ["steady", "evolve"])
def test_a_quality_factor_with_an_infinite_gamma_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--set", "model=full", "--set", "q_m=1e-320", "--set", "delta=5",
            "--set", "kappa=0.2", "--set", "t_end=1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: gamma = omega_x / q_m must be finite, got inf\n"


@pytest.mark.parametrize(("gamma", "code"), [(0.0, 0), (0.5, 2)])
def test_gamma_with_q_m_gets_one_verdict_in_every_command(tmp_path, monkeypatch, capsys, gamma,
                                                         code):
    # SystemParams alone judges the pair: gamma = 0 with q_m is no conflict.
    monkeypatch.chdir(tmp_path)
    keys = ["--set", f"gamma={gamma}", "--set", "q_m=1e9"]
    assert main(["steady", "--set", "model=full", "--set", "delta=5", "--set", "kappa=0.2",
                 *keys]) == code
    assert main(["figure", "fig3a", *keys, "--set", "points=3"]) == code
    if code:
        assert capsys.readouterr().err == "error: give gamma or q_m, not both\n" * 2
    else:
        sidecar = json.loads((tmp_path / "fig3a.csv.sidecar.json").read_text())
        assert sidecar["_provenance"]["meta"]["params"]["gamma"] == 1e-9


def test_json_encodes_parameters_and_numpy_data(capsys):
    payload = {
        "params": SystemParams(omega_x=1.0),
        "cells": (np.float32(0.5), np.int64(3), np.bool_(True), np.float64(0.1)),
        "rows": np.array([[1.0, 2.0]]),
    }
    cli._write_json(sys.stdout, payload)
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["params"]["omega_x"] == 1.0
    assert decoded["cells"] == [0.5, 3, True, 0.1] and type(decoded["cells"][2]) is bool
    assert decoded["rows"] == [[1.0, 2.0]]
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_json(sys.stdout, {"x": object()})


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


NUMPY_ONLY = """
import json, sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None  # any import of it now raises ImportError
from levisqueeze.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_runtime_needs_numpy_only(tmp_path):
    # scipy, mpmath and hypothesis serve the tests; no command may import them.
    runs = [
        ["figure", "fig3a", "--set", "points=3"],
        ["evolve", *MODEL, "--set", "t_end=1"],
        ["mc-validate", *MODEL, "--set", "q_m=1e4", "--set", "nbar=10", *MC_SMALL],
    ]
    src = str(Path(levisqueeze.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, json.dumps(runs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0], proc.stderr
