"""Self-tests of the benchmark: span arithmetic, seeded inputs, oracle sensitivity.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _path in (str(ROOT / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import (  # noqa: E402
    PER_LAYER,
    Instrumentation,
    Span,
    Tracer,
    layer_metrics,
    leftover_wrappers,
    self_times,
)
from workloads import WORKLOADS, Call, make_inputs, plan  # noqa: E402

from levisqueeze import cli, models  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span("cli.main", -1, 0.0, 10.0),
        Span("figures.run_figure", 0, 1.0, 6.0),
        Span("dynamics.evolve", 1, 2.0, 4.0),
        Span("models.drift_at", 2, 2.5, 3.0),
        Span("metrics.sweep", 0, 5.5, 8.0),  # overlaps its sibling by 0.5
        Span("gaussian.CovarianceMatrix", 0, 9.5, 11.0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([2.5, 3.0, 1.5, 0.5, 2.5, 1.5])


def test_wrapped_calls_record_parents_and_errors():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("dynamics.inner", fail)

    def outer_fn():
        try:
            inner()
        except ValueError:
            return 1

    assert tracer.wrap("cli.outer", outer_fn)() == 1
    (outer, child) = tracer.spans
    assert (outer.parent, child.parent) == (-1, 0)
    assert (outer.error, child.error) == (False, True)
    assert outer.start <= child.start <= child.end <= outer.end


def test_instrumentation_is_byte_identical_and_fully_removed(tmp_path):
    argv = ["steady", "--set", "model=full", "--set", "lam=0.3", "--set", "kappa=0.2",
            "--set", "delta=5", "--set", "q_m=1e9", "--set", "nbar=2e7", "--format", "json"]
    original_builder = models.MODEL_BUILDERS["full"]
    assert cli.main(argv + ["--out", str(tmp_path / "steady.json")]) == 0
    plain = (tmp_path / "steady.json").read_bytes()
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    try:
        assert cli.main(argv + ["--out", str(tmp_path / "steady.json")]) == 0
    finally:
        assert inst.restore()
    assert (tmp_path / "steady.json").read_bytes() == plain
    assert leftover_wrappers() == []
    assert models.MODEL_BUILDERS["full"] is original_builder
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "dynamics.steady_state", "models.build_full_cs", "models.drift_at",
            "gaussian.CovarianceMatrix"} <= names
    layers = layer_metrics(tracer, bytes_out=1)
    assert layers["dynamics.steady_state_calls"] == 1
    assert layers["cli.calls"] >= 1 and layers["cli.self_s"] > 0.0
    assert set(layers) | {"trace.overhead_frac"} == {name for name, _ in PER_LAYER}


def test_trimmed_mean_drops_the_extreme_tenth_of_each_end():
    assert reference.trimmed_mean([5.0, 1.0]) == 3.0
    assert reference.trimmed_mean([9.0, 1.0, 2.0, 3.0]) == 2.5
    assert reference.trimmed_mean([100.0] + [2.0] * 18 + [0.0]) == 2.0
    assert reference.trimmed_mean([0.0, 1.0] + [2.0] * 16 + [50.0, 90.0]) == 2.0


def test_reference_speed_divides_the_pass_by_the_unit():
    walls, units = [3.0, 1.0, 2.0, 2.0], [0.1, 0.2, 0.2, 0.3]
    assert reference.at_reference_speed(walls, units) == \
        pytest.approx(2.0 * reference.REFERENCE_S / 0.2)
    assert reference.at_reference_speed([1.0], [reference.REFERENCE_S]) == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs_and_work(workload):
    first, again, other = (make_inputs(workload, s) for s in (11, 11, 12))
    assert first == again
    assert {k: v for k, v in first.items() if k != "seed"} != \
        {k: v for k, v in other.items() if k != "seed"}

    def work(inp):
        return [(c.command, c.figure, c.points, c.steps, c.traj_steps) for c in plan(inp)]

    assert work(first) == work(other)
    assert [c.argv(Path("out")) for c in plan(first)] == [c.argv(Path("out")) for c in plan(again)]


def test_steady_scan_draws_a_fixed_number_of_unstable_points():
    for seed in range(5):
        lams = make_inputs("steady-scan", seed)["lam_values"]
        assert sum(lam > 1.6 for lam in lams) == 16


def _sweep_call() -> Call:
    settings = {"omega_x": 1.0, "kappa": 0.2, "delta": 5.0, "lam": 0.3, "q_m": 1e9,
                "nbar": 2e7, "model": "full", "evaluation": "steady", "axis": "lam",
                "axis_values": [0.4, 1.2, 2.0]}
    return Call("sweep", None, settings, "sweep.csv", 3)


def _perturb_csv(path: Path, row: int, column: str, factor: float) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = repr(float(cells[header.index(column)]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_oracle_counts_a_perturbed_steady_value_as_failure(tmp_path):
    call = _sweep_call()
    assert cli.main(call.argv(tmp_path)) == 0
    inp = {"workload": "steady-scan", "seed": 0}
    assert all(c.ok for c in oracle.check_pass([call], tmp_path, inp))
    _perturb_csv(tmp_path / "sweep.csv", 1, "v_sq", 1.0 + 1e-6)
    failed = [c for c in oracle.check_pass([call], tmp_path, inp) if not c.ok]
    assert [c.name for c in failed] == ["sweep.csv[1]"]


def test_oracle_counts_a_perturbed_trajectory_sample_as_failure(tmp_path):
    settings = {"omega_x": 1.0, "kappa": 0.2, "delta": 5.0, "lam": 0.3, "q_m": 1e9,
                "nbar": 2e7, "model": "full", "t_end": 0.5, "nbar0": 3.0}
    call = Call("evolve", None, settings, "evolve.csv", 1)
    assert cli.main(call.argv(tmp_path)) == 0
    inp = {"workload": "transient-scan", "seed": 0}
    assert all(c.ok for c in oracle.check_pass([call], tmp_path, inp))
    rows = len((tmp_path / "evolve.csv").read_text().splitlines()) - 1
    _perturb_csv(tmp_path / "evolve.csv", rows - 1, "Vpp", 1.0 + 1e-4)
    assert not all(c.ok for c in oracle.check_pass([call], tmp_path, inp))


def test_oracle_rejects_an_ensemble_report_above_the_z_limit(tmp_path):
    settings = {"n_traj": 10000, "seed": 3, "t_end": 1.0}
    report = {"passed": True, "max_z": 2.0, "z_limit": 5.0, "n_traj": 10000, "seed": 3,
              "t_end": 1.0, "checkpoints": [i / 24 for i in range(25)]}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(report))
    assert all(c.ok for c in oracle.check_ensemble(path, settings))
    path.write_text(json.dumps({**report, "max_z": 7.0}))
    assert not all(c.ok for c in oracle.check_ensemble(path, settings))


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
