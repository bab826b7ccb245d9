"""levisqueeze benchmark: closed-loop workloads of in-process CLI calls.

    python3 bench/run.py --workload steady-scan --seed 1 --seconds 24 --trace 0

One client in one process runs the workload's fixed call sequence (a pass)
again and again until --seconds have elapsed.  --trace 0 reports the
end-to-end metrics of untraced passes; --trace 1 alternates untraced and
traced passes and reports per-layer metrics from the traced ones.  The
outputs of the first pass are checked against independent scipy references
(bench/oracle.py), later passes must reproduce them byte for byte.  Every
untraced pass and set-up is followed by a run of a fixed reference unit
(bench/reference.py), and times are reported at reference speed, so that
the drifting speed of a shared host cancels out.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; a fuller report and the spans of the last traced pass go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Set-ups per --trace 0 run; setup_s is their trimmed mean at reference speed.
SETUP_REPEATS = 7

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("points_per_s", "1/s"), ("peak_rss_mb", "MB"))

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import levisqueeze.cli; "
    "print(time.perf_counter() - t)"
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input seed (any integer)")
    parser.add_argument("--seconds", type=float, default=24.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Import time of levisqueeze.cli in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _invoke(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except Exception:  # a crash is one failed call, reported and counted
        traceback.print_exc()
        return -1


def _clear(directory: Path) -> None:
    for entry in directory.iterdir():
        entry.unlink()


def run_pass(cli, calls, outdir: Path) -> tuple[float, list[int]]:
    """Run the calls of one pass into an empty outdir; (wall seconds, exit codes)."""
    _clear(outdir)
    gc.collect()
    start = time.perf_counter()
    codes = [_invoke(cli, call.argv(outdir)) for call in calls]
    return time.perf_counter() - start, codes


def _digest(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


def _failed_points(calls, outdir: Path) -> int:
    import csv

    failed = 0
    for call in calls:
        path = outdir / call.out
        if call.command == "sweep" and path.is_file():
            with open(path, newline="", encoding="utf-8") as fh:
                failed += sum(row["status"] == "failed" for row in csv.DictReader(fh))
    return failed


def _blas_version() -> str | None:
    import numpy as np

    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}" if blas else None


def provenance(args: argparse.Namespace) -> dict:
    import numpy as np

    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "levisqueeze").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _set_up(cli, args, outdir: Path):
    """Time SETUP_REPEATS set-ups (one when tracing) and a reference unit after each.

    Returns the inputs, the set-up times, the unit times and the warm-up
    exit codes.  The units are timed here, not with the passes, because the
    host's speed can change between the set-ups and the passes.
    """
    from reference import unit_seconds
    from workloads import make_inputs, plan

    setups, codes = [], []
    units = [unit_seconds()]
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        t_import = _import_seconds()
        start = time.perf_counter()
        inp = make_inputs(args.workload, args.seed)
        _clear(outdir)
        codes += [_invoke(cli, c.argv(outdir)) for c in plan(inp, warmup=True)]
        setups.append(t_import + time.perf_counter() - start)
        units.append(unit_seconds())
    return inp, setups, units, codes


@dataclass
class Measurement:
    walls: list = field(default_factory=list)  # untraced passes
    traced_walls: list = field(default_factory=list)
    units: list = field(default_factory=list)  # reference unit after each untraced pass
    layer_samples: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    failed_points: int = 0
    sweep_points: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    last_tracer: object = None


def _measure(cli, calls, outdir: Path, checkdir: Path, args) -> Measurement:
    """Run passes until args.seconds have elapsed; keep the first pass's outputs in checkdir."""
    from reference import unit_seconds
    from tracer import Instrumentation, Tracer, layer_metrics

    m = Measurement()
    first = None
    deadline = time.perf_counter() + args.seconds
    m.units.append(unit_seconds())
    while True:
        wall, codes = run_pass(cli, calls, outdir)
        m.units.append(unit_seconds())
        m.walls.append(wall)
        m.codes += codes
        m.sweep_points += sum(c.points for c in calls if c.command == "sweep")
        m.failed_points += _failed_points(calls, outdir)
        digest = _digest(outdir)
        if first is None:
            first = digest
            for path in outdir.iterdir():
                shutil.copy2(path, checkdir / path.name)
        else:
            m.checks.append(("pass reproduces the first pass", digest == first, ""))
        if args.trace:
            tracer = Tracer()
            inst = Instrumentation(tracer)
            try:
                inst.install()
                wall, codes = run_pass(cli, calls, outdir)
            finally:
                clean = inst.restore()
            m.traced_walls.append(wall)
            m.codes += codes
            m.checks.append(("traced outputs byte-identical", _digest(outdir) == digest, ""))
            m.checks.append(("tracing wrappers removed", clean, ""))
            bytes_out = sum(p.stat().st_size for p in outdir.iterdir())
            m.layer_samples.append(layer_metrics(tracer, bytes_out))
            m.last_tracer = tracer
        if time.perf_counter() >= deadline:
            return m


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "levisqueeze" / "__init__.py").is_file():
        print(f"error: levisqueeze sources not found under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS threads before numpy loads.  The arithmetic is d <= 4, so threads
    # buy nothing, and one thread keeps timings steady on a shared small machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import levisqueeze.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    from reference import REFERENCE_S, at_reference_speed
    from tracer import PER_LAYER, median_metrics
    from workloads import plan

    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    checkdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-check-", dir=OUT))
    try:
        inp, setups, setup_units, warm_codes = _set_up(cli, args, outdir)
        calls = plan(inp)
        m = _measure(cli, calls, outdir, checkdir, args)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # References are computed now, after the timed passes (scipy loads here).
        try:
            import oracle

            checks = [(c.name, c.ok, c.detail) for c in oracle.check_pass(calls, checkdir, inp)]
        except Exception:  # an oracle crash on odd outputs is a failed check
            checks = [("oracle", False, traceback.format_exc())]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        shutil.rmtree(checkdir, ignore_errors=True)
    checks += m.checks
    for name, ok, detail in checks:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    codes = warm_codes + m.codes
    attempted = len(codes) + m.sweep_points + len(checks)
    failed = sum(code != 0 for code in codes) + m.failed_points + sum(not ok for _, ok, _ in checks)

    wall = at_reference_speed(m.walls, m.units)
    table = {
        "setup_s": (at_reference_speed(setups, setup_units), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (sum(c.points for c in calls) / wall, "1/s"),
        "steps_per_s": (sum(c.steps for c in calls) / wall, "1/s"),
        "traj_steps_per_s": (sum(c.traj_steps for c in calls) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_frac": (failed / attempted, "ratio"),
    }
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        layers = median_metrics(m.layer_samples)
        layers["trace.overhead_frac"] = (statistics.median(m.traced_walls)
                                         / statistics.median(m.walls) - 1.0)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        m.last_tracer.write_jsonl(OUT / f"{stem}.trace.jsonl")
    else:
        metrics = {name: {"value": table[name][0], "unit": unit} for name, unit in END_TO_END}

    info = {
        "provenance": provenance(args),
        "inputs": inp,
        "pass_wall_samples": m.walls,
        "traced_pass_wall_samples": m.traced_walls,
        "unit_samples": m.units,
        "setup_wall_samples": setups,
        "setup_unit_samples": setup_units,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        "metrics": metrics,
        "failed_checks": [(name, detail) for name, ok, detail in checks if not ok],
    }
    with open(OUT / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)

    def quartiles(values):
        return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3

    print(f"# provenance {json.dumps(info['provenance'])}")
    print("# {}: {} passes, wall time quartiles {:.4f} / {:.4f} / {:.4f} s as measured".format(
        args.workload, len(m.walls), *quartiles(m.walls)))
    print("# reference unit: quartiles {:.4f} / {:.4f} / {:.4f} s over {} runs; times below "
          "are scaled to {} s per unit".format(*quartiles(m.units), len(m.units), REFERENCE_S))
    for name, (value, unit) in table.items():
        print(f"#   {name:<18} {value:14.6g} {unit}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"#   {name:<36} {metrics[name]['value']:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
