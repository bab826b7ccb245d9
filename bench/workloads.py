"""Seeded inputs and the CLI call sequence of one pass of each workload.

A workload is a fixed list of ``levisqueeze.cli.main([...])`` calls.  Only
the grid values, parameter draws and the ensemble seed come from the seed;
the amount of work (points, steps, trajectories) is the same for every
seed, so run-to-run differences come from the machine, not the inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("steady-scan", "transient-scan", "modulated-cycle", "ensemble-check")

#: Far-detuned family (delta = 5 omega_x) used for every direct model call.
DETUNED = {"omega_x": 1.0, "kappa": 0.2, "delta": 5.0, "lam": 0.3, "q_m": 1e9, "nbar": 2e7}

#: Instability threshold of the detuned family is lam_th = 1.5824; stable and
#: unstable draws keep a margin from it so no steady solve is marginal.
STABLE_LAM = (0.1, 1.45)
UNSTABLE_LAM = (1.75, 3.0)

# Pass sizes.  Each pass takes one to three seconds on a 2-core machine, so a
# run of a few seconds holds several passes and reports their median.
STEADY_SIZES = {"stable": 48, "unstable": 16, "fig4b": 10, "fig4c": 8}
TRANSIENT_SIZES = {"sweep": 2, "t_end": 100.0, "fig3d": 13, "fig3d_t_end": 600.0}
MODULATED_SIZES = {"figS5": 1, "t_end": 2.0}
ENSEMBLE_SIZES = {"n_traj": 10000, "t_end": 1.0, "nbar": 10.0}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the work it stands for.

    points, steps and traj_steps are properties of the inputs: parameter
    points evaluated, nominal Lyapunov grid steps (simulated time over the
    default step DT_RESOLUTION / fastest_rate) and Euler trajectory steps.
    """

    command: str
    figure: str | None
    settings: dict
    out: str
    points: int
    steps: float = 0.0
    traj_steps: int = 0

    def argv(self, outdir: Path) -> list[str]:
        argv = [self.command] + ([self.figure] if self.figure else [])
        argv += ["--out", str(Path(outdir) / self.out)]
        if self.out.endswith(".json"):
            argv += ["--format", "json"]
        for key, value in self.settings.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        return argv


def make_inputs(workload: str, seed: int) -> dict:
    """Draw the seeded inputs of one workload as a plain JSON-able dict."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    inp: dict = {"workload": workload, "seed": seed}
    if workload == "steady-scan":
        lams = [rng.uniform(*STABLE_LAM) for _ in range(STEADY_SIZES["stable"])]
        lams += [rng.uniform(*UNSTABLE_LAM) for _ in range(STEADY_SIZES["unstable"])]
        rng.shuffle(lams)
        inp["lam_values"] = lams
        inp["nbar"] = log_uniform(1e6, 1e8)
    elif workload == "transient-scan":
        inp["nbar0_values"] = [log_uniform(1e-2, 1e6) for _ in range(TRANSIENT_SIZES["sweep"])]
        inp["fig3d_nbar0"] = rng.uniform(0.0, 10.0)
        inp["evolve_nbar0"] = log_uniform(1e-2, 1e3)
    elif workload == "modulated-cycle":
        inp["nbar"] = log_uniform(1e6, 1e8)
        inp["alpha"] = rng.uniform(0.005, 0.02)
        inp["phi"] = rng.uniform(0.0, 2.0 * math.pi)
        inp["nbar0"] = rng.uniform(0.0, 10.0)
    else:
        inp["ensemble_seed"] = rng.randrange(2**31)
    return inp


def _lyapunov_steps(model, t_end: float) -> float:
    from levisqueeze.dynamics import DT_RESOLUTION

    return t_end * model.fastest_rate / DT_RESOLUTION


def plan(inp: dict, warmup: bool = False) -> list[Call]:
    """The calls of one pass; warmup gives the same commands at minimal size."""
    from levisqueeze.figures import detuned_params, resonant_params
    from levisqueeze.models import (
        SystemParams,
        build_eliminated_modulated,
        build_full_cs,
        build_full_modulated,
    )
    from levisqueeze.montecarlo import EM_RESOLUTION

    workload = inp["workload"]
    if workload == "steady-scan":
        lams = inp["lam_values"][:1] + [max(inp["lam_values"])] if warmup else inp["lam_values"]
        sweep = {**DETUNED, "nbar": inp["nbar"], "model": "full", "evaluation": "steady",
                 "axis": "lam", "axis_values": lams}
        n4b, n4c = (1, 1) if warmup else (STEADY_SIZES["fig4b"], STEADY_SIZES["fig4c"])
        return [
            Call("sweep", None, sweep, "sweep.csv", len(lams)),
            Call("figure", "fig4b", {"points": n4b, "nbar": inp["nbar"]}, "fig4b.csv", n4b),
            Call("figure", "fig4c", {"points": n4c, "nbar": inp["nbar"]}, "fig4c.csv", 2 * n4c),
        ]
    if workload == "transient-scan":
        sizes = TRANSIENT_SIZES
        t_end = 1.0 if warmup else sizes["t_end"]
        t3d = 10.0 if warmup else sizes["fig3d_t_end"]
        nbar0s = inp["nbar0_values"][:1] if warmup else inp["nbar0_values"]
        n3d = 1 if warmup else sizes["fig3d"]
        full_steps = _lyapunov_steps(build_full_cs(SystemParams(**DETUNED)), t_end)
        elim = build_eliminated_modulated(detuned_params().with_value("alpha", 0.01))
        sweep = {**DETUNED, "model": "full", "evaluation": "transient", "t_end": t_end,
                 "axis": "nbar0", "axis_values": nbar0s}
        fig3d = {"points": n3d, "t_end": t3d, "nbar0": inp["fig3d_nbar0"]}
        evolve = {**DETUNED, "model": "full", "t_end": t_end, "nbar0": inp["evolve_nbar0"]}
        return [
            Call("sweep", None, sweep, "sweep.csv", len(nbar0s), len(nbar0s) * full_steps),
            Call("figure", "fig3d", fig3d, "fig3d.csv", n3d,
                 n3d * _lyapunov_steps(elim, t3d)),
            Call("evolve", None, evolve, "evolve.csv", 1, full_steps),
        ]
    if workload == "modulated-cycle":
        t_end = 0.05 if warmup else MODULATED_SIZES["t_end"]
        evolve = {**DETUNED, "model": "full-modulated", "t_end": t_end, "alpha": inp["alpha"],
                  "phi": inp["phi"], "nbar0": inp["nbar0"]}
        lab = build_full_modulated(SystemParams(**{**DETUNED, "alpha": inp["alpha"]}))
        calls = [Call("evolve", None, evolve, "evolve.csv", 1, _lyapunov_steps(lab, t_end))]
        if warmup:
            # figS5 cannot be shrunk below three periodic solves; the evolve
            # call above already warms the time-dependent stepper.
            return calls
        n5 = MODULATED_SIZES["figS5"]
        resonant = resonant_params()
        cycle = build_full_modulated(resonant.with_value("alpha", 0.4))
        per_row = _lyapunov_steps(cycle, math.pi / resonant.omega_x)
        figs5 = Call("figure", "figS5", {"points": n5, "nbar": inp["nbar"]}, "figS5.csv",
                     3 * n5, 3 * n5 * per_row)
        return [figs5] + calls
    sizes = ENSEMBLE_SIZES
    t_end = 0.05 if warmup else sizes["t_end"]
    n_traj = 100 if warmup else sizes["n_traj"]
    settings = {**DETUNED, "nbar": sizes["nbar"], "model": "full", "t_end": t_end,
                "n_traj": n_traj, "seed": inp["ensemble_seed"]}
    model = build_full_cs(SystemParams(**{**DETUNED, "nbar": sizes["nbar"]}))
    em_steps = max(1, round(t_end * model.fastest_rate / EM_RESOLUTION))
    return [
        Call("mc-validate", None, settings, "mc.json", 1, _lyapunov_steps(model, t_end),
             n_traj * em_steps)
    ]
