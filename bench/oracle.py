"""Independent scipy references for every output file a workload pass writes.

The program solves the Lyapunov equation with a dense Kronecker system and
integrates it with fixed-step RK4.  The references here use other methods:
Bartels-Stewart (``solve_continuous_lyapunov``) for steady states, the
eigenvalues of the drift for stability verdicts, the Van Loan block
exponential for constant-model transients, adaptive ``solve_ivp`` for
time-dependent models and ``solve_discrete_lyapunov`` on the monodromy
matrix for periodic orbits.  Model matrices come from the program's public
builders, so a physics change in a builder is followed, not flagged.

Each check returns a ``Check``; a pass is correct when every check is ok.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigvals, expm, solve_continuous_lyapunov, solve_discrete_lyapunov
from scipy.optimize import brentq, minimize_scalar

from workloads import Call

#: Relative agreement required of direct (steady-state) solves.
RTOL = 1e-8
#: Integrated trajectories may deviate by the step-halving error limit that
#: dynamics.evolve guarantees, relative to the covariance scale.
TRAJ_RTOL = 1e-6
#: Relative slack allowed between a grid-optimised minimum and the true one.
OPT_RTOL = 1e-4
#: Ensemble z-scores must stay below the program's documented limit; a
#: maximum below Z_FLOOR over a few hundred entries would mean inflated errors.
Z_LIMIT = 5.0
Z_FLOOR = 0.5


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _close(a: float | None, b: float, rtol: float = RTOL, scale: float | None = None) -> bool:
    if a is None or not math.isfinite(a):
        return False
    return abs(a - b) <= rtol * max(abs(b) if scale is None else scale, 1e-300)


def read_table(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str | None) -> float | None:
    return None if cell in (None, "") else float(cell)


# ---------------------------------------------------------------------------
# Reference solutions
# ---------------------------------------------------------------------------


def _matrices(model, t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    return np.array(model.drift_at(t), dtype=float), np.array(model.diffusion_at(t), dtype=float)


def _mech(v: np.ndarray, labels) -> tuple[float, float, float]:
    """(v_sq, v_asq, angle) of the (x, p) block."""
    idx = [labels.index("x"), labels.index("p")]
    w, vec = eigh(v[np.ix_(idx, idx)])
    return float(w[0]), float(w[1]), math.atan2(vec[1, 0], vec[0, 0]) % math.pi


def max_real_eig(model) -> float:
    return float(np.max(eigvals(_matrices(model)[0]).real))


def steady_cov(model) -> np.ndarray:
    a, n = _matrices(model)
    return solve_continuous_lyapunov(a, -n)


def van_loan(model, v0: np.ndarray, t: float) -> np.ndarray:
    """Exact V(t) of a constant model from the block exponential of Van Loan (1978)."""
    a, n = _matrices(model)
    d = a.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d], block[:d, d:], block[d:, d:] = -a, n, a.T
    e = expm(block * t)
    phi = e[d:, d:].T
    return phi @ v0 @ phi.T + phi @ e[:d, d:]


def _lyapunov_rhs(model):
    d = model.basis.dim

    def rhs(t, y):
        a, n = _matrices(model, t)
        v = y.reshape(d, d)
        return (a @ v + v @ a.T + n).ravel()

    return rhs


def ivp_trajectory(model, v0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """V at the given times from a tight adaptive integration."""
    d = model.basis.dim
    scale = max(1.0, float(np.max(np.abs(v0))))
    sol = solve_ivp(_lyapunov_rhs(model), (0.0, float(times[-1])), v0.ravel(), method="DOP853",
                    t_eval=times, rtol=1e-11, atol=1e-12 * scale)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(times), d, d)


def periodic_cycle(model, period: float, n_eval: int = 4097) -> tuple[float, np.ndarray | None]:
    """Floquet radius and the cycle V on a dense grid (None when unstable).

    The monodromy Phi solves Phi' = A(t) Phi over one period and Q is the
    Lyapunov flow from V = 0; the orbit start solves V0 = Phi V0 Phi^T + Q.
    """
    d = model.basis.dim
    rhs = _lyapunov_rhs(model)

    def joint(t, y):
        a = _matrices(model, t)[0]
        return np.concatenate([(a @ y[: d * d].reshape(d, d)).ravel(), rhs(t, y[d * d:])])

    y0 = np.concatenate([np.eye(d).ravel(), np.zeros(d * d)])
    sol = solve_ivp(joint, (0.0, period), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    phi = sol.y[: d * d, -1].reshape(d, d)
    q = sol.y[d * d:, -1].reshape(d, d)
    radius = float(np.max(np.abs(eigvals(phi)))) ** 2
    if radius >= 1.0:
        return radius, None
    v0 = solve_discrete_lyapunov(phi, 0.5 * (q + q.T))
    return radius, ivp_trajectory(model, v0, np.linspace(0.0, period, n_eval))


def _powers(m: np.ndarray, n: int) -> np.ndarray:
    """m^0 ... m^(n-1) by doubling."""
    out = np.empty((n,) + m.shape)
    out[0] = np.eye(len(m))
    size, m_size = 1, m
    while size < n:
        take = min(size, n - size)
        out[size:size + take] = out[:take] @ m_size
        m_size = m_size @ m_size
        size *= 2
    return out


def transient_minimum(model, v0: np.ndarray, t_end: float, n_grid: int = 20000):
    """Global minimum (v_sq, t) of v_sq(t) on [0, t_end]: exact grid, then polished.

    On the grid t_k = k h, V_k = P^k V0 P^kT + sum_{j<k} P^j S P^jT with the
    exact one-step propagator P = exp(A h) and increment S = V(h) from V = 0.
    """
    labels = model.basis.labels
    idx = [labels.index("x"), labels.index("p")]
    h = t_end / n_grid
    powers = _powers(expm(_matrices(model)[0] * h), n_grid + 1)
    step = van_loan(model, np.zeros_like(v0), h)
    grid = powers @ v0 @ powers.transpose(0, 2, 1)
    grid[1:] += np.cumsum(powers[:-1] @ step @ powers[:-1].transpose(0, 2, 1), axis=0)
    k = int(np.argmin(np.linalg.eigvalsh(grid[:, idx][:, :, idx])[:, 0]))
    lo, hi = max(0.0, (k - 1) * h), min(t_end, (k + 1) * h)

    def f(t):
        return _mech(van_loan(model, v0, t), labels)[0]

    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    return min((res.fun, res.x), (f(lo), lo), (f(hi), hi))


def modulation_optimum(params, build, alpha_max: float = 1.95) -> tuple[float, float]:
    """(smallest steady v_sq, top) over the stable depths [0, top = 0.999 alpha_crit]."""

    def family(alpha):
        return build(params.with_value("alpha", float(alpha)))

    grid = np.linspace(0.0, alpha_max, 100)
    re = [max_real_eig(family(a)) for a in grid]
    top = alpha_max
    for lo, hi, r_lo, r_hi in zip(grid, grid[1:], re, re[1:]):
        if r_lo < 0.0 <= r_hi:
            top = brentq(lambda a: max_real_eig(family(a)), lo, hi, xtol=1e-12) * (1.0 - 1e-3)
            break

    def f(alpha):
        model = family(alpha)
        return _mech(steady_cov(model), model.basis.labels)[0]

    grid = np.linspace(0.0, top, 100)
    vals = [f(a) for a in grid]
    i = int(np.argmin(vals))
    lo, hi = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return min(res.fun, vals[i]), top


# ---------------------------------------------------------------------------
# Per-output checks
# ---------------------------------------------------------------------------


def check_steady_row(name: str, row: dict, model) -> list[Check]:
    """A row with v_sq / v_asq / eta (and optionally angle, nonclassical) of a steady state."""
    v = steady_cov(model)
    v_sq, v_asq, angle = _mech(v, model.basis.labels)
    got = {k: _num(row.get(k)) for k in ("v_sq", "v_asq", "eta", "angle")}
    ok = (_close(got["v_sq"], v_sq) and _close(got["v_asq"], v_asq)
          and _close(got["eta"], v_sq / v_asq))
    if ok and got["angle"] is not None and v_asq - v_sq > 1e-6 * v_asq:
        ok = abs(math.sin(got["angle"] - angle)) <= 1e-6 * v_asq / (v_asq - v_sq)
    if ok and "nonclassical" in row:
        ok = row["nonclassical"] == ("true" if v_sq < 1.0 else "false")
    return [Check(name, ok, f"v_sq {got['v_sq']} vs {v_sq}, v_asq {got['v_asq']} vs {v_asq}")]


def check_sweep_steady(path: Path, settings: dict, builder) -> list[Check]:
    rows = read_table(path)
    values = settings["axis_values"]
    checks = [Check(f"{path.name}: rows", len(rows) == len(values), f"{len(rows)} rows")]
    params = _params(settings)
    for i, (row, value) in enumerate(zip(rows, values)):
        name = f"{path.name}[{i}]"
        model = builder(params.with_value(settings["axis"], value))
        stable = max_real_eig(model) < 0.0
        if float(row[settings["axis"]]) != value:
            checks.append(Check(name, False, f"axis value {row[settings['axis']]} != {value}"))
        elif row["status"] != ("ok" if stable else "unstable"):
            checks.append(Check(name, False, f"status {row['status']}, reference stable={stable}"))
        elif stable:
            checks += check_steady_row(name, row, model)
        else:
            checks.append(Check(name, row["v_sq"] == "", "unstable row must carry no values"))
    return checks


def _params(settings: dict):
    """SystemParams from the parameter keys of a call's CLI settings."""
    from levisqueeze.cli import PARAM_KEYS
    from levisqueeze.models import SystemParams

    return SystemParams(**{k: settings[k] for k in PARAM_KEYS if k in settings})


def check_transient_row(name: str, row: dict, model, v0: np.ndarray, t_end: float,
                        key: str = "v_sq") -> list[Check]:
    ref_v, ref_t = transient_minimum(model, v0, t_end)
    got, t_opt = _num(row.get(key)), _num(row.get("t_opt"))
    at_t = _mech(van_loan(model, v0, t_opt), model.basis.labels)[0] if t_opt is not None else None
    # The program refines its sampled minimum with a parabola, which may land
    # slightly on either side of the true one.
    ok = _close(got, ref_v, OPT_RTOL) and at_t is not None and _close(got, at_t, OPT_RTOL)
    return [Check(name, bool(ok), f"{key} {got} at t={t_opt}, reference min {ref_v} at t={ref_t}")]


def check_sweep_transient(path: Path, settings: dict) -> list[Check]:
    from levisqueeze.models import builder_for, initial_covariance

    rows = read_table(path)
    values = settings["axis_values"]
    checks = [Check(f"{path.name}: rows", len(rows) == len(values), f"{len(rows)} rows")]
    params = _params(settings)
    for i, (row, value) in enumerate(zip(rows, values)):
        name = f"{path.name}[{i}]"
        p = params.with_value(settings["axis"], value)
        model = builder_for(settings["model"])(p)
        if row["status"] != "ok" or float(row[settings["axis"]]) != value:
            checks.append(Check(name, False, f"status {row['status']} at {row[settings['axis']]}"))
            continue
        v0 = initial_covariance(p, model.basis).entries
        checks += check_transient_row(name, row, model, v0, float(settings["t_end"]))
    return checks


def check_trajectory(path: Path, model, v0: np.ndarray, t_end: float, seed: int,
                     n_sample: int = 48) -> list[Check]:
    """Sampled rows of an evolve CSV against the exact (constant) or adaptive reference."""
    rows = read_table(path)
    checks = [Check(f"{path.name}: span", bool(rows) and float(rows[0]["t"]) == 0.0
                    and _close(float(rows[-1]["t"]), t_end, 1e-12), f"{len(rows)} rows")]
    if not rows:
        return checks
    rng = np.random.default_rng(seed)
    picks = sorted({0, len(rows) - 1, *rng.integers(0, len(rows), n_sample).tolist()})
    times = np.array([float(rows[k]["t"]) for k in picks])
    if model.is_time_independent:
        refs = [van_loan(model, v0, t) for t in times]
    else:
        refs = list(ivp_trajectory(model, v0, times))
    labels = model.basis.labels
    cols = {"Vxx": ("x", "x"), "Vxp": ("x", "p"), "Vpp": ("p", "p"),
            "VXX": ("X", "X"), "VXY": ("X", "Y"), "VYY": ("Y", "Y")}
    for k, ref in zip(picks, refs):
        row = rows[k]
        scale = max(1.0, float(np.max(np.abs(ref))))
        v_sq, v_asq, _ = _mech(ref, labels)
        want = {c: ref[labels.index(i), labels.index(j)] for c, (i, j) in cols.items()
                if c in row}
        want.update(v_sq=v_sq, v_asq=v_asq)
        bad = [c for c, w in want.items() if not _close(_num(row[c]), w, TRAJ_RTOL, scale)]
        if not _close(_num(row["eta"]), v_sq / v_asq, 2.0 * TRAJ_RTOL * scale / v_asq, 1.0):
            bad.append("eta")
        checks.append(Check(f"{path.name}[t={row['t']}]", not bad, f"mismatch in {bad}"))
    return checks


# ---------------------------------------------------------------------------
# Workload oracles
# ---------------------------------------------------------------------------


def check_pass(calls: list[Call], outdir: Path, inp: dict) -> list[Check]:
    """Every check on the outputs of one pass (the calls of ``plan(inp)``)."""
    from levisqueeze.figures import detuned_params, resonant_params
    from levisqueeze.models import (
        build_bogoliubov_dissipative,
        build_eliminated_modulated,
        build_full_modulated,
        builder_for,
        initial_covariance,
    )

    checks: list[Check] = []
    for call in calls:
        path = Path(outdir) / call.out
        if not path.is_file():
            checks.append(Check(call.out, False, "output file missing"))
            continue
        s = call.settings
        if call.command == "sweep" and s["evaluation"] == "steady":
            checks += check_sweep_steady(path, s, builder_for(s["model"]))
        elif call.command == "sweep":
            checks += check_sweep_transient(path, s)
        elif call.command == "evolve":
            p = _params(s)
            model = builder_for(s["model"])(p)
            v0 = initial_covariance(p, model.basis).entries
            checks += check_trajectory(path, model, v0, float(s["t_end"]), inp["seed"])
        elif call.command == "mc-validate":
            checks += check_ensemble(path, s)
        elif call.figure in ("fig4b", "fig4c"):
            checks += check_modulation_figure(path, call, resonant_params(),
                                              build_bogoliubov_dissipative)
        elif call.figure == "fig3d":
            checks += check_fig3d(path, s, detuned_params(), build_eliminated_modulated)
        elif call.figure == "figS5":
            checks += check_figs5(path, s, resonant_params(), build_bogoliubov_dissipative,
                                  build_full_modulated)
        else:
            checks.append(Check(call.out, False, f"no oracle for {call.command} {call.figure}"))
    return checks


def check_modulation_figure(path: Path, call: Call, base, build) -> list[Check]:
    """fig4b / fig4c rows: the reported optimum is the steady v_sq there and the true minimum."""
    s = call.settings
    base = base.with_value("nbar", float(s["nbar"]))
    n = int(s["points"])
    if call.figure == "fig4b":
        grid = [("q_m", float(q), base.with_value("q_m", float(q)))
                for q in np.geomspace(1e7, 1e12, n)]
    else:
        grid = [("kappa", float(k), base.with_value("lam", lam).with_value("kappa", float(k)))
                for lam in (0.3, 0.5) for k in np.linspace(0.05, 1.0, n)]
    rows = read_table(path)
    checks = [Check(f"{path.name}: rows", len(rows) == len(grid), f"{len(rows)} rows")]
    for i, (row, (key, value, params)) in enumerate(zip(rows, grid)):
        name = f"{path.name}[{i}]"
        if not _close(float(row[key]), value, 1e-12):
            checks.append(Check(name, False, f"{key} {row[key]} != {value}"))
            continue
        alpha = float(row["alpha_opt"])
        model = build(params.with_value("alpha", alpha))
        at_alpha = _mech(steady_cov(model), model.basis.labels)[0]
        best, top = modulation_optimum(params, build)
        got = _num(row["v_sq_opt"])
        # The program brackets alpha_crit to 1e-5, so its top edge may sit that
        # much beyond the reference one.
        ok = (_close(got, at_alpha) and 0.0 <= alpha <= top + 1e-5
              and max_real_eig(model) < 0.0 and _close(got, best, OPT_RTOL))
        checks.append(Check(name, bool(ok), f"v_sq_opt {got} at alpha {alpha} (top {top}): "
                                            f"reference {at_alpha} there, optimum {best}"))
    return checks


def check_fig3d(path: Path, s: dict, base, build) -> list[Check]:
    """fig3d rows: best rotating-frame transient squeezing per modulation phase."""
    from levisqueeze.models import initial_covariance

    base = base.with_value("alpha", 0.01).with_value("nbar0", float(s["nbar0"]))
    phis = np.linspace(0.0, math.pi, int(s["points"]))
    rows = read_table(path)
    checks = [Check(f"{path.name}: rows", len(rows) == len(phis), f"{len(rows)} rows")]
    for i, (row, phi) in enumerate(zip(rows, phis)):
        name = f"{path.name}[{i}]"
        if not _close(float(row["phi"]), float(phi), 1e-12, 1.0):
            checks.append(Check(name, False, f"phi {row['phi']} != {phi}"))
            continue
        p = base.with_value("phi", float(phi))
        model = build(p)
        checks += check_transient_row(name, row, model, initial_covariance(p, model.basis).entries,
                                      float(s["t_end"]), key="v_sq_opt")
    return checks


def check_figs5(path: Path, s: dict, base, build_steady, build_lab) -> list[Check]:
    base = base.with_value("nbar", float(s["nbar"]))
    n = int(s["points"])
    grid = [(alpha, float(phi)) for alpha in (0.4, 0.1, 0.01)
            for phi in np.linspace(0.0, 2.0 * math.pi, n)]
    rows = read_table(path)
    checks = [Check(f"{path.name}: rows", len(rows) == len(grid), f"{len(rows)} rows")]
    for i, (row, (alpha, phi)) in enumerate(zip(rows, grid)):
        name = f"{path.name}[{i}]"
        p = base.with_value("alpha", alpha).with_value("phi", phi)
        if not _close(float(row["phi"]), phi, 1e-12, 1.0):
            checks.append(Check(name, False, f"phi {row['phi']} != {phi}"))
            continue
        checks += check_steady_row(name, row, build_steady(p))
        lab = build_lab(p)
        radius, cycle = periodic_cycle(lab, math.pi / p.omega_x)
        got = _num(row["v_sq_full"])
        if cycle is None:
            checks.append(Check(f"{name} cycle", got is None, f"Floquet radius {radius}"))
            continue
        ref = min(_mech(v, lab.basis.labels)[0] for v in cycle)
        # The program reads the minimum off 257 cycle samples, never below the
        # continuous one by more than the integration error.
        ok = got is not None and ref * (1.0 - TRAJ_RTOL) <= got <= ref * (1.0 + OPT_RTOL)
        checks.append(Check(f"{name} cycle", ok, f"v_sq_full {got}, reference cycle min {ref}"))
    return checks


def check_ensemble(path: Path, s: dict) -> list[Check]:
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    checks = [
        Check("mc.json: passed", rep.get("passed") is True, f"passed={rep.get('passed')}"),
        Check("mc.json: z_limit", rep.get("z_limit") == Z_LIMIT, f"z_limit={rep.get('z_limit')}"),
        Check("mc.json: max_z", Z_FLOOR < float(rep.get("max_z", math.nan)) < Z_LIMIT,
              f"max_z={rep.get('max_z')}"),
        Check("mc.json: spec", rep.get("n_traj") == s["n_traj"] and rep.get("seed") == s["seed"]
              and rep.get("t_end") == s["t_end"], f"{rep.get('n_traj')} {rep.get('seed')}"),
    ]
    cps = rep.get("checkpoints") or [math.nan]
    checks.append(Check("mc.json: checkpoints", cps[0] == 0.0 and _close(cps[-1], s["t_end"], 1e-12)
                        and len(cps) == 25, f"{len(cps)} checkpoints"))
    return checks
