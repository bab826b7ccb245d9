"""Bundled experiment recipes, addressable by short figure ids.

Each id maps to a fixed parameter set and grid and produces one table of
plain columns, so the CLI can render any of them to CSV without bespoke
plotting code.  Two parameter families appear throughout: the far-detuned
scheme (delta = 5 omega_x) and the resonant rotating-frame scheme
(delta = omega_x); both share kappa = 0.2, lam = 0.3, a bath occupation of
2e7 and a quality factor of 1e9 unless a recipe varies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .dynamics import _stable_points, evolve, find_threshold, periodic_steady_state
from .errors import ConfigError, ParameterError, UnstableModelError
from .gaussian import LinearGaussianModel
from .metrics import (
    TRAJECTORY_COLUMNS,
    SweepAxis,
    SweepPoint,
    SweepTable,
    _parabolic_vertex,
    mechanical_trajectory,
    sweep,
    vsq_trajectory,
)
from .models import (
    SystemParams,
    bogoliubov_ground_variance,
    build_bogoliubov_dissipative,
    build_eliminated_modulated,
    build_full_cs,
    build_full_modulated,
    effective_modulated,
    initial_covariance,
    threshold_coupling,
)

#: Overridable run controls understood by every recipe in addition to the
#: SystemParams fields and q_m.
RUN_KEYS = ("t_end", "dt", "points")
#: Largest modulation depth searched for the cooling model's instability.
ALPHA_MAX = 1.95
#: Tolerance to which that instability onset is bisected.
ONSET_TOL = 1e-5


def detuned_params() -> SystemParams:
    return SystemParams(omega_x=1.0, kappa=0.2, delta=5.0, lam=0.3, q_m=1e9, nbar=2e7)


def resonant_params() -> SystemParams:
    return SystemParams(omega_x=1.0, kappa=0.2, delta=1.0, lam=0.3, q_m=1e9, nbar=2e7)


@dataclass(frozen=True)
class FigureJob:
    """A figure id plus overrides for parameters or run controls."""

    figure_id: str
    overrides: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class FigureData:
    figure_id: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: dict


@dataclass(frozen=True)
class ModulationOptimum:
    """Outcome of optimizing steady squeezing over the modulation depth."""

    alpha_crit: float | None
    alpha_opt: float
    v_sq: float
    v_asq: float
    #: True when the discrete minimum is the first or last depth of the grid,
    #: so the grid rather than the dynamics may have set it.
    at_edge: bool


def _cycle_min_vsq(params: SystemParams) -> float | None:
    """Quasistationary squeezed variance of the lab-frame resonant scheme.

    The rotating-frame steady state hides the micromotion that mixes part of
    the antisqueezed quadrature back in; the observable squeezing is the
    minimum over one modulation cycle of the time-periodic lab dynamics.
    None when that dynamics has no periodic steady state.
    """
    model = build_full_modulated(params)
    try:
        cycle = periodic_steady_state(model, math.pi / params.omega_x)
    except UnstableModelError:
        return None
    return float(vsq_trajectory(cycle).min())


def modulation_instability(params: SystemParams, alpha_max: float = ALPHA_MAX) -> float | None:
    """Smallest unstable modulation depth of the cooling model, if any."""

    def family(alpha: float) -> LinearGaussianModel:
        return build_bogoliubov_dissipative(params.with_value("alpha", alpha))

    grid = np.linspace(0.0, alpha_max, 40)
    verdicts = _stable_points([family(a) for a in grid]).tolist()
    if not verdicts[0]:
        raise ParameterError("cooling model already unstable at zero modulation")
    for lo, hi, s_lo, s_hi in zip(grid, grid[1:], verdicts, verdicts[1:]):
        if s_lo and not s_hi:
            return find_threshold(family, (lo, hi), tol=ONSET_TOL)
    return None


def optimize_modulation(params: SystemParams) -> ModulationOptimum:
    """Minimize the steady squeezed variance over the modulation depth.

    The stable branch below the instability (or the whole [0, ALPHA_MAX]
    range when none exists) is scanned on a uniform grid of 60 depths; the
    discrete minimum is polished with one parabolic step evaluated exactly.
    A minimum on the first or last depth is reported with at_edge set.
    """
    alpha_crit, axis = _depth_axis(params, 60)

    def scan(axis: SweepAxis) -> list:
        table = sweep(axis, build_bogoliubov_dissipative, params, "steady")
        return [pt.report for pt in _ok_points(table)]

    reports = scan(axis)
    v_sq = [rep.v_sq for rep in reports]
    i = int(np.argmin(v_sq))
    best_alpha, best = axis.values[i], reports[i]
    if 0 < i < len(v_sq) - 1:
        vertex = _parabolic_vertex(axis.values[i - 1 : i + 2], v_sq[i - 1 : i + 2])
        if vertex is not None:
            polished = scan(SweepAxis("alpha", (vertex[0],)))[0]
            if polished.v_sq < best.v_sq:
                best_alpha, best = vertex[0], polished
    return ModulationOptimum(
        alpha_crit=alpha_crit,
        alpha_opt=best_alpha,
        v_sq=best.v_sq,
        v_asq=best.v_asq,
        at_edge=i in (0, len(v_sq) - 1),
    )


def _depth_axis(params: SystemParams, points: int) -> tuple[float | None, SweepAxis]:
    """Instability onset of the cooling model and the depth grid just below it."""
    alpha_crit = modulation_instability(params)
    top = ALPHA_MAX if alpha_crit is None else alpha_crit * (1.0 - 1e-3)
    return alpha_crit, SweepAxis.linear("alpha", 0.0, top, points)


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------


def _apply_overrides(params: SystemParams, overrides: Mapping[str, float]) -> SystemParams:
    if "gamma" in overrides and "q_m" in overrides:
        raise ParameterError("give gamma or q_m, not both")
    for key, val in overrides.items():
        if key in RUN_KEYS:
            continue
        params = params.with_value(key, float(val))
    return params


def _run(overrides: Mapping[str, float], key: str, default: float | None) -> float | None:
    val = overrides.get(key, default)
    return None if val is None else float(val)


def _points(overrides: Mapping[str, float], default: int) -> int:
    """The grid size of a recipe; fewer than one point is refused."""
    points = int(_run(overrides, "points", default))
    if points < 1:
        raise ParameterError(f"points must be at least 1, got {points}")
    return points


def _traj_rows(result, prefix: tuple = ()) -> list[tuple]:
    return [prefix + tuple(row) for row in mechanical_trajectory(result).tolist()]


def _ok_points(table: SweepTable) -> tuple[SweepPoint, ...]:
    """The points of a sweep; the error of the first failed point is raised again."""
    for point in table.points:
        if point.error is not None:
            raise point.error
    return table.points


def _edge_count(points) -> int:
    """How many transient optima sit on the first or last stored sample."""
    return sum(point.report.at_edge for point in points)


def _fig2a(ov: Mapping[str, float]) -> FigureData:
    """Transient squeezing of the far-detuned scheme from the ground state."""
    p = _apply_overrides(detuned_params(), ov)
    t_end = _run(ov, "t_end", 100.0)
    model = build_full_cs(p)
    result = evolve(model, initial_covariance(p, model.basis), t_end, _run(ov, "dt", None))
    return FigureData(
        "fig2a",
        TRAJECTORY_COLUMNS,
        tuple(_traj_rows(result)),
        {"params": p, "t_end": t_end, "model": "full"},
    )


def _fig2b(ov: Mapping[str, float]) -> FigureData:
    """Same transient at threshold coupling and just below it."""
    base = _apply_overrides(detuned_params(), ov)
    t_end = _run(ov, "t_end", 100.0)
    lam_th = threshold_coupling(base)
    rows: list[tuple] = []
    for name, lam in (("at-threshold", lam_th), ("below-threshold", 1.58)):
        p = base.with_value("lam", lam)
        model = build_full_cs(p)
        result = evolve(model, initial_covariance(p, model.basis), t_end, _run(ov, "dt", None))
        rows.extend(_traj_rows(result, (name,)))
    return FigureData(
        "fig2b",
        ("series",) + TRAJECTORY_COLUMNS,
        tuple(rows),
        {"params": base, "t_end": t_end, "lam_threshold": lam_th},
    )


def _occupation_scan(
    ov: Mapping[str, float], build, base: SystemParams, key: str, series, t_end: float
) -> tuple[tuple[tuple, ...], int]:
    """Best transient squeezing versus nbar0, one sweep per (name, value of key).

    Returns the rows (series, nbar0, v_sq_opt, t_opt) and how many of their
    optima sit on the edge of the time window.
    """
    grid = np.concatenate([[0.0], np.geomspace(1e-2, 1e6, _points(ov, 21) - 1)])
    axis = SweepAxis("nbar0", tuple(float(x) for x in grid))
    dt = _run(ov, "dt", None)
    points = [
        (name, pt)
        for name, value in series
        for pt in _ok_points(sweep(axis, build, base.with_value(key, value), "transient", t_end, dt))
    ]
    rows = tuple((name, pt.value, pt.report.v_sq, pt.report.time) for name, pt in points)
    return rows, _edge_count(pt for _, pt in points)


def _fig2c(ov: Mapping[str, float]) -> FigureData:
    """Best transient squeezing versus initial occupation, detuned scheme."""
    base = _apply_overrides(detuned_params(), ov)
    t_end = _run(ov, "t_end", 100.0)
    lam_th = threshold_coupling(base)
    series = (("base-coupling", base.lam), ("at-threshold", lam_th))
    rows, at_edge = _occupation_scan(ov, build_full_cs, base, "lam", series, t_end)
    return FigureData(
        "fig2c",
        ("series", "nbar0", "v_sq_opt", "t_opt"),
        rows,
        {"params": base, "t_end": t_end, "lam_threshold": lam_th, "t_opt_at_edge": at_edge},
    )


def _fig3a(ov: Mapping[str, float]) -> FigureData:
    """Effective rotating-frame rates versus modulation depth."""
    base = _apply_overrides(detuned_params(), ov)
    rows = []
    for alpha in np.linspace(0.0, 0.1, _points(ov, 101)):
        p = base.with_value("alpha", float(alpha))
        shifted = effective_modulated(p, "shifted-frame")
        bare = effective_modulated(p, "bare-frame")
        rows.append(
            (float(alpha), shifted.omega_eff, bare.omega_eff, shifted.zeta_eff)
        )
    return FigureData(
        "fig3a",
        ("alpha", "omega_eff", "omega_eff_bare_frame", "zeta_eff"),
        tuple(rows),
        {"params": base},
    )


def _fig3b(ov: Mapping[str, float]) -> FigureData:
    """Rotating-frame transients of the weakly modulated scheme."""
    base = _apply_overrides(detuned_params().with_value("alpha", 0.01), ov)
    t_end = _run(ov, "t_end", 600.0)
    rows: list[tuple] = []
    for name, phi in (("phi-0", 0.0), ("phi-half-pi", math.pi / 2.0)):
        p = base.with_value("phi", phi)
        model = build_eliminated_modulated(p)
        result = evolve(model, initial_covariance(p, model.basis), t_end, _run(ov, "dt", None))
        rows.extend(_traj_rows(result, (name,)))
    return FigureData(
        "fig3b", ("series",) + TRAJECTORY_COLUMNS, tuple(rows), {"params": base, "t_end": t_end}
    )


def _fig3c(ov: Mapping[str, float]) -> FigureData:
    """Best rotating-frame squeezing versus initial occupation."""
    base = _apply_overrides(detuned_params().with_value("alpha", 0.01), ov)
    t_end = _run(ov, "t_end", 600.0)
    series = (("phi-0", 0.0), ("phi-half-pi", math.pi / 2.0))
    rows, at_edge = _occupation_scan(ov, build_eliminated_modulated, base, "phi", series, t_end)
    return FigureData(
        "fig3c",
        ("series", "nbar0", "v_sq_opt", "t_opt"),
        rows,
        {"params": base, "t_end": t_end, "t_opt_at_edge": at_edge},
    )


def _fig3d(ov: Mapping[str, float]) -> FigureData:
    """Best rotating-frame squeezing versus modulation phase."""
    base = _apply_overrides(detuned_params().with_value("alpha", 0.01), ov)
    t_end = _run(ov, "t_end", 600.0)
    axis = SweepAxis.linear("phi", 0.0, math.pi, _points(ov, 13))
    points = _ok_points(
        sweep(axis, build_eliminated_modulated, base, "transient", t_end, _run(ov, "dt", None))
    )
    return FigureData(
        "fig3d",
        ("phi", "v_sq_opt", "t_opt"),
        tuple((pt.value, pt.report.v_sq, pt.report.time) for pt in points),
        {"params": base, "t_end": t_end, "t_opt_at_edge": _edge_count(points)},
    )


def _fig4a(ov: Mapping[str, float]) -> FigureData:
    """Steady squeezing of the cooling scheme versus modulation depth."""
    base = _apply_overrides(resonant_params(), ov)
    points = _points(ov, 40)
    rows: list[tuple] = []
    meta: dict = {"params": base}
    for name, q_m in (("qm-1e9", 1e9), ("qm-1e8", 1e8)):
        p = base.with_value("q_m", q_m)
        meta[f"alpha_crit_{name}"], axis = _depth_axis(p, points)
        rows += [
            (
                name,
                pt.value,
                pt.report.v_sq,
                pt.report.v_asq,
                pt.report.eta,
                bogoliubov_ground_variance(pt.value),
                _cycle_min_vsq(pt.params),
            )
            for pt in _ok_points(sweep(axis, build_bogoliubov_dissipative, p, "steady"))
        ]
    return FigureData(
        "fig4a",
        ("series", "alpha", "v_sq", "v_asq", "eta", "v_alpha", "v_sq_full"),
        tuple(rows),
        meta,
    )


def _fig4b(ov: Mapping[str, float]) -> FigureData:
    """Depth-optimized steady squeezing versus mechanical quality factor."""
    base = _apply_overrides(resonant_params(), ov)
    rows = []
    at_edge = 0
    for q_m in np.geomspace(1e7, 1e12, _points(ov, 26)):
        p = base.with_value("q_m", float(q_m))
        opt = optimize_modulation(p)
        at_edge += opt.at_edge
        rows.append((float(q_m), p.gamma * p.nbar / p.omega_x, opt.alpha_opt, opt.v_sq))
    meta = {"params": base, "alpha_opt_at_edge": at_edge}
    return FigureData("fig4b", ("q_m", "gamma_nbar", "alpha_opt", "v_sq_opt"), tuple(rows), meta)


def _fig4c(ov: Mapping[str, float]) -> FigureData:
    """Depth-optimized steady squeezing versus cavity linewidth."""
    base = _apply_overrides(resonant_params(), ov)
    points = _points(ov, 20)
    rows: list[tuple] = []
    at_edge = 0
    for name, lam in (("lam-0.3", 0.3), ("lam-0.5", 0.5)):
        for kappa in np.linspace(0.05, 1.0, points):
            p = base.with_value("lam", lam).with_value("kappa", float(kappa))
            opt = optimize_modulation(p)
            at_edge += opt.at_edge
            rows.append((name, float(kappa), opt.alpha_opt, opt.v_sq))
    meta = {"params": base, "alpha_opt_at_edge": at_edge}
    return FigureData("fig4c", ("series", "kappa", "alpha_opt", "v_sq_opt"), tuple(rows), meta)


def _figs5(ov: Mapping[str, float]) -> FigureData:
    """Phase independence of the steady cooling-scheme squeezing."""
    base = _apply_overrides(resonant_params(), ov)
    axis = SweepAxis.linear("phi", 0.0, 2.0 * math.pi, _points(ov, 25))
    rows = [
        (name, pt.value, pt.report.v_sq, pt.report.v_asq, pt.report.eta,
         _cycle_min_vsq(pt.params))
        for name, alpha in (("alpha-0.4", 0.4), ("alpha-0.1", 0.1), ("alpha-0.01", 0.01))
        for pt in _ok_points(
            sweep(axis, build_bogoliubov_dissipative, base.with_value("alpha", alpha), "steady")
        )
    ]
    return FigureData(
        "figS5",
        ("series", "phi", "v_sq", "v_asq", "eta", "v_sq_full"),
        tuple(rows),
        {"params": base},
    )


FIGURES: dict[str, Callable[[Mapping[str, float]], FigureData]] = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "fig3c": _fig3c,
    "fig3d": _fig3d,
    "fig4a": _fig4a,
    "fig4b": _fig4b,
    "fig4c": _fig4c,
    "figS5": _figs5,
}


def run_figure(job: FigureJob) -> FigureData:
    """Evaluate one bundled recipe."""
    try:
        recipe = FIGURES[job.figure_id]
    except KeyError:
        raise ConfigError(
            f"unknown figure id {job.figure_id!r}, expected one of {sorted(FIGURES)}"
        ) from None
    return recipe(job.overrides)
