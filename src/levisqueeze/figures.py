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
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .dynamics import _bisect_brackets, _periodic_states, _spectra, evolve
from .errors import ConfigError, ParameterError, UnstableModelError
from .gaussian import CAVITY_MECH
from .metrics import (
    TRAJECTORY_COLUMNS,
    SqueezingReport,
    SweepAxis,
    SweepPoint,
    SweepTable,
    _parabolic_vertex,
    _steady_reports,
    mechanical_trajectory,
    sweep,
    vsq_trajectory,
)
from .models import (
    SystemParams,
    bogoliubov_ground_variance,
    bogoliubov_stack,
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
#: Relative margin of the depth grid below that onset; an onset bracket also
#: stops at this relative width where that is tighter than ONSET_TOL.
ONSET_MARGIN = 1e-3


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


def _cycle_min_vsqs(rows: Sequence[SystemParams], period: float) -> list[float | None]:
    """Quasistationary squeezed variance of the lab-frame resonant scheme of each row.

    The rotating-frame steady state hides the micromotion that mixes part of
    the antisqueezed quadrature back in; the observable squeezing is the
    minimum over one cycle, period = pi / omega_x, of the lab dynamics, all
    rows in one stack.  None where there is no periodic steady state.
    """
    cycles = _periodic_states([build_full_modulated(p) for p in rows], period)
    for cycle in cycles:
        if isinstance(cycle, Exception) and not isinstance(cycle, UnstableModelError):
            raise cycle
    return [None if isinstance(c, Exception) else float(vsq_trajectory(c).min()) for c in cycles]


def modulation_instabilities(rows: Sequence[SystemParams]) -> list[float | None]:
    """Smallest unstable modulation depth of the cooling model of each row, if any.

    Each row is judged on 40 depths in [0, ALPHA_MAX], all rows with one
    eigvals, and the first stable-to-unstable step of each is bisected, all
    brackets in lockstep.  A bracket stops at ONSET_TOL, or at a relative
    ONSET_MARGIN of its upper end where that is tighter, so that an onset
    below ONSET_TOL is resolved too.
    """
    grid = np.linspace(0.0, ALPHA_MAX, 40)
    drifts, _, _ = bogoliubov_stack(rows, np.broadcast_to(grid, (len(rows), len(grid))))
    verdicts = _spectra(drifts)[2]
    if not verdicts[:, 0].all():
        raise ParameterError("cooling model already unstable at zero modulation")
    onsets = verdicts[:, :-1] & ~verdicts[:, 1:]
    bracketed = np.flatnonzero(onsets.any(axis=1))
    first = onsets[bracketed].argmax(axis=1)

    def stable_at(brackets, alphas):
        probed = [rows[i] for i in bracketed[brackets]]
        return _spectra(bogoliubov_stack(probed, alphas[:, None])[0])[2][:, 0]

    crits = _bisect_brackets(
        stable_at,
        grid[first],
        grid[first + 1],
        np.ones(len(bracketed), dtype=bool),
        lambda hi: np.fmin(ONSET_TOL, ONSET_MARGIN * hi),
    )
    found = dict(zip(bracketed.tolist(), crits.tolist()))
    return [found.get(i) for i in range(len(rows))]


def _grid_top(alpha_crit: float | None) -> float:
    """Top of the depth grid below an instability onset, or ALPHA_MAX without one.

    The onset is the midpoint of a final bracket at most ONSET_TOL and at most
    a relative ONSET_MARGIN wide, so a relative ONSET_MARGIN below it lies
    below the bracket's stable end.  The grid stops that far or a full
    ONSET_TOL below the onset, whichever is lower, unless ONSET_TOL would
    take more than half the stable range.
    """
    if alpha_crit is None:
        return ALPHA_MAX
    top = min(alpha_crit * (1.0 - ONSET_MARGIN), alpha_crit - ONSET_TOL)
    return top if top >= 0.5 * alpha_crit else alpha_crit * (1.0 - ONSET_MARGIN)


def _ok_reports(drifts: NDArray[np.float64], noises: NDArray[np.float64]) -> list[SqueezingReport]:
    """Steady squeezing reports of stacked cooling-model points; the first error is raised."""
    reports = _steady_reports(drifts, noises, CAVITY_MECH)
    for report in reports:
        if isinstance(report, Exception):
            raise report
    return reports


def _depth_scan(
    rows: Sequence[SystemParams], points: int
) -> tuple[list[float | None], NDArray[np.float64], Iterator[list[SqueezingReport]]]:
    """Steady squeezing of each row's cooling model on a depth grid just below its onset.

    Returns the instability onsets, the grids of points depths each, and
    each row's reports along its grid, one stacked steady solve per row as
    it is read, so that only one row's solve is held at a time.
    """
    alpha_crits = modulation_instabilities(rows)
    grids = np.linspace(0.0, [_grid_top(crit) for crit in alpha_crits], points, axis=-1)
    drifts, noises, _ = bogoliubov_stack(rows, grids)
    scans = (_ok_reports(d, np.broadcast_to(n, d.shape)) for d, n in zip(drifts, noises))
    return alpha_crits, grids, scans


def optimize_modulations(rows: Sequence[SystemParams]) -> list[ModulationOptimum]:
    """Minimize the steady squeezed variance of each row over the modulation depth.

    The stable branch below each row's instability (or the whole
    [0, ALPHA_MAX] range when none exists) is scanned on a uniform grid of 60
    depths, one stacked steady solve per row; each discrete minimum is
    polished with one parabolic step evaluated exactly, all rows' steps in
    one solve.  A minimum on the first or last depth is reported with
    at_edge set.
    """
    alpha_crits, grids, scans = _depth_scan(rows, 60)
    best: list[tuple[float, SqueezingReport]] = []
    polish: list[tuple[int, float]] = []
    edges = []
    for i, (grid, reports) in enumerate(zip(grids.tolist(), scans)):
        v_sq = [rep.v_sq for rep in reports]
        j = int(np.argmin(v_sq))
        best.append((grid[j], reports[j]))
        edges.append(j in (0, len(v_sq) - 1))
        if 0 < j < len(v_sq) - 1:
            vertex = _parabolic_vertex(grid[j - 1 : j + 2], v_sq[j - 1 : j + 2])
            if vertex is not None:
                polish.append((i, vertex[0]))
    if polish:
        polished_rows = [rows[i] for i, _ in polish]
        p_drifts, p_noises, _ = bogoliubov_stack(polished_rows, [[alpha] for _, alpha in polish])
        reports = _ok_reports(p_drifts[:, 0], p_noises)
        for (i, alpha), report in zip(polish, reports):
            if report.v_sq < best[i][1].v_sq:
                best[i] = (alpha, report)
    return [
        ModulationOptimum(
            alpha_crit=crit,
            alpha_opt=alpha,
            v_sq=report.v_sq,
            v_asq=report.v_asq,
            at_edge=edge,
        )
        for crit, (alpha, report), edge in zip(alpha_crits, best, edges)
    ]


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
    series = (("qm-1e9", base.with_value("q_m", 1e9)), ("qm-1e8", base.with_value("q_m", 1e8)))
    alpha_crits, grids, scans = _depth_scan([p for _, p in series], points)
    meta: dict = {"params": base}
    named = []
    for (name, p), alpha_crit, grid, reports in zip(series, alpha_crits, grids.tolist(), scans):
        meta[f"alpha_crit_{name}"] = alpha_crit
        named += [(name, p.with_value("alpha", a), rep) for a, rep in zip(grid, reports)]
    v_full = _cycle_min_vsqs([p for _, p, _ in named], math.pi / base.omega_x)
    rows = tuple(
        (name, p.alpha, rep.v_sq, rep.v_asq, rep.eta, bogoliubov_ground_variance(p.alpha), v)
        for (name, p, rep), v in zip(named, v_full)
    )
    columns = ("series", "alpha", "v_sq", "v_asq", "eta", "v_alpha", "v_sq_full")
    return FigureData("fig4a", columns, rows, meta)


def _fig4b(ov: Mapping[str, float]) -> FigureData:
    """Depth-optimized steady squeezing versus mechanical quality factor."""
    base = _apply_overrides(resonant_params(), ov)
    q_ms = np.geomspace(1e7, 1e12, _points(ov, 26)).tolist()
    grid = [base.with_value("q_m", q_m) for q_m in q_ms]
    opts = optimize_modulations(grid)
    rows = [
        (q_m, p.gamma * p.nbar / p.omega_x, opt.alpha_opt, opt.v_sq)
        for q_m, p, opt in zip(q_ms, grid, opts)
    ]
    meta = {"params": base, "alpha_opt_at_edge": sum(opt.at_edge for opt in opts)}
    return FigureData("fig4b", ("q_m", "gamma_nbar", "alpha_opt", "v_sq_opt"), tuple(rows), meta)


def _fig4c(ov: Mapping[str, float]) -> FigureData:
    """Depth-optimized steady squeezing versus cavity linewidth."""
    base = _apply_overrides(resonant_params(), ov)
    points = _points(ov, 20)
    grid = [
        (name, base.with_value("lam", lam).with_value("kappa", float(kappa)))
        for name, lam in (("lam-0.3", 0.3), ("lam-0.5", 0.5))
        for kappa in np.linspace(0.05, 1.0, points)
    ]
    opts = optimize_modulations([p for _, p in grid])
    rows = [(name, p.kappa, opt.alpha_opt, opt.v_sq) for (name, p), opt in zip(grid, opts)]
    meta = {"params": base, "alpha_opt_at_edge": sum(opt.at_edge for opt in opts)}
    return FigureData("fig4c", ("series", "kappa", "alpha_opt", "v_sq_opt"), tuple(rows), meta)


def _figs5(ov: Mapping[str, float]) -> FigureData:
    """Phase independence of the steady cooling-scheme squeezing."""
    base = _apply_overrides(resonant_params(), ov)
    phis = np.linspace(0.0, 2.0 * math.pi, _points(ov, 25)).tolist()
    named = [
        (name, base.with_value("alpha", alpha).with_value("phi", phi))
        for name, alpha in (("alpha-0.4", 0.4), ("alpha-0.1", 0.1), ("alpha-0.01", 0.01))
        for phi in phis
    ]
    params = [p for _, p in named]
    drifts, noises, _ = bogoliubov_stack(params, [[p.alpha] for p in params])
    reports = _ok_reports(drifts[:, 0], noises)
    v_full = _cycle_min_vsqs(params, math.pi / base.omega_x)
    rows = tuple(
        (name, p.phi, rep.v_sq, rep.v_asq, rep.eta, v)
        for (name, p), rep, v in zip(named, reports, v_full)
    )
    columns = ("series", "phi", "v_sq", "v_asq", "eta", "v_sq_full")
    return FigureData("figS5", columns, rows, {"params": base})


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
