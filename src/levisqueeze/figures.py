"""Bundled experiment recipes, addressable by short figure ids.

One FIGURES table maps each id to its recipe, its preset parameter set and
the run controls (t_end, dt, points) it reads, with their defaults; each
recipe produces one table of plain columns, so the CLI can render any of
them to CSV without bespoke plotting code.  Two parameter families appear throughout: the far-detuned
scheme (delta = 5 omega_x) and the resonant rotating-frame scheme
(delta = omega_x); both share kappa = 0.2, lam = 0.3, a bath occupation of
2e7 and a quality factor of 1e9 unless a recipe varies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .dynamics import _bisect_brackets, _hurwitz, _periodic_states, _raise_first, evolve
from .errors import ConfigError, ParameterError, UnstableModelError
from .gaussian import CAVITY_MECH
from .metrics import (
    TRAJECTORY_COLUMNS,
    SqueezingReport,
    SweepAxis,
    SweepPoint,
    SweepTable,
    _eigen_variances,
    _grid_minimum,
    _grid_size,
    _steady_reports,
    mechanical_block,
    mechanical_trajectory,
    sweep,
)
from .models import (
    SystemParams,
    _lab_stack,
    bogoliubov_ground_variance,
    bogoliubov_stack,
    build_eliminated_modulated,
    build_full_cs,
    effective_modulated,
    initial_covariance,
    threshold_coupling,
)

#: The run controls a recipe may read, as named in its FIGURES entry; every
#: other override sets a SystemParams field or q_m.
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
class FigureData:
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
    _, covs, _, _, errors = _periodic_states(_lab_stack(rows), period)
    _raise_first([None if isinstance(e, UnstableModelError) else e for e in errors])
    v_sq = _eigen_variances(mechanical_block(covs, CAVITY_MECH))[0].min(axis=1)
    return [None if e is not None else v for v, e in zip(v_sq.tolist(), errors)]


def modulation_instabilities(rows: Sequence[SystemParams]) -> list[float | None]:
    """Smallest unstable modulation depth of the cooling model of each row, if any.

    Each row is judged on 40 depths in [0, ALPHA_MAX], all rows with one
    batched Routh-Hurwitz test (dynamics._hurwitz), and the first
    stable-to-unstable step of each is bisected, all brackets in lockstep.
    A bracket stops at ONSET_TOL, or at a relative ONSET_MARGIN of its upper
    end where that is tighter, so that an onset below ONSET_TOL is resolved
    too.
    """
    grid = np.linspace(0.0, ALPHA_MAX, 40)
    drifts, _, _ = bogoliubov_stack(rows, np.broadcast_to(grid, (len(rows), len(grid))))
    verdicts = _hurwitz(drifts)
    if not verdicts[:, 0].all():
        raise ParameterError("cooling model already unstable at zero modulation")
    onsets = verdicts[:, :-1] & ~verdicts[:, 1:]
    bracketed = np.flatnonzero(onsets.any(axis=1))
    first = onsets[bracketed].argmax(axis=1)

    def stable_at(brackets, alphas):
        probed = [rows[i] for i in bracketed[brackets]]
        return _hurwitz(bogoliubov_stack(probed, alphas[:, None])[0])[:, 0]

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


def _ok_columns(drifts: NDArray[np.float64], noises: NDArray[np.float64]) -> NDArray[np.float64]:
    """Steady v_sq, v_asq and angle columns (3, k) of stacked cooling-model points.

    The first point's error, in stack order, is raised.
    """
    columns, errors = _steady_reports(drifts, noises, CAVITY_MECH)
    _raise_first(errors)
    return columns


def _depth_scan(
    rows: Sequence[SystemParams], points: int
) -> tuple[list[float | None], NDArray[np.float64], NDArray[np.float64]]:
    """Steady squeezing of each row's cooling model on a depth grid just below its onset.

    Returns the instability onsets, the (rows, points) depth grids and the
    steady v_sq, v_asq and angle columns (3, rows, points) along them, all
    rows' grids solved as one stack.
    """
    alpha_crits = modulation_instabilities(rows)
    grids = np.linspace(0.0, [_grid_top(crit) for crit in alpha_crits], points, axis=-1)
    drifts, noises, _ = bogoliubov_stack(rows, grids)
    stacked = drifts.reshape((-1,) + drifts.shape[2:])
    columns = _ok_columns(stacked, np.repeat(noises, points, axis=0))
    return alpha_crits, grids, columns.reshape(3, len(rows), points)


def optimize_modulations(rows: Sequence[SystemParams]) -> list[ModulationOptimum]:
    """Minimize the steady squeezed variance of each row over the modulation depth.

    The stable branch below each row's instability (or the whole
    [0, ALPHA_MAX] range when none exists) is scanned on a uniform grid of 60
    depths, all rows in one stacked steady solve; each discrete minimum is
    polished with one parabolic step evaluated exactly, all rows' steps in
    one more solve.  A minimum on the first or last depth is reported with
    at_edge set.
    """
    alpha_crits, grids, (v_sq, v_asq, _) = _depth_scan(rows, 60)
    # Each row's (alpha_opt, v_sq, v_asq), at its discrete minimum until polished.
    best: list[tuple[float, float, float]] = []
    polish: list[tuple[int, float]] = []
    edges = []
    for i, (grid, row_sq) in enumerate(zip(grids.tolist(), v_sq.tolist())):
        j, edge, vertex = _grid_minimum(grid, row_sq)
        best.append((grid[j], row_sq[j], float(v_asq[i, j])))
        edges.append(edge)
        if vertex is not None:
            polish.append((i, vertex[0]))
    if polish:
        polished_rows = [rows[i] for i, _ in polish]
        p_drifts, p_noises, _ = bogoliubov_stack(polished_rows, [[alpha] for _, alpha in polish])
        p_sq, p_asq, _ = _ok_columns(p_drifts[:, 0], p_noises).tolist()
        for (i, alpha), sq, asq in zip(polish, p_sq, p_asq):
            if sq < best[i][1]:
                best[i] = (alpha, sq, asq)
    return [
        ModulationOptimum(alpha_crit=crit, alpha_opt=alpha, v_sq=sq, v_asq=asq, at_edge=edge)
        for crit, (alpha, sq, asq), edge in zip(alpha_crits, best, edges)
    ]


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------


def _weakly_modulated_params() -> SystemParams:
    """Fig. 3's preset: the far-detuned scheme with modulation depth alpha = 0.01."""
    return detuned_params().with_value("alpha", 0.01)


#: Fig. 3's two modulation phases, (series name, phi).
_PHASES = (("phi-0", 0.0), ("phi-half-pi", math.pi / 2.0))


def _ok_points(table: SweepTable) -> tuple[SweepPoint, ...]:
    """The points of a sweep; the error of the first failed point is raised again."""
    _raise_first([point.error for point in table.points])
    return table.points


def _edge_count(points) -> int:
    """How many transient optima sit on the first or last stored sample."""
    return sum(point.report.at_edge for point in points)


def _fig2a(p: SystemParams, *, t_end: float, dt: float | None) -> FigureData:
    """Transient squeezing of the far-detuned scheme from the ground state."""
    model = build_full_cs(p)
    result = evolve(model, initial_covariance(p, model.basis), t_end, dt)
    return FigureData(
        TRAJECTORY_COLUMNS,
        tuple(map(tuple, mechanical_trajectory(result).tolist())),
        {"params": p, "t_end": t_end, "model": "full"},
    )


def _trajectory_series(
    build, base: SystemParams, key: str, series, t_end: float, dt: float | None, **meta
) -> FigureData:
    """Mechanical trajectories from the initial state, one evolve per (name, value of key).

    Its rows are (series, *TRAJECTORY_COLUMNS) of every series in turn; meta
    follows the params and t_end.
    """
    rows: list[tuple] = []
    for name, value in series:
        p = base.with_value(key, value)
        model = build(p)
        result = evolve(model, initial_covariance(p, model.basis), t_end, dt)
        rows += [(name, *row) for row in mechanical_trajectory(result).tolist()]
    return FigureData(
        ("series",) + TRAJECTORY_COLUMNS, tuple(rows), {"params": base, "t_end": t_end, **meta}
    )


def _fig2b(base: SystemParams, *, t_end: float, dt: float | None) -> FigureData:
    """Same transient at threshold coupling and just below it."""
    lam_th = threshold_coupling(base)
    series = (("at-threshold", lam_th), ("below-threshold", 1.58))
    return _trajectory_series(build_full_cs, base, "lam", series, t_end, dt, lam_threshold=lam_th)


def _occupation_scan(
    build, base: SystemParams, key: str, series, t_end: float, dt: float | None, points: int,
    **meta,
) -> FigureData:
    """Best transient squeezing versus nbar0, one sweep per (name, value of key).

    Its rows are (series, nbar0, v_sq_opt, t_opt); meta follows the params
    and t_end, and t_opt_at_edge counts the optima on the edge of the time
    window.
    """
    grid = np.concatenate([[0.0], np.geomspace(1e-2, 1e6, points - 1)])
    axis = SweepAxis("nbar0", tuple(float(x) for x in grid))
    found = [
        (name, pt)
        for name, value in series
        for pt in _ok_points(sweep(axis, build, base.with_value(key, value), "transient", t_end, dt))
    ]
    rows = tuple((name, pt.value, pt.report.v_sq, pt.report.time) for name, pt in found)
    at_edge = _edge_count(pt for _, pt in found)
    meta = {"params": base, "t_end": t_end, **meta, "t_opt_at_edge": at_edge}
    return FigureData(("series", "nbar0", "v_sq_opt", "t_opt"), rows, meta)


def _fig2c(base: SystemParams, *, t_end: float, dt: float | None, points: int) -> FigureData:
    """Best transient squeezing versus initial occupation, detuned scheme."""
    lam_th = threshold_coupling(base)
    series = (("base-coupling", base.lam), ("at-threshold", lam_th))
    return _occupation_scan(
        build_full_cs, base, "lam", series, t_end, dt, points, lam_threshold=lam_th
    )


def _fig3a(base: SystemParams, *, points: int) -> FigureData:
    """Effective rotating-frame rates versus modulation depth."""
    rows = []
    for alpha in np.linspace(0.0, 0.1, points):
        p = base.with_value("alpha", float(alpha))
        shifted = effective_modulated(p, "shifted-frame")
        bare = effective_modulated(p, "bare-frame")
        rows.append((float(alpha), shifted.omega_eff, bare.omega_eff, shifted.zeta_eff))
    columns = ("alpha", "omega_eff", "omega_eff_bare_frame", "zeta_eff")
    return FigureData(columns, tuple(rows), {"params": base})


def _fig3b(base: SystemParams, *, t_end: float, dt: float | None) -> FigureData:
    """Rotating-frame transients of the weakly modulated scheme."""
    return _trajectory_series(build_eliminated_modulated, base, "phi", _PHASES, t_end, dt)


def _fig3c(base: SystemParams, *, t_end: float, dt: float | None, points: int) -> FigureData:
    """Best rotating-frame squeezing versus initial occupation."""
    return _occupation_scan(build_eliminated_modulated, base, "phi", _PHASES, t_end, dt, points)


def _fig3d(base: SystemParams, *, t_end: float, dt: float | None, points: int) -> FigureData:
    """Best rotating-frame squeezing versus modulation phase."""
    axis = SweepAxis.linear("phi", 0.0, math.pi, points)
    found = _ok_points(sweep(axis, build_eliminated_modulated, base, "transient", t_end, dt))
    return FigureData(
        ("phi", "v_sq_opt", "t_opt"),
        tuple((pt.value, pt.report.v_sq, pt.report.time) for pt in found),
        {"params": base, "t_end": t_end, "t_opt_at_edge": _edge_count(found)},
    )


def _fig4a(base: SystemParams, *, points: int) -> FigureData:
    """Steady squeezing of the cooling scheme versus modulation depth."""
    series = (("qm-1e9", base.with_value("q_m", 1e9)), ("qm-1e8", base.with_value("q_m", 1e8)))
    alpha_crits, grids, columns = _depth_scan([p for _, p in series], points)
    meta: dict = {"params": base}
    named = []
    scans = np.moveaxis(columns, 0, -1).tolist()  # (v_sq, v_asq, angle) per row and depth
    for (name, p), alpha_crit, grid, row in zip(series, alpha_crits, grids.tolist(), scans):
        meta[f"alpha_crit_{name}"] = alpha_crit
        named += [(name, p.with_value("alpha", a), SqueezingReport(*c)) for a, c in zip(grid, row)]
    v_full = _cycle_min_vsqs([p for _, p, _ in named], math.pi / base.omega_x)
    rows = tuple(
        (name, p.alpha, rep.v_sq, rep.v_asq, rep.eta, bogoliubov_ground_variance(p.alpha), v)
        for (name, p, rep), v in zip(named, v_full)
    )
    columns = ("series", "alpha", "v_sq", "v_asq", "eta", "v_alpha", "v_sq_full")
    return FigureData(columns, rows, meta)


def _fig4b(base: SystemParams, *, points: int) -> FigureData:
    """Depth-optimized steady squeezing versus mechanical quality factor."""
    q_ms = np.geomspace(1e7, 1e12, points).tolist()
    grid = [base.with_value("q_m", q_m) for q_m in q_ms]
    opts = optimize_modulations(grid)
    rows = [
        (q_m, p.gamma * p.nbar / p.omega_x, opt.alpha_opt, opt.v_sq)
        for q_m, p, opt in zip(q_ms, grid, opts)
    ]
    meta = {"params": base, "alpha_opt_at_edge": sum(opt.at_edge for opt in opts)}
    return FigureData(("q_m", "gamma_nbar", "alpha_opt", "v_sq_opt"), tuple(rows), meta)


def _fig4c(base: SystemParams, *, points: int) -> FigureData:
    """Depth-optimized steady squeezing versus cavity linewidth."""
    grid = [
        (name, base.with_value("lam", lam).with_value("kappa", float(kappa)))
        for name, lam in (("lam-0.3", 0.3), ("lam-0.5", 0.5))
        for kappa in np.linspace(0.05, 1.0, points)
    ]
    opts = optimize_modulations([p for _, p in grid])
    rows = [(name, p.kappa, opt.alpha_opt, opt.v_sq) for (name, p), opt in zip(grid, opts)]
    meta = {"params": base, "alpha_opt_at_edge": sum(opt.at_edge for opt in opts)}
    return FigureData(("series", "kappa", "alpha_opt", "v_sq_opt"), tuple(rows), meta)


def _figs5(base: SystemParams, *, points: int) -> FigureData:
    """Phase independence of the steady cooling-scheme squeezing."""
    phis = np.linspace(0.0, 2.0 * math.pi, points).tolist()
    named = [
        (name, base.with_value("alpha", alpha).with_value("phi", phi))
        for name, alpha in (("alpha-0.4", 0.4), ("alpha-0.1", 0.1), ("alpha-0.01", 0.01))
        for phi in phis
    ]
    params = [p for _, p in named]
    drifts, noises, _ = bogoliubov_stack(params, [[p.alpha] for p in params])
    reports = [SqueezingReport(*c) for c in _ok_columns(drifts[:, 0], noises).T.tolist()]
    v_full = _cycle_min_vsqs(params, math.pi / base.omega_x)
    rows = tuple(
        (name, p.phi, rep.v_sq, rep.v_asq, rep.eta, v)
        for (name, p), rep, v in zip(named, reports, v_full)
    )
    columns = ("series", "phi", "v_sq", "v_asq", "eta", "v_sq_full")
    return FigureData(columns, rows, {"params": base})


#: Each figure id's recipe, preset and the run controls it reads, with their
#: defaults.  The recipe is called as recipe(params, **controls).
FIGURES: dict[str, tuple[Callable[..., FigureData], Callable[[], SystemParams], dict]] = {
    "fig2a": (_fig2a, detuned_params, {"t_end": 100.0, "dt": None}),
    "fig2b": (_fig2b, detuned_params, {"t_end": 100.0, "dt": None}),
    "fig2c": (_fig2c, detuned_params, {"t_end": 100.0, "dt": None, "points": 21}),
    "fig3a": (_fig3a, detuned_params, {"points": 101}),
    "fig3b": (_fig3b, _weakly_modulated_params, {"t_end": 600.0, "dt": None}),
    "fig3c": (_fig3c, _weakly_modulated_params, {"t_end": 600.0, "dt": None, "points": 21}),
    "fig3d": (_fig3d, _weakly_modulated_params, {"t_end": 600.0, "dt": None, "points": 13}),
    "fig4a": (_fig4a, resonant_params, {"points": 40}),
    "fig4b": (_fig4b, resonant_params, {"points": 26}),
    "fig4c": (_fig4c, resonant_params, {"points": 20}),
    "figS5": (_figs5, resonant_params, {"points": 25}),
}


def run_figure(figure_id: str, overrides: Mapping[str, float] | None = None) -> FigureData:
    """Evaluate one bundled recipe, with overrides for parameters or run controls.

    Every override that is not a run control sets a parameter of the
    figure's preset, all in one step, so that SystemParams judges them as
    the other commands do: gamma = omega_x / q_m uses the overridden
    omega_x, and a nonzero gamma given with q_m is refused.  A run control
    the recipe does not read is ignored.  points is refused unless a whole
    number from 1 to MAX_STORED.
    """
    try:
        recipe, preset, defaults = FIGURES[figure_id]
    except KeyError:
        raise ConfigError(
            f"unknown figure id {figure_id!r}, expected one of {sorted(FIGURES)}"
        ) from None
    overrides = {} if overrides is None else overrides
    params = preset()._with_values(
        {key: float(val) for key, val in overrides.items() if key not in RUN_KEYS}
    )
    controls = {}
    for key, default in defaults.items():
        val = overrides.get(key, default)
        controls[key] = None if val is None else float(val)
    if "points" in controls:
        controls["points"] = _grid_size(controls["points"])
    return recipe(params, **controls)
