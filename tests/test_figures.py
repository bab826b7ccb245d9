import math

import numpy as np
import pytest

from levisqueeze.dynamics import (
    MAX_BISECTIONS,
    evolve,
    find_threshold,
    periodic_steady_state,
    stability,
    steady_state,
)
from levisqueeze.errors import ConfigError, IntegrationError, UnstableModelError
from levisqueeze.figures import (
    FIGURES,
    ALPHA_MAX,
    ONSET_MARGIN,
    ONSET_TOL,
    _depth_scan,
    detuned_params,
    modulation_instabilities,
    optimize_modulations,
    resonant_params,
    run_figure,
)
from levisqueeze.metrics import (
    mechanical_block,
    optimize_over_time,
    squeezing_metrics,
    vsq_trajectory,
)
from levisqueeze.models import (
    bogoliubov_ground_variance,
    build_bogoliubov_dissipative,
    build_eliminated_modulated,
    build_full_cs,
    build_full_modulated,
    effective_modulated,
    initial_covariance,
    threshold_coupling,
)


def test_registry_contents():
    assert set(FIGURES) == {
        "fig2a",
        "fig2b",
        "fig2c",
        "fig3a",
        "fig3b",
        "fig3c",
        "fig3d",
        "fig4a",
        "fig4b",
        "fig4c",
        "figS5",
    }


def test_unknown_figure_id():
    with pytest.raises(ConfigError):
        run_figure("fig99")


def test_fig2a_transient_dips_below_vacuum():
    data = run_figure("fig2a", {"t_end": 20.0})
    assert data.columns == ("t", "Vxx", "Vxp", "Vpp", "v_sq", "v_asq", "eta")
    assert data.rows[-1][0] == pytest.approx(20.0)
    t = np.array([r[0] for r in data.rows])
    v_sq = np.array([r[4] for r in data.rows])
    first_period = v_sq[t <= 2 * math.pi]
    assert np.min(first_period) < 1.0
    assert v_sq[0] == pytest.approx(1.0)


def test_fig2b_has_both_series():
    data = run_figure("fig2b", {"t_end": 10.0})
    names = {r[0] for r in data.rows}
    assert names == {"at-threshold", "below-threshold"}
    assert data.meta["lam_threshold"] == pytest.approx(1.5824032355881985)


def test_fig3a_matches_effective_parameters():
    data = run_figure("fig3a")
    assert len(data.rows) == 101
    assert data.columns == ("alpha", "omega_eff", "omega_eff_bare_frame", "zeta_eff")
    base = detuned_params()
    for row in (data.rows[0], data.rows[50], data.rows[-1]):
        alpha = row[0]
        p = base.with_value("alpha", alpha)
        assert row[1] == pytest.approx(effective_modulated(p, "shifted-frame").omega_eff)
        assert row[2] == pytest.approx(effective_modulated(p, "bare-frame").omega_eff)
        assert row[3] == pytest.approx(effective_modulated(p).zeta_eff)
    # The two frequency conventions differ by the static coupling shift.
    mid = data.rows[50]
    assert mid[2] < mid[1]


def test_fig3d_optimal_phase_is_quadrature():
    # The averaged bath is isotropic in the rotating frame, so the phase only
    # rotates the squeezing axis: the optimum is the same at every phase.
    data = run_figure("fig3d", {"points": 5})
    assert data.columns == ("phi", "v_sq_opt", "t_opt")
    phis = [r[0] for r in data.rows]
    assert phis[-1] == pytest.approx(math.pi)
    for _, v_sq_opt, t_opt in data.rows:
        assert v_sq_opt == pytest.approx(data.rows[0][1], rel=1e-9, abs=0.0)
        assert t_opt == pytest.approx(data.rows[0][2], rel=1e-9, abs=0.0)


def test_modulation_instability_frozen_onset():
    alpha_crit = modulation_instabilities([resonant_params()])[0]
    assert alpha_crit == pytest.approx(0.40861942768096926, abs=1e-4)


def test_modulation_instability_judges_its_grid_with_one_eigvals(monkeypatch):
    # The 40-depth grids of all rows are one stacked eigvals call; each
    # bisection step is one more, stacked over the brackets still open.  The
    # small onset is bisected to a relative width, so it takes more steps.
    rows = [
        resonant_params(),
        resonant_params().with_value("kappa", 6.9e-4),
        resonant_params().with_value("lam", 5.0).with_value("kappa", 1.0),
    ]
    shapes = []
    real = np.linalg.eigvals

    def counted(a):
        shapes.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    crits = modulation_instabilities(rows)
    assert crits[0] is not None and crits[1] is not None and crits[2] is None
    assert shapes[0] == (3, 40, 4, 4)
    assert all(shape[1:] == (1, 4, 4) for shape in shapes[1:])
    open_brackets = [shape[0] for shape in shapes[1:]]
    assert open_brackets[0] == 2 and open_brackets[-1] == 1
    assert open_brackets == sorted(open_brackets, reverse=True)


def test_modulation_instability_none_when_range_is_stable():
    # The no-onset row of test_lockstep_optimization_equals_a_per_row_reference.
    params = resonant_params().with_value("lam", 5.0).with_value("kappa", 1.0)
    assert modulation_instabilities([params])[0] is None


def test_optimize_modulation_pushes_to_the_onset():
    opt = optimize_modulations([resonant_params()])[0]
    assert opt.alpha_crit == pytest.approx(0.40861942768096926, abs=1e-4)
    assert 0.4 < opt.alpha_opt < opt.alpha_crit
    assert opt.v_sq == pytest.approx(0.333898, abs=1e-3)
    assert opt.v_sq * opt.v_asq >= 1.0


def _reference_optimum(params):
    """The depth scan as a plain steady_state loop with the original polish step."""
    alpha_crit = modulation_instabilities([params])[0]
    top = 1.95 if alpha_crit is None else alpha_crit * (1.0 - 1e-3)
    grid = np.linspace(0.0, top, 60)

    def value(alpha):
        model = build_bogoliubov_dissipative(params.with_value("alpha", alpha))
        cov = steady_state(model).covariance
        rep = squeezing_metrics(mechanical_block(cov.entries, cov.basis))
        return rep.v_sq, rep.v_asq

    vals = [value(a) for a in grid]
    v_sq = np.array([v[0] for v in vals])
    i = int(np.argmin(v_sq))
    best_alpha, (best_v, best_va) = float(grid[i]), vals[i]
    if 0 < i < len(grid) - 1:
        d0 = (v_sq[i] - v_sq[i - 1]) / (grid[i] - grid[i - 1])
        curv = ((v_sq[i + 1] - v_sq[i]) / (grid[i + 1] - grid[i]) - d0) / (
            grid[i + 1] - grid[i - 1]
        )
        if curv > 0.0:
            a_star = 0.5 * (grid[i - 1] + grid[i]) - d0 / (2.0 * curv)
            a_star = min(max(a_star, grid[i - 1]), grid[i + 1])
            v_star, va_star = value(float(a_star))
            if v_star < best_v:
                best_alpha, best_v, best_va = float(a_star), v_star, va_star
    return alpha_crit, best_alpha, best_v, best_va


@pytest.mark.parametrize(
    "point",
    [
        {"q_m": 1e7},  # first fig4b row
        {"lam": 0.5, "kappa": 0.05},  # first lam-0.5 row of fig4c
        {"lam": 2.0, "kappa": 2.0},  # interior optimum: the polish step acts
    ],
)
def test_optimize_modulation_equals_a_direct_loop(point):
    p = resonant_params()
    for key, value in point.items():
        p = p.with_value(key, value)
    opt = optimize_modulations([p])[0]
    assert (opt.alpha_crit, opt.alpha_opt, opt.v_sq, opt.v_asq) == _reference_optimum(p)


def test_optimize_modulation_flags_an_edge_optimum():
    # At the paper's working point v_sq keeps falling up to the onset, so the
    # optimum is the top of the depth grid; at lam = kappa = 2 it is interior.
    interior_row = resonant_params().with_value("lam", 2.0).with_value("kappa", 2.0)
    edge, interior = optimize_modulations([resonant_params(), interior_row])
    assert edge.at_edge
    assert not interior.at_edge
    assert interior.alpha_opt < interior.alpha_crit * (1.0 - 1e-3)


@pytest.mark.parametrize("kappa", [6.9e-4, 1.6e-4])
def test_depth_grid_of_a_small_onset_stays_stable(kappa):
    # The onset is found to ONSET_TOL = 1e-5; a top at a relative 1e-3 below
    # it lay above the stable end of the final bracket at these linewidths,
    # and fig4b exited 3 on an unstable grid point.
    params = resonant_params().with_value("kappa", kappa)
    alpha_crit = modulation_instabilities([params])[0]
    assert alpha_crit < 5e-3
    opt = optimize_modulations([params])[0]
    assert opt.alpha_crit == alpha_crit
    assert 0.0 < opt.alpha_opt < alpha_crit - 0.5 * ONSET_TOL
    for fig in ("fig4a", "fig4b"):
        data = run_figure(fig, {"points": 3, "kappa": kappa})
        assert data.rows


def test_an_onset_below_onset_tol_is_resolved():
    # At kappa = 1e-6 the onset lies below ONSET_TOL; it is bisected to a
    # relative width, and the depth grids stop below it instead of collapsing
    # to alpha = 0.
    params = resonant_params().with_value("kappa", 1e-6)

    def family(alpha):
        return build_bogoliubov_dissipative(params.with_value("alpha", alpha))

    exact = find_threshold(family, (0.0, 0.05), tol=1e-12)
    assert exact < ONSET_TOL
    assert modulation_instabilities([params])[0] == pytest.approx(exact, rel=ONSET_MARGIN)
    data = run_figure("fig4a", {"points": 3, "kappa": 1e-6})
    for name in ("qm-1e9", "qm-1e8"):
        alphas = [row[1] for row in data.rows if row[0] == name]
        assert 0.0 == alphas[0] < alphas[1] < alphas[2] < data.meta[f"alpha_crit_{name}"]
        row = params.with_value("q_m", float(name.removeprefix("qm-")))
        assert stability(build_bogoliubov_dissipative(row.with_value("alpha", alphas[2]))).stable
    fig4b = run_figure("fig4b", {"points": 3, "kappa": 1e-6})
    assert all(row[2] > 0.0 for row in fig4b.rows)


def _reference_rows(rows):
    """Each row's depth optimum from scalar bisection and a loop of steady_state calls."""

    def build(params, alpha):
        return build_bogoliubov_dissipative(params.with_value("alpha", float(alpha)))

    def squeezing(params, alpha):
        cov = steady_state(build(params, alpha)).covariance
        return squeezing_metrics(mechanical_block(cov.entries, cov.basis))

    out = []
    for params in rows:
        coarse = np.linspace(0.0, ALPHA_MAX, 40)
        stable = [stability(build(params, a)).stable for a in coarse]
        steps = [k for k in range(39) if stable[k] and not stable[k + 1]]
        alpha_crit = None
        top = ALPHA_MAX
        if steps:
            lo, hi = float(coarse[steps[0]]), float(coarse[steps[0] + 1])
            for _ in range(MAX_BISECTIONS):
                if hi - lo <= min(ONSET_TOL, ONSET_MARGIN * hi):
                    break
                mid = 0.5 * (lo + hi)
                if stability(build(params, mid)).stable:
                    lo = mid
                else:
                    hi = mid
            alpha_crit = 0.5 * (lo + hi)
            top = min(alpha_crit * (1.0 - ONSET_MARGIN), alpha_crit - ONSET_TOL)
            if top < 0.5 * alpha_crit:
                top = alpha_crit * (1.0 - ONSET_MARGIN)
            assert top < lo
        grid = [float(a) for a in np.linspace(0.0, top, 60)]
        reports = [squeezing(params, a) for a in grid]
        v_sq = [rep.v_sq for rep in reports]
        i = int(np.argmin(v_sq))
        best_alpha, best = grid[i], reports[i]
        if 0 < i < 59:
            (a0, a1, a2), (v0, v1, v2) = grid[i - 1 : i + 2], v_sq[i - 1 : i + 2]
            d0 = (v1 - v0) / (a1 - a0)
            curv = ((v2 - v1) / (a2 - a1) - d0) / (a2 - a0)
            a_star = 0.5 * (a0 + a1) - d0 / (2.0 * curv) if curv > 0.0 else None
            if a_star is not None and a0 <= a_star <= a2:
                polished = squeezing(params, a_star)
                if polished.v_sq < best.v_sq:
                    best_alpha, best = a_star, polished
        out.append((alpha_crit, best_alpha, best.v_sq, best.v_asq, i in (0, 59)))
    return out


def test_lockstep_optimization_equals_a_per_row_reference():
    base = resonant_params()
    rows = [base.with_value("q_m", float(q)) for q in np.geomspace(1e7, 1e12, 5)]
    rows += [
        base.with_value("lam", lam).with_value("kappa", float(kappa))
        for lam in (0.3, 0.5)
        for kappa in np.linspace(0.05, 1.0, 4)
    ]
    rows.append(base.with_value("lam", 2.0).with_value("kappa", 2.0))  # interior optimum
    rows.append(base.with_value("lam", 5.0).with_value("kappa", 1.0))  # no onset
    got = [
        (opt.alpha_crit, opt.alpha_opt, opt.v_sq, opt.v_asq, opt.at_edge)
        for opt in optimize_modulations(rows)
    ]
    expected = _reference_rows(rows)
    assert got == expected
    assert expected[-1][0] is None and not expected[-2][4]


def test_fig4a_tracks_the_ideal_variance():
    data = run_figure("fig4a", {"points": 4})
    assert data.columns == ("series", "alpha", "v_sq", "v_asq", "eta", "v_alpha", "v_sq_full")
    names = {r[0] for r in data.rows}
    assert names == {"qm-1e9", "qm-1e8"}
    for row in data.rows:
        assert row[5] == pytest.approx(bogoliubov_ground_variance(row[1]))
    hi_q = [r for r in data.rows if r[0] == "qm-1e9"]
    # Zero modulation: no squeezing, and the lab-frame check agrees loosely.
    assert hi_q[0][2] > 0.9
    assert hi_q[0][6] == pytest.approx(hi_q[0][2], rel=0.2)
    # Deeper modulation squeezes harder until the onset.
    assert hi_q[-1][2] < hi_q[1][2] < hi_q[0][2]


def test_fig4b_quality_factor_trend():
    data = run_figure("fig4b", {"points": 3})
    assert data.columns == ("q_m", "gamma_nbar", "alpha_opt", "v_sq_opt")
    q = [r[0] for r in data.rows]
    v = [r[3] for r in data.rows]
    assert q == pytest.approx([1e7, 10 ** 9.5, 1e12])
    assert v[0] > v[1] > v[2]
    base = resonant_params()
    assert data.rows[0][1] == pytest.approx(
        base.omega_x / q[0] * base.nbar / base.omega_x
    )


def test_figs5_steady_squeezing_ignores_phase():
    data = run_figure("figS5", {"points": 5})
    for name in ("alpha-0.4", "alpha-0.1", "alpha-0.01"):
        v = [r[2] for r in data.rows if r[0] == name]
        assert len(v) == 5
        assert (max(v) - min(v)) / min(v) < 0.01


# ---------------------------------------------------------------------------
# Grid recipes against direct loops over the solvers
# ---------------------------------------------------------------------------


def _best_transient(build, p, t_end):
    model = build(p)
    return optimize_over_time(evolve(model, initial_covariance(p, model.basis), t_end))


def test_fig2c_rows_equal_a_direct_loop():
    data = run_figure("fig2c", {"points": 3, "t_end": 20.0})
    base = detuned_params()
    expected = []
    for name, lam in (("base-coupling", base.lam), ("at-threshold", threshold_coupling(base))):
        for nbar0 in (0.0, 1e-2, 1e6):
            p = base.with_value("lam", lam).with_value("nbar0", nbar0)
            rep = _best_transient(build_full_cs, p, 20.0)
            expected.append((name, nbar0, rep.v_sq, rep.time))
    assert data.rows == tuple(expected)


def test_fig3d_rows_equal_a_direct_loop():
    data = run_figure("fig3d", {"points": 3})
    base = detuned_params().with_value("alpha", 0.01)
    expected = []
    for phi in (0.0, math.pi / 2.0, math.pi):
        rep = _best_transient(build_eliminated_modulated, base.with_value("phi", phi), 600.0)
        expected.append((phi, rep.v_sq, rep.time))
    assert data.rows == tuple(expected)


def test_fig3d_raises_the_error_of_its_failed_point():
    # Two steps of 50 fail the step-halving check; the figure raises that
    # IntegrationError itself, not another exception made from its message.
    with pytest.raises(IntegrationError, match="step-halving error"):
        run_figure("fig3d", {"points": 2, "t_end": 100.0, "dt": 50.0})


def test_fig3d_counts_optima_on_the_window_edge():
    # A warm start keeps relaxing until t_end, so every optimum is the last sample.
    data = run_figure("fig3d", {"points": 3, "nbar0": 5.0})
    assert [r[2] for r in data.rows] == [600.0] * 3
    assert data.meta["t_opt_at_edge"] == 3


def lab_frame_points(figure: str) -> list[tuple]:
    """(series, swept value, params) of each row of a lab-frame figure at points=3."""
    base = resonant_params()
    if figure == "figS5":
        return [
            (name, phi, base.with_value("alpha", alpha).with_value("phi", phi))
            for name, alpha in (("alpha-0.4", 0.4), ("alpha-0.1", 0.1), ("alpha-0.01", 0.01))
            for phi in (0.0, math.pi, 2.0 * math.pi)
        ]
    series = (("qm-1e9", base.with_value("q_m", 1e9)), ("qm-1e8", base.with_value("q_m", 1e8)))
    _, grids, _ = _depth_scan([p for _, p in series], 3)
    return [
        (name, alpha, p.with_value("alpha", alpha))
        for (name, p), grid in zip(series, grids.tolist())
        for alpha in grid
    ]


@pytest.mark.parametrize("figure", ["figS5", "fig4a"])
def test_lab_frame_rows_equal_a_direct_loop(figure):
    # The figure solves all its lab-frame cycles in one stack; each row
    # equals the one-model solvers bit for bit.
    data = run_figure(figure, {"points": 3})
    expected = []
    for name, value, p in lab_frame_points(figure):
        cov = steady_state(build_bogoliubov_dissipative(p)).covariance
        rep = squeezing_metrics(mechanical_block(cov.entries, cov.basis))
        try:
            cycle = periodic_steady_state(build_full_modulated(p), math.pi / p.omega_x)
            v_full = float(vsq_trajectory(cycle).min())
        except UnstableModelError:
            v_full = None
        v_alpha = (bogoliubov_ground_variance(value),) if figure == "fig4a" else ()
        expected.append((name, value, rep.v_sq, rep.v_asq, rep.eta, *v_alpha, v_full))
    assert data.rows == tuple(expected)
