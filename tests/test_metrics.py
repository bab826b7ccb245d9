import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levisqueeze import dynamics
from levisqueeze.dynamics import MAX_STORED, evolve, steady_state
from levisqueeze.errors import (
    BasisError,
    CovarianceError,
    IntegrationError,
    NumericalError,
    ParameterError,
    UnstableModelError,
)
from levisqueeze.gaussian import (
    CAVITY_MECH,
    MECH,
    LinearGaussianModel,
    QuadratureBasis,
)
from levisqueeze.metrics import (
    TRAJECTORY_COLUMNS,
    SweepAxis,
    SweepPoint,
    _grid_minimum,
    mechanical_block,
    mechanical_trajectory,
    optimize_over_time,
    squeezing_metrics,
    sweep,
    vsq_trajectory,
)
from levisqueeze.models import (
    build_bogoliubov_dissipative,
    build_eliminated_detuned,
    build_full_cs,
    build_full_modulated,
    initial_covariance,
    threshold_coupling,
)


def mech(entries) -> np.ndarray:
    return np.asarray(entries, dtype=float)


def test_squeezed_diagonal_state():
    report = squeezing_metrics(mech(np.diag([0.5, 2.0])))
    assert report.v_sq == 0.5
    assert report.v_asq == 2.0
    assert report.eta == 0.25
    assert report.angle == 0.0
    assert report.nonclassical


def test_vacuum_is_not_squeezed():
    report = squeezing_metrics(mech(np.eye(2)))
    assert report.v_sq == report.v_asq == 1.0
    assert report.eta == 1.0
    assert not report.nonclassical


def test_rotated_state_reports_rotation_angle():
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    v = mech(r @ np.diag([0.5, 2.0]) @ r.T)
    report = squeezing_metrics(v)
    assert report.v_sq == pytest.approx(0.5, rel=1e-12)
    assert report.v_asq == pytest.approx(2.0, rel=1e-12)
    assert report.angle == pytest.approx(theta, abs=1e-12)


def test_angle_convention():
    # The squeezed axis is measured from x toward p in [0, pi): p squeezed
    # lies at pi/2, and an isotropic block, with no axis, reads 0.
    assert squeezing_metrics(mech(np.diag([2.0, 0.5]))).angle == math.pi / 2
    isotropic = squeezing_metrics(mech(2.0 * np.eye(2))).angle
    assert isotropic == 0.0 and math.copysign(1.0, isotropic) == 1.0


def test_asymmetric_block_averages_its_off_diagonals():
    lopsided = squeezing_metrics(mech([[1.0, 0.25], [0.75, 2.0]]))
    assert lopsided == squeezing_metrics(mech([[1.0, 0.5], [0.5, 2.0]]))


def test_squeezing_metrics_accepts_full_basis_and_rejects_raw_4x4():
    # A full-basis covariance is read through its mechanical block; the
    # metrics take 2x2 arrays only.
    full = np.diag([1.0, 1.0, 0.5, 2.0])
    report = squeezing_metrics(mechanical_block(full, CAVITY_MECH))
    assert report.v_sq == 0.5 and report.v_asq == 2.0
    with pytest.raises(ParameterError):
        squeezing_metrics(np.eye(4))
    # A zero block has no eigen-variance ratio; it is refused, not reduced to nan.
    with pytest.raises(CovarianceError, match="non-positive diagonal"):
        squeezing_metrics(np.zeros((2, 2)))


def test_squeezing_metrics_refuses_a_nan_diagonal():
    with pytest.raises(CovarianceError, match=r"non-positive diagonal entries \[nan  1\.\]"):
        squeezing_metrics(mech([[np.nan, 0.0], [0.0, 1.0]]))


def test_mechanical_block_extracts_and_passes_through():
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    m[0, 2] = m[2, 0] = 0.1
    m[2, 3] = m[3, 2] = 0.2
    assert np.array_equal(mechanical_block(m, CAVITY_MECH), [[3.0, 0.2], [0.2, 4.0]])
    # The basis order decides which rows and columns are taken.
    swapped = QuadratureBasis(("x", "p", "X", "Y"))
    assert np.array_equal(mechanical_block(m, swapped), [[1.0, 0.0], [0.0, 2.0]])
    small = mech([[0.5, 0.1], [0.1, 2.0]])
    assert np.array_equal(mechanical_block(small, MECH), small)


def test_mechanical_block_of_a_stack():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(6, 4, 4))
    blocks = mechanical_block(stack, CAVITY_MECH)
    assert blocks.shape == (6, 2, 2)
    for k in range(6):
        assert np.array_equal(blocks[k], stack[k][2:, 2:])
    small = rng.normal(size=(3, 2, 2))
    assert np.array_equal(mechanical_block(small, MECH), small)


def test_mechanical_block_needs_mechanical_labels():
    with pytest.raises(BasisError, match="'x' not in basis"):
        mechanical_block(np.eye(2), QuadratureBasis(("X", "Y")))
    with pytest.raises(BasisError):
        mechanical_block(np.eye(2), CAVITY_MECH)


@settings(max_examples=60)
@given(st.floats(-2.0, 2.0), st.floats(1.2, 4.0))
def test_uncertainty_product_is_bounded(offdiag, big):
    entries = np.array([[1.0, offdiag], [offdiag, big + offdiag**2]])
    report = squeezing_metrics(mech(entries + 0.5 * np.eye(2)))
    assert report.v_sq * report.v_asq >= 1.0 - 1e-12


# Samples in the range the optimizers feed it: positive variances and increasing
# times or depths, with ties.  Their slopes neither overflow nor underflow.
VARIANCES = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 1e3))


@settings(max_examples=300)
@given(
    st.floats(0.0, 1e3),
    st.lists(st.tuples(st.floats(1e-3, 1e3), VARIANCES), min_size=3, max_size=12),
)
def test_every_interior_minimum_gets_a_vertex_in_its_bracket(start, steps):
    gaps, v = zip(*steps)
    x = (start + np.cumsum(gaps)).tolist()
    i, at_edge, vertex = _grid_minimum(x, list(v))
    assert i == v.index(min(v)) and at_edge == (i in (0, len(v) - 1))
    assert (vertex is None) == at_edge
    if not at_edge:
        assert x[i - 1] <= vertex[0] <= x[i + 1] and math.isfinite(vertex[1])


def test_vsq_trajectory_matches_pointwise_metrics(detuned):
    model = build_full_cs(detuned)
    result = evolve(model, initial_covariance(detuned, model.basis), 10.0)
    traj = vsq_trajectory(result)
    for i in (0, len(traj) // 2, len(traj) - 1):
        direct = squeezing_metrics(result.covariances[i][2:, 2:])
        assert traj[i] == direct.v_sq


def test_mechanical_trajectory_columns(detuned):
    model = build_full_cs(detuned)
    result = evolve(model, initial_covariance(detuned, model.basis), 10.0)
    table = mechanical_trajectory(result)
    assert table.shape == (len(result.times), len(TRAJECTORY_COLUMNS))
    for i in (0, len(table) // 2, len(table) - 1):
        block = result.covariances[i][2:, 2:]
        direct = squeezing_metrics(block)
        t, vxx, vxp, vpp, v_sq, v_asq, eta = table[i]
        assert t == result.times[i]
        assert (vxx, vxp, vpp) == (block[0, 0], block[0, 1], block[1, 1])
        assert (v_sq, v_asq, eta) == (direct.v_sq, direct.v_asq, direct.eta)
    assert np.array_equal(vsq_trajectory(result), table[:, 4])


def at_threshold_hot_run(detuned):
    """fig2c's at-threshold series at its hottest start, the worst-conditioned blocks."""
    p = detuned.with_value("lam", threshold_coupling(detuned)).with_value("nbar0", 1e6)
    model = build_full_cs(p)
    return evolve(model, initial_covariance(p, model.basis), 100.0)


def test_ill_conditioned_vsq_matches_an_extended_precision_reduction(detuned):
    # v_asq / v_sq reaches 1.3e8 on these blocks, so the difference
    # mean - radius was off by 2.3e-8 from the exact reduction of the same
    # stored entries; the determinant over v_asq keeps them to 1e-11.
    mpmath = pytest.importorskip("mpmath")
    result = at_threshold_hot_run(detuned)
    table = mechanical_trajectory(result)
    got = table[:, TRAJECTORY_COLUMNS.index("v_sq")]
    with mpmath.workdps(50):
        exact = [
            (a + c) / 2 - mpmath.sqrt(((a - c) / 2) ** 2 + b**2)
            for a, b, c in (map(mpmath.mpf, row) for row in table[:, 1:4].tolist())
        ]
        worst = max(abs(g - e) / e for g, e in zip(got.tolist(), exact))
    assert worst <= 1e-11


def test_edge_optimum_is_a_sample_of_the_trajectory(detuned):
    # The optimum is reported from the same reduction it was found on.
    result = at_threshold_hot_run(detuned)
    best = optimize_over_time(result)
    assert best.at_edge and best.time == result.times[-1]
    assert best.v_sq == vsq_trajectory(result)[-1]


def test_vsq_samples_vary_smoothly(detuned):
    model = build_full_cs(detuned)
    result = evolve(model, initial_covariance(detuned, model.basis), 40.0)
    traj = vsq_trajectory(result)
    jumps = np.abs(np.diff(traj)) / np.minimum(traj[:-1], traj[1:])
    assert np.max(jumps) < 0.10


def test_optimize_over_time_finds_the_dip(detuned):
    model = build_full_cs(detuned)
    result = evolve(model, initial_covariance(detuned, model.basis), 20.0)
    best = optimize_over_time(result)
    traj = vsq_trajectory(result)
    assert best.v_sq <= np.min(traj) + 1e-12
    assert best.time is not None
    assert best.v_sq < 1.0 and best.nonclassical
    # Refined minimum should agree with a much denser sampling of the dip.
    dense = evolve(model, initial_covariance(detuned, model.basis), 20.0, dt=0.0005)
    assert best.v_sq == pytest.approx(np.min(vsq_trajectory(dense)), rel=1e-4)
    assert not best.at_edge


def test_optimize_over_time_constant_run():
    v = mech(np.eye(2))
    model = LinearGaussianModel.constant(MECH, np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
    result = evolve(model, v, 5.0)
    best = optimize_over_time(result)
    assert best.v_sq == pytest.approx(1.0)
    assert best.time == 0.0
    assert best.at_edge


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_axis_constructors():
    lin = SweepAxis.linear("lam", 0.0, 1.0, 5)
    assert lin.values == (0.0, 0.25, 0.5, 0.75, 1.0)
    log = SweepAxis.log("q_m", 1e2, 1e4, 3)
    assert log.values == pytest.approx((1e2, 1e3, 1e4))
    with pytest.raises(ParameterError):
        SweepAxis.log("q_m", 0.0, 1.0, 3)
    with pytest.raises(ParameterError):
        SweepAxis.linear("lam", 0.0, 1.0, 0)


def test_explicit_axis_values_obey_the_grid_size_rule():
    # A list of values is held to the same 1 to MAX_STORED sizes as a grid.
    assert len(SweepAxis("lam", (0.1,) * MAX_STORED).values) == MAX_STORED
    for size in (0, MAX_STORED + 1):
        with pytest.raises(ParameterError, match=f"grid points, got {size}"):
            SweepAxis("lam", (0.1,) * size)


def test_steady_sweep_marks_unstable_points(detuned):
    p = detuned.with_value("q_m", 1e4).with_value("nbar", 10.0)
    lam_th = threshold_coupling(p)
    axis = SweepAxis("lam", (0.5 * lam_th, 0.9 * lam_th, 1.1 * lam_th))
    table = sweep(axis, build_eliminated_detuned, p, "steady")
    statuses = [pt.status for pt in table.points]
    assert statuses == ["ok", "ok", "unstable"]
    assert [pt.value for pt in table.points] == list(axis.values)
    direct = steady_state(
        build_eliminated_detuned(p.with_value("lam", axis.values[0]))
    ).covariance
    assert table.points[0].report.v_sq == pytest.approx(
        squeezing_metrics(mechanical_block(direct.entries, direct.basis)).v_sq
    )
    assert table.points[2].report is None
    assert str(table.points[2].error) != ""


def _point_by_point(axis, build, params):
    """Status, error message and report of each steady point, one steady_state at a time."""
    out = []
    for value in axis.values:
        try:
            result = steady_state(build(params.with_value(axis.name, value)))
        except UnstableModelError as exc:
            out.append(("unstable", str(exc), None))
        except NumericalError as exc:
            out.append(("failed", str(exc), None))
        else:
            cov = result.covariance
            out.append(("ok", "", squeezing_metrics(mechanical_block(cov.entries, cov.basis))))
    return out


@pytest.mark.parametrize("case", ["full", "eliminated-detuned", "bogoliubov"])
def test_steady_sweep_equals_a_point_by_point_loop(case, detuned, resonant):
    # Across each model's instability: the lam threshold of the detuned
    # models, the modulation-depth onset of the cooling model (0.4086).
    if case == "full":
        params, build, name = detuned, build_full_cs, "lam"
        values = np.linspace(0.5, 3.0, 26)
    elif case == "eliminated-detuned":
        params = detuned.with_value("q_m", 1e4).with_value("nbar", 10.0)
        build, name = build_eliminated_detuned, "lam"
        values = np.linspace(0.1, 2.0, 20) * threshold_coupling(params)
    else:
        params, build, name = resonant, build_bogoliubov_dissipative, "alpha"
        values = np.linspace(0.0, 0.8, 41)
    axis = SweepAxis(name, tuple(float(v) for v in values))
    table = sweep(axis, build, params, "steady")
    expected = _point_by_point(axis, build, params)
    got = [
        (pt.status, "" if pt.error is None else str(pt.error), pt.report) for pt in table.points
    ]
    assert {status for status, _, _ in got} == {"ok", "unstable"}
    assert got == expected


@pytest.mark.parametrize(
    "error, status",
    [
        (None, "ok"),
        (UnstableModelError("no steady state"), "unstable"),
        (NumericalError("singular"), "failed"),
        (IntegrationError("step too coarse"), "failed"),
    ],
)
def test_sweep_point_status_follows_its_error(error, status):
    point = SweepPoint(0.3, None, error)
    assert point.status == status
    assert point.error is error


def _negative_noise_builder(bad_lams):
    def build(params):
        noise = np.diag([-4.0, 1.0]) if params.lam in bad_lams else 2.0 * np.eye(2)
        return LinearGaussianModel.constant(MECH, -np.eye(2), noise, 1.0)

    return build


def test_steady_sweep_raises_the_covariance_error_of_its_first_bad_point(detuned):
    # Good points around two bad ones: the sweep raises what steady_state
    # raises on the first bad model.
    build = _negative_noise_builder({0.3, 0.5})
    with pytest.raises(CovarianceError, match="non-positive diagonal") as direct:
        steady_state(build(detuned.with_value("lam", 0.3)))
    axis = SweepAxis("lam", (0.1, 0.2, 0.3, 0.4, 0.5))
    with pytest.raises(CovarianceError) as swept:
        sweep(axis, build, detuned, "steady")
    assert str(swept.value) == str(direct.value)


def test_steady_sweep_refuses_a_time_dependent_builder(detuned):
    params = detuned.with_value("alpha", 0.01)
    with pytest.raises(ParameterError) as direct:
        steady_state(build_full_modulated(params))
    with pytest.raises(ParameterError) as swept:
        sweep(SweepAxis("lam", (0.2, 0.3)), build_full_modulated, params, "steady")
    assert str(swept.value) == str(direct.value)


def test_steady_sweep_solves_its_points_as_one_stack(monkeypatch, detuned):
    # One stability verdict and one solve for the whole sweep, not one per
    # point; a sweep without unstable points computes no eigenvalues.
    calls = {"solve": [], "_hurwitz": [], "eigvals": []}
    for owner, name in ((np.linalg, "solve"), (dynamics, "_hurwitz"), (np.linalg, "eigvals")):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name].append(np.shape(args[0]))
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    axis = SweepAxis("lam", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
    table = sweep(axis, build_full_cs, detuned, "steady")
    assert [pt.status for pt in table.points] == ["ok"] * 6
    assert calls == {"solve": [(6, 10, 10)], "_hurwitz": [(6, 4, 4)], "eigvals": []}


def test_steady_sweep_reads_eigenvalues_of_its_unstable_points_only(monkeypatch, detuned):
    # The verdict needs no eigenvalues; one eigvals call on the unstable
    # points gives their messages, the same as from the whole stack's
    # spectra.
    shapes = []
    real = np.linalg.eigvals

    def counted(a):
        shapes.append(np.shape(a))
        return real(a)

    lams = (0.5, 1.7, 1.2, 1.5825, 3.0)
    drifts = [build_full_cs(detuned.with_value("lam", lam)).drift_at(0.0) for lam in lams]
    whole = real(np.array(drifts))
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    table = sweep(SweepAxis("lam", lams), build_full_cs, detuned, "steady")
    assert shapes == [(3, 4, 4)]
    assert [pt.status for pt in table.points] == ["ok", "unstable", "ok", "unstable", "unstable"]
    unstable = [pt for pt in table.points if pt.error is not None]
    assert [str(pt.error) for pt in unstable] == [
        "drift has max Re(eig) = 3.754e-01 >= 0; no steady state",
        "drift has max Re(eig) = 5.608e-03 >= 0; no steady state",
        "drift has max Re(eig) = 1.493e+00 >= 0; no steady state",
    ]
    for pt, eig in zip(unstable, whole[[1, 3, 4]]):
        re = np.max(eig.real)
        assert str(pt.error) == f"drift has max Re(eig) = {re:.3e} >= 0; no steady state"


def test_transient_sweep_matches_direct_evaluation(detuned):
    axis = SweepAxis("lam", (0.3,))
    table = sweep(axis, build_full_cs, detuned, "transient", t_end=20.0)
    model = build_full_cs(detuned)
    direct = optimize_over_time(evolve(model, initial_covariance(detuned, model.basis), 20.0))
    assert table.points[0].status == "ok"
    assert table.points[0].report.v_sq == pytest.approx(direct.v_sq, rel=1e-12)


def test_transient_sweep_requires_horizon(detuned):
    with pytest.raises(ParameterError):
        sweep(SweepAxis("lam", (0.3,)), build_full_cs, detuned, "transient")


def test_sweep_rejects_unknown_evaluation(detuned):
    with pytest.raises(ParameterError):
        sweep(SweepAxis("lam", (0.3,)), build_full_cs, detuned, "optimal")
