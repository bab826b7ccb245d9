import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levisqueeze.dynamics import evolve, steady_state
from levisqueeze.errors import BasisError, ParameterError
from levisqueeze.gaussian import (
    CAVITY_MECH,
    MECH,
    CovarianceMatrix,
    LinearGaussianModel,
    ModelDescriptor,
    QuadratureBasis,
)
from levisqueeze.metrics import (
    TRAJECTORY_COLUMNS,
    SweepAxis,
    mechanical_block,
    mechanical_trajectory,
    optimize_over_time,
    quasistationary_vsq,
    rotate_covariance,
    squeezing_metrics,
    sweep,
    vsq_trajectory,
)
from levisqueeze.models import (
    build_eliminated_detuned,
    build_full_cs,
    initial_covariance,
    threshold_coupling,
)


def mech(entries) -> CovarianceMatrix:
    return CovarianceMatrix(MECH, np.asarray(entries, dtype=float))


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


def test_squeezing_metrics_accepts_full_basis_and_rejects_raw_4x4():
    full = CovarianceMatrix(CAVITY_MECH, np.diag([1.0, 1.0, 0.5, 2.0]))
    report = squeezing_metrics(full)
    assert report.v_sq == 0.5 and report.v_asq == 2.0
    with pytest.raises(ParameterError):
        squeezing_metrics(np.eye(4))


def test_mechanical_block_extracts_and_passes_through():
    m = np.diag([1.0, 1.0, 0.5, 2.0])
    full = CovarianceMatrix(CAVITY_MECH, m)
    assert np.array_equal(mechanical_block(full).entries, np.diag([0.5, 2.0]))
    small = mech(np.diag([0.5, 2.0]))
    assert mechanical_block(small) is small


def test_mechanical_block_needs_mechanical_labels():
    odd = CovarianceMatrix(QuadratureBasis(("X", "Y")), np.eye(2))
    with pytest.raises(BasisError):
        mechanical_block(odd)


@settings(max_examples=60)
@given(st.floats(-3.0, 3.0), st.floats(0.1, 3.0), st.floats(0.5, 4.0))
def test_rotation_leaves_eigenvariances_alone(theta, a, scale):
    v = mech(np.diag([a, a * scale + 0.1]))
    before = squeezing_metrics(v)
    after = squeezing_metrics(rotate_covariance(v, theta))
    assert after.v_sq == pytest.approx(before.v_sq, rel=1e-10)
    assert after.v_asq == pytest.approx(before.v_asq, rel=1e-10)


@settings(max_examples=60)
@given(st.floats(-2.0, 2.0), st.floats(1.2, 4.0))
def test_uncertainty_product_is_bounded(offdiag, big):
    entries = np.array([[1.0, offdiag], [offdiag, big + offdiag**2]])
    report = squeezing_metrics(mech(entries + 0.5 * np.eye(2)))
    assert report.v_sq * report.v_asq >= 1.0 - 1e-12


def test_vsq_trajectory_matches_pointwise_metrics(detuned):
    model = build_full_cs(detuned)
    result = evolve(model, initial_covariance(detuned, model.basis), 10.0)
    traj = vsq_trajectory(result)
    for i in (0, len(traj) // 2, len(traj) - 1):
        direct = squeezing_metrics(result.covariances[i][2:, 2:])
        assert traj[i] == pytest.approx(direct.v_sq, rel=1e-12)


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
        assert (v_sq, v_asq, eta) == pytest.approx((direct.v_sq, direct.v_asq, direct.eta))
    assert np.array_equal(vsq_trajectory(result), table[:, 4])


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
    model = LinearGaussianModel.constant(
        MECH, np.zeros((2, 2)), np.zeros((2, 2)), ModelDescriptor("idle"), 1.0
    )
    result = evolve(model, v, 5.0)
    best = optimize_over_time(result)
    assert best.v_sq == pytest.approx(1.0)
    assert best.time == 0.0
    assert best.at_edge


def test_quasistationary_average(detuned):
    model = build_full_cs(detuned)
    result = evolve(model, initial_covariance(detuned, model.basis), 50.0)
    period = 2 * math.pi / detuned.omega_x
    traj = vsq_trajectory(result)
    mask = result.times >= result.times[-1] - period
    assert quasistationary_vsq(result) == pytest.approx(float(np.mean(traj[mask])))
    assert quasistationary_vsq(result, period=period) == quasistationary_vsq(result)


def test_quasistationary_needs_a_period():
    model = LinearGaussianModel.constant(
        MECH, -np.eye(2), 2 * np.eye(2), ModelDescriptor("anon"), 1.0
    )
    result = evolve(model, mech(np.eye(2)), 5.0)
    with pytest.raises(ParameterError):
        quasistationary_vsq(result)


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
        squeezing_metrics(mechanical_block(direct)).v_sq
    )
    assert table.points[2].report is None
    assert table.points[2].detail != ""


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
