import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from levisqueeze.dynamics import (
    MAX_STORED,
    evolve,
    find_threshold,
    periodic_steady_state,
    stability,
    steady_state,
)
from levisqueeze.errors import (
    BasisError,
    BracketError,
    CovarianceError,
    IntegrationError,
    NumericalError,
    ParameterError,
    UnstableModelError,
)
from levisqueeze.gaussian import (
    CAVITY_MECH,
    MECH,
    CovarianceMatrix,
    LinearGaussianModel,
    ModelDescriptor,
    QuadratureBasis,
    validate_covariance,
)
from levisqueeze.models import (
    SystemParams,
    build_eliminated_detuned,
    build_full_cs,
    build_full_modulated,
    initial_covariance,
    threshold_coupling,
)


def damped_cavity(kappa: float = 1.0) -> LinearGaussianModel:
    basis = MECH
    return LinearGaussianModel.constant(
        basis,
        -kappa * np.eye(2),
        2 * kappa * np.eye(2),
        ModelDescriptor("damped-cavity"),
        kappa,
    )


def vac(entries: np.ndarray) -> CovarianceMatrix:
    return CovarianceMatrix(MECH, entries)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_matches_ou_closed_form():
    # V(t) = 1 + (V0 - 1) exp(-2 kappa t) entrywise for the damped cavity.
    model = damped_cavity()
    result = evolve(model, vac(3.0 * np.eye(2)), 1.0)
    v_end = result.covariances[-1]
    assert np.allclose(v_end, (1.0 + 2.0 * math.exp(-2.0)) * np.eye(2), atol=1e-9)


def test_evolve_matches_matrix_exponential():
    p = SystemParams(omega_x=1.0, kappa=0.2, delta=5.0, lam=0.3, q_m=1e4, nbar=10.0)
    model = build_full_cs(p)
    a = model.drift_at(0.0)
    vss = steady_state(model).covariance.entries
    v0 = initial_covariance(p, model.basis)
    t_end = 4.0
    result = evolve(model, v0, t_end)
    e = scipy.linalg.expm(a * t_end)
    expected = e @ (v0.entries - vss) @ e.T + vss
    assert np.max(np.abs(result.covariances[-1] - expected)) < 1e-8


def test_constant_path_matches_the_generic_stepper(rng):
    # The closed-form step map of a constant model against the RK4 stepper
    # that time-dependent models take, on the same random stable (A, N).
    m = rng.normal(size=(4, 4))
    a = m - (np.max(np.linalg.eigvals(m).real) + 0.5) * np.eye(4)
    b = rng.normal(size=(4, 4))
    rate = float(np.max(np.abs(np.linalg.eigvals(a))))
    constant = LinearGaussianModel.constant(
        CAVITY_MECH, a, b @ b.T, ModelDescriptor("random-stable"), rate
    )
    generic = dataclasses.replace(constant, is_time_independent=False)
    v0 = CovarianceMatrix(CAVITY_MECH, np.eye(4))
    fast = evolve(constant, v0, 20.0 / rate)
    slow = evolve(generic, v0, 20.0 / rate)
    assert np.array_equal(fast.times, slow.times)
    for x, y in zip(fast.covariances, slow.covariances):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_evolve_is_fourth_order():
    p = SystemParams(omega_x=1.0, kappa=0.2, delta=5.0, lam=0.3, q_m=1e4, nbar=10.0)
    model = build_full_cs(p)
    v0 = initial_covariance(p, model.basis)
    a = model.drift_at(0.0)
    vss = steady_state(model).covariance.entries
    e = scipy.linalg.expm(a * 2.0)
    exact = e @ (v0.entries - vss) @ e.T + vss

    def err(dt: float) -> float:
        r = evolve(model, v0, 2.0, dt=dt)
        return np.max(np.abs(r.covariances[-1] - exact))

    assert err(0.01) / err(0.005) >= 8.0


def test_evolve_thermal_equilibrium_is_stationary():
    p = SystemParams(omega_x=1.0, kappa=0.2, delta=5.0, lam=0.0, q_m=1e4, nbar=5.0, nbar0=5.0)
    model = build_full_cs(p)
    result = evolve(model, initial_covariance(p, model.basis), 10.0)
    for v in result.covariances:
        assert np.allclose(v, result.covariances[0], atol=1e-9)


def test_evolve_rejects_bad_horizon():
    model = damped_cavity()
    with pytest.raises(ParameterError):
        evolve(model, vac(np.eye(2)), 0.0)
    with pytest.raises(ParameterError):
        evolve(model, vac(np.eye(2)), 1.0, dt=-0.1)


def test_evolve_rejects_basis_mismatch(detuned):
    model = build_full_cs(detuned)
    with pytest.raises(BasisError):
        evolve(model, vac(np.eye(2)), 1.0)


def test_evolve_rejects_coarse_step():
    # Start away from the fixed point so the step defect is visible.
    with pytest.raises(IntegrationError):
        evolve(damped_cavity(kappa=5.0), vac(3.0 * np.eye(2)), 10.0, dt=1.0)


def test_evolve_storage_is_bounded():
    result = evolve(damped_cavity(), vac(np.eye(2)), 100.0, dt=1e-3)
    assert len(result.covariances) <= MAX_STORED
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(100.0)
    assert result.stats.n_stored == len(result.covariances)


def test_evolve_output_stays_physical(detuned):
    p = dataclasses.replace(detuned, nbar0=2.0)
    model = build_full_cs(p)
    result = evolve(model, initial_covariance(p, model.basis), 20.0)
    for v in result.covariances[:: max(1, len(result.covariances) // 20)]:
        assert validate_covariance(v).valid


def test_evolve_step_refinement_converged(detuned):
    # Halving the step should not move the answer at this working point.
    model = build_eliminated_detuned(detuned)
    v0 = initial_covariance(detuned, model.basis)
    coarse = evolve(model, v0, 30.0).covariances[-1]
    fine = evolve(model, v0, 30.0, dt=0.0025).covariances[-1]
    assert np.max(np.abs(coarse - fine)) / np.max(np.abs(fine)) < 1e-6


def growing_model() -> LinearGaussianModel:
    # V(t) ~ exp(100 t) overflows a float near t = 7.1.
    return LinearGaussianModel.constant(
        MECH, 50.0 * np.eye(2), np.eye(2), ModelDescriptor("growing"), 50.0
    )


def test_evolve_reports_divergence_time():
    with pytest.raises(NumericalError, match=r"covariance diverged at t = 7\.0992"):
        evolve(growing_model(), np.eye(2), 8.0)
    generic = dataclasses.replace(growing_model(), is_time_independent=False)
    with pytest.raises(NumericalError, match=r"covariance diverged at t = 7\.0352"):
        evolve(generic, np.eye(2), 7.5)


def test_evolve_rejects_non_positive_diagonal():
    # Negative diffusion drives V(t) = 3 exp(-2t) - 2 below zero.
    model = LinearGaussianModel.constant(
        MECH, -np.eye(2), -4.0 * np.eye(2), ModelDescriptor("negative-noise"), 1.0
    )
    with pytest.raises(CovarianceError, match="non-positive diagonal entries"):
        evolve(model, np.eye(2), 3.0)


def test_evolve_covariances_are_one_read_only_array(detuned):
    model = build_full_cs(detuned)
    result = evolve(model, initial_covariance(detuned, model.basis), 5.0)
    assert result.covariances.shape == (result.stats.n_stored, 4, 4)
    assert not result.covariances.flags.writeable
    assert result.basis is model.basis


def test_evolve_relaxation_is_enveloped():
    # Deviation from the fixed point contracts at least as fast as the
    # slowest eigenvalue allows, up to a constant factor.
    model = damped_cavity(kappa=0.7)
    report = stability(model)
    v0 = vac(4.0 * np.eye(2))
    result = evolve(model, v0, 3.0)
    dev0 = np.max(np.abs(v0.entries - np.eye(2)))
    for t, v in zip(result.times, result.covariances):
        dev = np.max(np.abs(v - np.eye(2)))
        assert dev <= 1.05 * dev0 * math.exp(2.0 * report.max_real_part * t) + 1e-12


# ---------------------------------------------------------------------------
# steady_state / stability
# ---------------------------------------------------------------------------


def test_steady_state_bare_cavity_is_vacuum():
    result = steady_state(damped_cavity())
    assert np.array_equal(result.covariance.entries, np.eye(2))
    assert result.residual_norm < 1e-12


def test_steady_state_thermal_oscillator():
    p = SystemParams(omega_x=1.0, q_m=1e6, nbar=3.0)
    basis = MECH
    model = LinearGaussianModel.constant(
        basis,
        np.array([[0.0, 1.0], [-1.0, -p.gamma]]),
        np.diag([0.0, 2 * p.gamma * 7.0]),
        ModelDescriptor("thermal"),
        1.0,
    )
    v = steady_state(model).covariance.entries
    assert np.allclose(v, 7.0 * np.eye(2), atol=1e-9)


def test_steady_state_rejects_unstable_model(detuned):
    p = dataclasses.replace(detuned, lam=1.7)
    with pytest.raises(UnstableModelError):
        steady_state(build_eliminated_detuned(p))


def test_steady_state_rejects_time_dependent(detuned):
    p = dataclasses.replace(detuned, alpha=0.05)
    with pytest.raises(ParameterError):
        steady_state(build_full_modulated(p))


def test_stability_reports_eigenvalues(detuned):
    report = stability(build_full_cs(detuned))
    assert report.stable
    assert report.max_real_part < 0.0
    assert len(report.eigenvalues) == 4


def test_stability_refuses_periodic_models(resonant):
    # The t = 0 drift of a modulated model is no verdict on its Floquet
    # stability: at alpha = 1.2 it looks stable, yet the cycle map diverges.
    model = build_full_modulated(dataclasses.replace(resonant, alpha=1.2))
    with pytest.raises(ParameterError):
        stability(model)
    with pytest.raises(ParameterError):
        find_threshold(
            lambda a: build_full_modulated(dataclasses.replace(resonant, alpha=a)), (0.1, 1.2)
        )


def test_stability_at_threshold_is_marginal(detuned):
    p = dataclasses.replace(detuned, lam=threshold_coupling(detuned))
    report = stability(build_eliminated_detuned(p))
    assert abs(report.max_real_part) < 1e-9
    assert report.stable is (report.max_real_part < 0.0)


# ---------------------------------------------------------------------------
# find_threshold
# ---------------------------------------------------------------------------


def family(detuned):
    def build(lam: float) -> LinearGaussianModel:
        return build_eliminated_detuned(dataclasses.replace(detuned, lam=lam))

    return build


def test_find_threshold_matches_closed_form(detuned):
    found = find_threshold(family(detuned), (1.0, 2.0), tol=1e-8)
    assert found == pytest.approx(threshold_coupling(detuned), abs=1e-5)


def test_find_threshold_refines_under_tighter_tolerance(detuned):
    coarse = find_threshold(family(detuned), (1.0, 2.0), tol=1e-3)
    fine = find_threshold(family(detuned), (1.0, 2.0), tol=1e-9)
    assert abs(coarse - fine) <= 1e-3


def test_find_threshold_needs_a_sign_change(detuned):
    with pytest.raises(BracketError):
        find_threshold(family(detuned), (0.1, 0.5))


def test_find_threshold_rejects_bad_bracket(detuned):
    with pytest.raises(ParameterError):
        find_threshold(family(detuned), (2.0, 1.0))


# ---------------------------------------------------------------------------
# periodic_steady_state
# ---------------------------------------------------------------------------


def test_periodic_steady_state_reduces_to_fixed_point():
    model = damped_cavity()
    fixed = steady_state(model).covariance.entries
    cycle = periodic_steady_state(model, 2.0)
    assert cycle.spectral_radius < 1.0
    for v in cycle.covariances:
        assert np.max(np.abs(v - fixed)) < 1e-9


def test_periodic_steady_state_is_actually_periodic(resonant):
    p = dataclasses.replace(resonant, alpha=0.4, nbar=0.0)
    model = build_full_modulated(p)
    period = math.pi / p.omega_x
    cycle = periodic_steady_state(model, period)
    rerun = evolve(model, cycle.covariances[0], period, dt=0.0005)
    assert np.max(np.abs(rerun.covariances[-1] - cycle.covariances[0])) < 1e-6
    # Interior samples come from the same pass as the period map.
    k = int(np.argmin(np.abs(cycle.times - 0.25 * period)))
    quarter = evolve(model, cycle.covariances[0], cycle.times[k], dt=0.0005)
    assert np.max(np.abs(quarter.covariances[-1] - cycle.covariances[k])) < 1e-6


def test_periodic_steady_state_detects_parametric_instability(resonant):
    p = dataclasses.replace(resonant, alpha=0.6, nbar=0.0)
    with pytest.raises(UnstableModelError):
        periodic_steady_state(build_full_modulated(p), math.pi / p.omega_x)


def test_periodic_steady_state_rejects_bad_arguments():
    model = damped_cavity()
    with pytest.raises(ParameterError):
        periodic_steady_state(model, 0.0)
