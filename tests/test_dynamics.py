import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from levisqueeze.dynamics import (
    CHUNK_STEPS,
    DT_RESOLUTION,
    MAX_STORED,
    _constant_maps,
    _constant_parts,
    _generator,
    _halved_maps,
    _stable_points,
    _steady_states,
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
    QuadratureBasis,
    validate_covariance,
)
from levisqueeze.figures import detuned_params
from levisqueeze.metrics import vsq_trajectory
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


def test_ill_conditioned_transient_matches_an_extended_precision_reference():
    # fig2c's at-threshold series at its hottest start: v_sq = 36.3 is the
    # small eigenvalue of a covariance whose largest entry is 1.3e8 times
    # larger, so rounding is amplified by that factor.  The reference is a
    # 60-digit Van Loan matrix exponential: expm([[-A, N], [0, A^T]] t) has
    # e^(A^T t) as its lower right block F22 and F22^T F12 = int e^(As) N e^(A^T s).
    mpmath = pytest.importorskip("mpmath")
    base = detuned_params()
    p = base.with_value("lam", threshold_coupling(base)).with_value("nbar0", 1e6)
    model = build_full_cs(p)
    v0 = initial_covariance(p, model.basis)
    t_end = 100.0
    got = vsq_trajectory(evolve(model, v0, t_end))[-1]

    with mpmath.workdps(60):
        a, n = model.drift_at(0.0), model.diffusion_at(0.0)
        van_loan = mpmath.zeros(8, 8)
        for i in range(4):
            for j in range(4):
                van_loan[i, j] = -a[i, j]
                van_loan[i, j + 4] = n[i, j]
                van_loan[i + 4, j + 4] = a[j, i]
        blocks = mpmath.expm(van_loan * t_end)
        e = blocks[4:8, 4:8].T
        v = e * mpmath.matrix(v0.entries.tolist()) * e.T + e * blocks[0:4, 4:8]
        x, y = model.basis.index("x"), model.basis.index("p")
        half_gap = mpmath.sqrt(((v[x, x] - v[y, y]) / 2) ** 2 + v[x, y] ** 2)
        exact = (v[x, x] + v[y, y]) / 2 - half_gap
    assert float(exact) == pytest.approx(36.3007008, rel=1e-8)
    # The RK4 truncation error alone is 1.5e-6 here.
    assert abs(got - float(exact)) <= 2e-6 * float(exact)


def test_constant_path_matches_the_generic_stepper(rng):
    # The closed-form step map of a constant model against the RK4 stepper
    # that time-dependent models take, on the same random stable (A, N).
    # The long horizon stores every ninth step, which the constant path
    # reaches through a power of its step map.
    m = rng.normal(size=(4, 4))
    a = m - (np.max(np.linalg.eigvals(m).real) + 0.5) * np.eye(4)
    b = rng.normal(size=(4, 4))
    rate = float(np.max(np.abs(np.linalg.eigvals(a))))
    constant = LinearGaussianModel.constant(
        CAVITY_MECH, a, b @ b.T, rate
    )
    generic = dataclasses.replace(constant, is_time_independent=False)
    v0 = CovarianceMatrix(CAVITY_MECH, np.eye(4))
    for horizon, stride in ((20.0, 1), (400.0, 9)):
        fast = evolve(constant, v0, horizon / rate)
        slow = evolve(generic, v0, horizon / rate)
        assert fast.stats.stride == stride
        assert np.array_equal(fast.times, slow.times)
        assert fast.stats.max_step_error == pytest.approx(
            slow.stats.max_step_error, rel=1e-9, abs=0.0
        )
        for x, y in zip(fast.covariances, slow.covariances):
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_powered_samples_match_an_extended_precision_iteration():
    # fig2b's at-threshold transient amplifies rounding by about 1e4 in v_sq.
    # Iterating the float64 step map once per step is off by 2e-11 there;
    # the power taken in extended precision stays within 5e-12 of the same
    # iteration carried out in long double.
    base = detuned_params()
    p = base.with_value("lam", threshold_coupling(base))
    model = build_full_cs(p)
    v0 = initial_covariance(p, model.basis).entries
    result = evolve(model, v0, 100.0)
    step_map, _ = _constant_maps(model, result.stats.dt, 4, _halved_maps)
    step_map = step_map.astype(np.longdouble)
    vec = np.append(v0.ravel(), 1.0).astype(np.longdouble)
    exact = [vec]
    for step in range(1, result.stats.n_steps + 1):
        vec = step_map @ vec
        if step % result.stats.stride == 0 or step == result.stats.n_steps:
            exact.append(vec)
    exact = np.array(exact, dtype=float)[:, :-1].reshape(-1, 4, 4)
    got = np.linalg.eigvalsh(result.covariances[:, 2:, 2:])[:, 0]
    want = np.linalg.eigvalsh(exact[:, 2:, 2:])[:, 0]
    assert np.max(np.abs(got - want) / want) <= 5e-12


def test_time_dependent_evolve_matches_an_adaptive_solver(detuned):
    p = dataclasses.replace(detuned, gamma=1e-4, nbar=10.0, nbar0=1.5, alpha=0.3, phi=0.8)
    model = build_full_modulated(p)
    v0 = initial_covariance(p, model.basis).entries

    def flow(t, x):
        a, v = model.drift_at(t), x.reshape(4, 4)
        return (a @ v + v @ a.T + model.diffusion_at(t)).ravel()

    t_end = 2.0
    ref = scipy.integrate.solve_ivp(
        flow, (0.0, t_end), v0.ravel(), method="DOP853", rtol=1e-13, atol=1e-13
    )
    got = evolve(model, v0, t_end).covariances[-1].ravel()
    exact = ref.y[:, -1]
    assert np.max(np.abs(got - exact)) <= 1e-8 * np.max(np.abs(exact))


def counted(model: LinearGaussianModel) -> tuple[LinearGaussianModel, list[float]]:
    calls: list[float] = []

    def drift_at(t):
        calls.append(t)
        return model.drift_at(t)

    return dataclasses.replace(model, drift_at=drift_at), calls


def test_stepping_samples_the_drift_once_per_stage_time(resonant):
    # evolve samples every quarter step (two half steps plus the full step),
    # periodic_steady_state every half step; each chunk of CHUNK_STEPS steps
    # samples its own endpoints.
    model, calls = counted(build_full_modulated(dataclasses.replace(resonant, alpha=0.4)))
    result = evolve(model, np.eye(4), 1.0)
    n = result.stats.n_steps
    assert len(calls) == 4 * n + math.ceil(n / CHUNK_STEPS)
    calls.clear()
    period = math.pi / resonant.omega_x
    periodic_steady_state(model, period)
    n = math.ceil(period * model.fastest_rate / DT_RESOLUTION)
    assert len(calls) == 2 * n + math.ceil(n / CHUNK_STEPS)
    constant, calls = counted(build_full_cs(resonant))
    evolve(constant, np.eye(4), 1.0)
    periodic_steady_state(constant, period)
    assert len(calls) == 2


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
        MECH, 50.0 * np.eye(2), np.eye(2), 50.0
    )


def test_evolve_reports_divergence_time():
    with pytest.raises(NumericalError, match=r"covariance diverged at t = 7\.0992"):
        evolve(growing_model(), np.eye(2), 8.0)
    # Both paths step by the same maps, so the time-dependent copy diverges
    # with the state, at the first stored step after ln(DBL_MAX) / 100.
    generic = dataclasses.replace(growing_model(), is_time_independent=False)
    with pytest.raises(NumericalError, match=r"covariance diverged at t = 7\.0992"):
        evolve(generic, np.eye(2), 7.5)


def test_step_error_is_reported_before_a_later_divergence():
    # V22 = 1e-6 exp(10 t) is resolved too coarsely: its step-halving error,
    # relative to V11 = 1e6, passes the limit near t = 2.7, long before the
    # state overflows.  Both paths report the first sample past the limit.
    model = LinearGaussianModel.constant(
        MECH, np.diag([0.0, 5.0]), np.zeros((2, 2)), 5.0
    )
    generic = dataclasses.replace(model, is_time_independent=False)
    v0 = np.diag([1e6, 1e-6])
    messages = []
    for m in (model, generic):
        with pytest.raises(IntegrationError, match="step-halving error") as info:
            evolve(m, v0, 100.0, dt=0.02)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    t = float(messages[0].split("at t = ")[1].split(";")[0])
    assert 1.0 < t < 5.0


def test_varying_steps_stop_after_a_step_error():
    # The time-dependent copy of the stiff model above stops stepping after
    # the chunk in which its step-halving error passes the limit, and still
    # reports the same sample and maximum as the constant path.
    model = LinearGaussianModel.constant(
        MECH, np.diag([0.0, 5.0]), np.zeros((2, 2)), 5.0
    )
    calls = []

    def counted(t):
        calls.append(t)
        return model.drift_at(t)

    generic = dataclasses.replace(model, drift_at=counted, is_time_independent=False)
    v0 = np.diag([1e6, 1e-6])
    messages = []
    for m in (model, generic):
        with pytest.raises(IntegrationError, match="step-halving error") as info:
            evolve(m, v0, 100.0, dt=0.02)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "at t = 2.72;" in messages[1]
    steps_to_error = round(2.72 / 0.02)
    # Four samples per step, and one closing sample per chunk of CHUNK_STEPS.
    assert len(calls) <= 4 * (steps_to_error + CHUNK_STEPS) + 4


def test_max_step_error_is_the_running_maximum():
    # The defect of the relaxing cavity shrinks with time, so a longer run on
    # the same grid reports the maximum of the shorter one.
    model, v0 = damped_cavity(kappa=0.7), vac(4.0 * np.eye(2))
    short = evolve(model, v0, 1.0, dt=0.01)
    long = evolve(model, v0, 3.0, dt=0.01)
    assert short.stats.dt == long.stats.dt
    assert long.stats.max_step_error == short.stats.max_step_error > 0.0


def test_evolve_rejects_non_positive_diagonal():
    # Negative diffusion drives V(t) = 3 exp(-2t) - 2 below zero.
    model = LinearGaussianModel.constant(
        MECH, -np.eye(2), -4.0 * np.eye(2), 1.0
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


def _tilted_cavity(shift: float) -> LinearGaussianModel:
    return LinearGaussianModel.constant(
        MECH,
        np.array([[-1.0, shift], [-shift, -1.0]]),
        2.0 * np.eye(2),
        1.0,
    )


def test_singular_point_fails_alone_in_a_stacked_solve(monkeypatch):
    # A stacked solve raises for the whole stack when one system is
    # singular; the stack is then solved point by point, so only that point
    # fails, with the message steady_state gives for it.
    models = [_tilted_cavity(s) for s in (0.0, 0.5, 1.0)]
    singular = _generator(np.asarray(models[1].drift_at(0.0)))
    real_solve = np.linalg.solve

    def solve(a, b):
        if np.any(np.all(a == singular, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    direct = [steady_state(models[i]) for i in (0, 2)]
    monkeypatch.setattr(np.linalg, "solve", solve)
    stack = _steady_states(*_constant_parts(models))
    assert [type(e) for e in stack.errors] == [type(None), NumericalError, type(None)]
    with pytest.raises(NumericalError) as info:
        steady_state(models[1])
    assert str(stack.errors[1]) == str(info.value) == "singular Lyapunov system: Singular matrix"
    assert isinstance(stack.errors[1].__cause__, np.linalg.LinAlgError)
    for got, want, res in zip(stack.covariances, direct, stack.residuals):
        assert np.array_equal(got, want.covariance.entries)
        assert res == want.residual_norm


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


def test_stability_verdicts_read_no_diffusion(detuned):
    # A verdict needs the drift only; a diffusion that cannot be built must
    # not stop it.
    def no_diffusion(t):
        raise AssertionError("diffusion_at called")

    built = [build_full_cs(detuned.with_value("lam", lam)) for lam in (0.3, 3.0)]
    models = [dataclasses.replace(model, diffusion_at=no_diffusion) for model in built]
    assert _stable_points(models).tolist() == [True, False]
    assert [stability(model).stable for model in models] == [True, False]


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
