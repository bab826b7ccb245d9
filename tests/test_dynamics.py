import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from numpy.typing import NDArray

from levisqueeze.dynamics import (
    CHUNK_MODEL_STEPS,
    CHUNK_STEPS,
    DT_RESOLUTION,
    MAX_BISECTIONS,
    MAX_STORED,
    _bisect_brackets,
    _constant_maps,
    _constant_parts,
    _constant_steps,
    _generator,
    _hurwitz,
    _periodic_states,
    _rk4_maps,
    _stable_points,
    _steady_states,
    _step_grid,
    _stored_steps,
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
    PHYSICALITY_TOL,
    CovarianceMatrix,
    LinearGaussianModel,
    uncertainty_floor,
)
from levisqueeze.figures import detuned_params, modulation_instabilities
from levisqueeze.metrics import vsq_trajectory
from levisqueeze.montecarlo import EnsembleSpec
from levisqueeze.models import (
    SystemParams,
    bogoliubov_stack,
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


@functools.cache
def at_threshold_vsq() -> tuple[float, float]:
    """fig2c's at-threshold v_sq at t = 100 from evolve, and its 60-digit reference.

    The sample is fig2c's hottest start: v_sq = 36.3 is the small eigenvalue
    of a covariance whose largest entry is 1.3e8 times larger, so rounding
    is amplified by that factor.  The reference is a 60-digit Van Loan
    matrix exponential: expm([[-A, N], [0, A^T]] t) has e^(A^T t) as its
    lower right block F22 and F22^T F12 = int e^(As) N e^(A^T s).
    """
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
    return float(got), float(exact)


def test_ill_conditioned_transient_matches_an_extended_precision_reference():
    got, exact = at_threshold_vsq()
    assert exact == pytest.approx(36.3007008, rel=1e-8)
    assert abs(got - exact) <= 2e-6 * exact


def test_constant_step_map_is_built_in_extended_precision():
    # The RK4 truncation error alone is 2.4e-13 here: carried exactly, a
    # step map rounded to float64 is 5.7e-7 off at its 50000th power.  Built
    # in extended precision, the map leaves about 1e-9.
    got, exact = at_threshold_vsq()
    assert abs(got - exact) <= 1e-8 * exact


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_rk4_map_of_a_constant_generator_is_the_quartic_taylor_series(rng, dtype):
    g = rng.normal(size=(5, 5)).astype(dtype)
    h = dtype(0.3)
    term, series = np.eye(5, dtype=dtype), np.eye(5, dtype=dtype)
    for k in range(1, 5):
        term = term @ (h * g) / dtype(k)
        series = series + term
    got = _rk4_maps(g, g, g, h)
    assert got.dtype == dtype
    assert np.max(np.abs(got - series)) <= 64 * np.finfo(dtype).eps * np.max(np.abs(series))


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
    step_map, _ = _constant_maps(model, result.stats.dt)
    vec = vech_state(v0).astype(np.longdouble)
    exact = [vec]
    for step in range(1, result.stats.n_steps + 1):
        vec = step_map @ vec
        if step % result.stats.stride == 0 or step == result.stats.n_steps:
            exact.append(vec)
    exact = covariances_of(np.array(exact, dtype=float))
    got = np.linalg.eigvalsh(result.covariances[:, 2:, 2:])[:, 0]
    want = np.linalg.eigvalsh(exact[:, 2:, 2:])[:, 0]
    assert np.max(np.abs(got - want) / want) <= 5e-12


def vech_state(v0) -> np.ndarray:
    """The (vech V, 1) state of a covariance: its upper triangle, row by row, and a one."""
    rows, cols = np.triu_indices(len(v0))
    return np.append(np.asarray(v0)[rows, cols], 1.0)


def covariances_of(states: np.ndarray) -> np.ndarray:
    """The symmetric (n, 4, 4) covariances of stacked (vech V, 1) states."""
    rows, cols = np.triu_indices(4)
    covs = np.empty((len(states), 4, 4))
    covs[:, rows, cols] = covs[:, cols, rows] = states[:, :-1]
    return covs


def stored_steps(stats) -> list[int]:
    """The steps at which evolve stores a sample: every stride-th one and the last."""
    stored = list(range(0, stats.n_steps + stats.stride, stats.stride))
    stored[-1] = stats.n_steps
    return stored


def extended_iteration(model, v0s, dt, steps) -> np.ndarray:
    """(vech V, 1) states at the given steps of size dt, (len(steps) + 1, D, len(v0s)).

    Every start is carried step by step through the step map in long double;
    the first row holds the starts.
    """
    step_map, _ = _constant_maps(model, dt)
    vecs = np.array([vech_state(v0) for v0 in v0s], dtype=np.longdouble).T
    states, wanted = [vecs], set(steps)
    for step in range(1, max(steps) + 1):
        vecs = step_map @ vecs
        if step in wanted:
            states.append(vecs)
    return np.array(states, dtype=float)


def per_sample_states(model, v0, stats) -> np.ndarray:
    """Stored (vech V, 1) states as a loop over the samples reaches them.

    A power of the step map, taken in long double and rounded, brings each
    sample to one step before the next stored step, and one float64 step
    lands on it.
    """
    step_map, _ = _constant_maps(model, stats.dt)
    stored = stored_steps(stats)
    powers = {
        k: np.linalg.matrix_power(step_map, k).astype(float)
        for k in {step - prev - 1 for prev, step in zip(stored, stored[1:])}
    }
    step_map = step_map.astype(float)
    vec = vech_state(v0)
    states = [vec]
    for prev, step in zip(stored, stored[1:]):
        vec = step_map @ (powers[step - prev - 1] @ vec)
        states.append(vec)
    return np.array(states)


def random_constant_model(rng) -> LinearGaussianModel:
    """A random stable constant model on the cavity-mechanics basis."""
    m = rng.normal(size=(4, 4))
    a = m - (np.max(np.linalg.eigvals(m).real) + 0.5) * np.eye(4)
    b = rng.normal(size=(4, 4))
    rate = float(np.max(np.abs(np.linalg.eigvals(a))))
    return LinearGaussianModel.constant(CAVITY_MECH, a, b @ b.T, rate)


def assert_matches_extended_iteration(model, v0, result) -> None:
    stats = result.stats
    want = extended_iteration(model, [v0], stats.dt, stored_steps(stats)[1:])
    want = covariances_of(want[:, :, 0])
    scale = np.max(np.abs(want), axis=(1, 2))
    assert np.max(np.max(np.abs(result.covariances - want), axis=(1, 2)) / scale) <= 5e-12


@pytest.mark.parametrize("n_steps", [1, 2, 3, 63, 64, 65, 131])
def test_doubling_rounds_match_an_extended_precision_iteration(rng, n_steps):
    # At stride 1 every step is stored and the doubling rounds map the first
    # m samples through the step map to the power m = 1, 2, 4, ...; the
    # counts end a round early, on its last sample and one past it.
    model = random_constant_model(rng)
    v0 = np.eye(4)
    dt = DT_RESOLUTION / model.fastest_rate
    result = evolve(model, v0, n_steps * dt, dt=dt)
    assert result.stats.stride == 1 and result.stats.n_stored == n_steps + 1
    assert_matches_extended_iteration(model, v0, result)


@pytest.mark.parametrize(("n_steps", "stride", "last"), [(5001, 2, 1), (10001, 3, 2)])
def test_short_last_interval_matches_an_extended_precision_iteration(rng, n_steps, stride, last):
    # The last stored step lies closer than a stride to the one before; it
    # is reached by its own power.  Every step-halving defect acts on the
    # state one step before its stored step, as on the time-dependent path.
    model = random_constant_model(rng)
    v0 = np.eye(4)
    t_end = 20.0 / model.fastest_rate
    result = evolve(model, v0, t_end, dt=t_end / n_steps)
    stored = stored_steps(result.stats)
    assert (result.stats.n_steps, result.stats.stride) == (n_steps, stride)
    assert stored[-1] - stored[-2] == last
    assert_matches_extended_iteration(model, v0, result)

    h = result.stats.dt
    states = np.empty((len(stored), vech_state(v0).size))
    states[0] = vech_state(v0)
    defects = _constant_steps(model, h, stored, states)[1:]
    _, defect = _constant_maps(model, h)
    before = extended_iteration(model, [v0], h, [step - 1 for step in stored[1:]])[1:, :, 0]
    want = before @ defect.T
    assert np.all(np.max(np.abs(defects - want), axis=1) <= 1e-10 * np.max(np.abs(want), axis=1))


def vsq_of_states(states: np.ndarray) -> np.ndarray:
    """Smallest mechanical eigen-variance of stored (vech V, 1) states of the full model."""
    return np.linalg.eigvalsh(covariances_of(states)[:, 2:, 2:])[:, 0]


def test_doubling_fill_is_no_less_accurate_than_a_per_sample_loop():
    # fig2a's model and fig2c's at-threshold models over fig2c's nbar0 grid
    # (at points=7).  Rounding is amplified most at threshold from a hot
    # start; the doubling fill's worst v_sq deviation from the long-double
    # iteration stays at or below that of a loop with one float64 step per
    # stored sample, and within 1e-9 on both series.
    base = detuned_params()
    at_threshold = base.with_value("lam", threshold_coupling(base))
    grid = np.concatenate([[0.0], np.geomspace(1e-2, 1e6, 6)])
    for params in ([base], [at_threshold.with_value("nbar0", n0) for n0 in grid]):
        model = build_full_cs(params[0])
        v0s = [initial_covariance(p, model.basis).entries for p in params]
        results = [evolve(model, v0, 100.0) for v0 in v0s]
        stats = results[0].stats
        exact = extended_iteration(model, v0s, stats.dt, stored_steps(stats)[1:])
        for k, (v0, result) in enumerate(zip(v0s, results)):
            want = vsq_of_states(exact[:, :, k])
            loop = vsq_of_states(per_sample_states(model, v0, result.stats))
            got = np.linalg.eigvalsh(result.covariances[:, 2:, 2:])[:, 0]
            deviation = np.max(np.abs(got - want) / want)
            assert deviation <= min(1e-9, np.max(np.abs(loop - want) / want))


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


def counted(
    model: LinearGaussianModel,
) -> tuple[LinearGaussianModel, list[NDArray[np.float64]]]:
    """The model with each drift_at call's times recorded, one array per call."""
    calls: list[NDArray[np.float64]] = []

    def drift_at(t):
        calls.append(np.atleast_1d(t))
        return model.drift_at(t)

    return dataclasses.replace(model, drift_at=drift_at), calls


def stage_grid(n: int, per_step: int, h: float, chunk: int = CHUNK_STEPS) -> NDArray[np.float64]:
    """Stage times of n steps sampled per_step times a step, each chunk with its endpoints."""
    return np.concatenate(
        [
            np.arange(per_step * first, per_step * min(first + chunk, n) + 1) * (h / per_step)
            for first in range(0, n, chunk)
        ]
    )


def test_stepping_samples_the_drift_once_per_stage_time(resonant):
    # evolve samples every quarter step (two half steps plus the full step),
    # periodic_steady_state every half step; each chunk samples its own
    # endpoints, in one drift_at call per model.  evolve's chunks are
    # CHUNK_STEPS steps, a periodic stack's max(CHUNK_STEPS,
    # CHUNK_MODEL_STEPS // k) for k models.  A constant model's evolve
    # samples once, but its periodic_steady_state samples it as a
    # time-dependent one.
    model, calls = counted(build_full_modulated(dataclasses.replace(resonant, alpha=0.4)))
    result = evolve(model, np.eye(4), 1.0)
    n = result.stats.n_steps
    sampled = np.concatenate(calls)
    assert len(sampled) == 4 * n + math.ceil(n / CHUNK_STEPS)
    assert np.array_equal(sampled, stage_grid(n, 4, result.stats.dt))
    assert len(calls) == math.ceil(n / CHUNK_STEPS)
    period = math.pi / resonant.omega_x
    n = math.ceil(period * model.fastest_rate / DT_RESOLUTION)
    for k in (1, 3, 24, 30):
        calls.clear()
        chunk = max(CHUNK_STEPS, CHUNK_MODEL_STEPS // k)
        assert k < 24 or chunk == CHUNK_STEPS
        _periodic_states([model] * k, period)
        # Every call of the k models is recorded, in model order within a chunk.
        assert len(calls) == k * math.ceil(n / chunk)
        sampled = np.concatenate(calls[::k])
        assert len(sampled) == 2 * n + math.ceil(n / chunk)
        assert np.array_equal(sampled, stage_grid(n, 2, period / n, chunk))
        assert all(np.array_equal(c, calls[i - i % k]) for i, c in enumerate(calls))
    constant, calls = counted(build_full_cs(resonant))
    evolve(constant, np.eye(4), 1.0)
    assert sum(map(len, calls)) == len(calls) == 1
    periodic_steady_state(constant, period)
    n = math.ceil(period * constant.fastest_rate / DT_RESOLUTION)
    chunk = CHUNK_MODEL_STEPS
    assert sum(map(len, calls)) == 1 + 2 * n + math.ceil(n / chunk)
    assert len(calls) == 1 + math.ceil(n / chunk)


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


STEP_GRID_CALLS = {
    "evolve-t_end": lambda bad: evolve(damped_cavity(), vac(np.eye(2)), bad),
    "evolve-dt": lambda bad: evolve(damped_cavity(), vac(np.eye(2)), 1.0, dt=bad),
    "periodic-period": lambda bad: periodic_steady_state(damped_cavity(), bad),
    "ensemble-t_end": lambda bad: EnsembleSpec(n_traj=100, t_end=bad, dt=0.01, seed=0),
    "ensemble-dt": lambda bad: EnsembleSpec(n_traj=100, t_end=1.0, dt=bad, seed=0),
}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(functools.partial(call, bad), id=f"{name}-{bad}")
        for name, call in STEP_GRID_CALLS.items()
        for bad in (math.nan, math.inf, -math.inf)
    ]
    + [
        # Finite spans and steps whose ratio, the step count, overflows.
        pytest.param(
            lambda: evolve(damped_cavity(), vac(np.eye(2)), 1e300, 1e-300), id="evolve-ratio"
        ),
        pytest.param(lambda: EnsembleSpec(100, 1e300, 1e-300, 0), id="ensemble-ratio"),
    ],
)
def test_non_finite_span_or_step_is_refused(call):
    # One check on the shared step grid; NaN, inf and an overflowing step
    # count used to escape as ValueError, OverflowError or a late
    # IntegrationError.
    with pytest.raises(ParameterError, match="positive and finite"):
        call()


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
    assert np.all(uncertainty_floor(result.covariances, result.basis) >= -PHYSICALITY_TOL)


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


def stiff_model() -> LinearGaussianModel:
    # V22 = 1e-6 exp(10 t) against V11 = 1e6: the step-halving error passes
    # the limit at dt = 0.02 near t = 2.7.
    return LinearGaussianModel.constant(MECH, np.diag([0.0, 5.0]), np.zeros((2, 2)), 5.0)


def test_step_error_is_reported_before_a_later_divergence():
    # V22 = 1e-6 exp(10 t) is resolved too coarsely: its step-halving error,
    # relative to V11 = 1e6, passes the limit near t = 2.7, long before the
    # state overflows.  Both paths report the first sample past the limit.
    model = stiff_model()
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
    model = stiff_model()
    calls = []

    def counted(t):
        calls.append(np.size(t))
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
    # Four sampled times per step, and one closing time per chunk of CHUNK_STEPS.
    assert sum(calls) <= 4 * (steps_to_error + CHUNK_STEPS) + 4


@pytest.mark.parametrize(
    ("model", "v0", "t_end", "dt", "error"),
    [
        (growing_model(), np.eye(2), 7.2, 1e-3, NumericalError),
        (stiff_model(), np.diag([1e6, 1e-6]), 100.0, 0.02, IntegrationError),
    ],
    ids=["divergence", "step-halving"],
)
def test_failure_inside_a_doubling_round_matches_the_time_dependent_path(
    model, v0, t_end, dt, error
):
    generic = dataclasses.replace(model, is_time_independent=False)
    messages = []
    for m in (model, generic):
        with pytest.raises(error) as info:
            evolve(m, v0, t_end, dt=dt)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    # The failing sample, stored sample k, is not the first of its doubling
    # round: k is not a power of two, so it is reached by several products.
    n_steps, h = _step_grid(t_end, dt)
    stride = math.ceil(n_steps / (MAX_STORED - 2))
    t = float(messages[0].split("at t = ")[1].split(";")[0])
    k = round(t / (stride * h))
    assert k & (k - 1) != 0


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


def test_evolve_samples_are_exactly_symmetric(detuned):
    # Both paths carry the upper triangle of V and unpack it into both
    # halves of every stored sample.
    modulated = dataclasses.replace(detuned, gamma=1e-4, nbar0=1.5, alpha=0.3, phi=0.8)
    runs = ((build_full_cs(detuned), detuned), (build_full_modulated(modulated), modulated))
    for model, p in runs:
        covs = evolve(model, initial_covariance(p, model.basis), 2.0).covariances
        assert np.array_equal(covs, np.swapaxes(covs, 1, 2))
        assert np.any(covs != np.diagonal(covs, axis1=1, axis2=2)[:, :, None] * np.eye(4))


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


def test_generator_is_the_eliminated_kronecker_sum(rng):
    # E (kron(A, I) + kron(I, A)) D on vech V, the upper triangle of V row
    # by row: the elimination E keeps those rows of the row-major vec and
    # the duplication D maps vech V back to vec V.
    for d in (2, 4):
        pairs = [(i, j) for i in range(d) for j in range(i, d)]
        elimination, duplication = np.zeros((len(pairs), d * d)), np.zeros((d * d, len(pairs)))
        for k, (i, j) in enumerate(pairs):
            elimination[k, i * d + j] = duplication[i * d + j, k] = duplication[j * d + i, k] = 1.0
        drifts, eye = rng.normal(size=(3, 5, d, d)), np.eye(d)
        want = [
            [elimination @ (np.kron(a, eye) + np.kron(eye, a)) @ duplication for a in row]
            for row in drifts
        ]
        gens = _generator(drifts)
        assert gens.shape == (3, 5, len(pairs), len(pairs))
        assert np.array_equal(gens, np.array(want))
        # It acts on a symmetric V as V -> A V + V A^T does.
        b = rng.normal(size=(d, d))
        v, a = b @ b.T, drifts[0, 0]
        flow = a @ v + v @ a.T
        got = gens[0, 0] @ np.array([v[i, j] for i, j in pairs])
        assert np.allclose(got, [flow[i, j] for i, j in pairs], rtol=1e-13, atol=1e-13)


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


def test_a_mixed_stack_fails_each_point_as_steady_state_does(monkeypatch):
    # One stack of an ok point, an unstable one, a singular one, a
    # non-finite one, one above the residual tolerance and a second ok one:
    # each failed point keeps the error type and message steady_state gives
    # it alone, and the ok points' covariances match it bit for bit.
    models = [
        _tilted_cavity(0.0),
        LinearGaussianModel.constant(MECH, 0.1 * np.eye(2), 2.0 * np.eye(2), 1.0),
        _tilted_cavity(0.5),
        LinearGaussianModel.constant(MECH, -1e-10 * np.eye(2), 1e300 * np.eye(2), 1.0),
        _tilted_cavity(2.0),
        _tilted_cavity(1.0),
    ]
    singular, off = (_generator(np.asarray(models[i].drift_at(0.0))) for i in (2, 4))
    real_solve = np.linalg.solve

    def solve(a, b):
        # Singular on one generator; (1 + 1e-6) times the solution on another,
        # in a stacked and in a one-point solve alike.
        if np.any(np.all(a == singular, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Singular matrix")
        x = real_solve(a, b)
        return np.where(np.all(a == off, axis=(-2, -1))[..., None, None], x * (1.0 + 1e-6), x)

    monkeypatch.setattr(np.linalg, "solve", solve)
    stack = _steady_states(*_constant_parts(models))
    alone = []
    for model in models:
        try:
            alone.append(steady_state(model))
        except (NumericalError, UnstableModelError) as exc:
            alone.append(exc)
    kinds = [type(e) for e in stack.errors]
    assert kinds == [type(None), UnstableModelError] + [NumericalError] * 3 + [type(None)]
    assert str(stack.errors[2]) == "singular Lyapunov system: Singular matrix"
    assert str(stack.errors[3]) == "non-finite steady-state solution"
    assert str(stack.errors[4]).startswith("steady-state residual ")
    for error, want in zip(stack.errors, alone):
        if error is not None:
            assert type(error) is type(want) and str(error) == str(want)
    ok = [want for want in alone if not isinstance(want, Exception)]
    assert len(ok) == len(stack.covariances) == 2
    for got, want, res in zip(stack.covariances, ok, stack.residuals):
        assert np.array_equal(got, want.covariance.entries)
        assert res == want.residual_norm


def test_a_non_finite_steady_state_is_refused():
    # A barely damped pair under enormous noise settles at V = N / 2e-10,
    # beyond the float range, in the constant solve and the period map alike.
    model = LinearGaussianModel.constant(MECH, -1e-10 * np.eye(2), 1e300 * np.eye(2), 1.0)
    with pytest.raises(NumericalError, match="^non-finite steady-state solution$"):
        steady_state(model)
    with pytest.raises(NumericalError, match="^non-finite periodic steady state$"):
        periodic_steady_state(model, math.pi)


def test_a_solve_above_the_residual_tolerance_is_refused(monkeypatch):
    # V = I solves the damped cavity; a solve that returns (1 + 1e-6) I
    # leaves a residual of 4e-6 against a tolerance of about 2e-10.
    real_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: real_solve(a, b) * (1.0 + 1e-6))
    with pytest.raises(NumericalError, match=r"^steady-state residual \S+ above tolerance \S+$"):
        steady_state(damped_cavity())


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


def _spectral_verdicts(drifts) -> NDArray[np.bool_]:
    return np.max(np.linalg.eigvals(drifts).real, axis=-1) < 0.0


def _same_verdicts(drifts) -> NDArray[np.bool_]:
    """Assert that _hurwitz gives max Re(eig) < 0 on drifts, also scaled by 1e8 and 1e-8."""
    want = _spectral_verdicts(drifts)
    for scale in (1.0, 1e8, 1e-8):
        assert np.array_equal(_hurwitz(scale * drifts), want)
    return want


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hurwitz_verdict_is_the_spectral_one_on_random_drifts(rng, d):
    # Shifting by -I and -2I puts more of the drifts on the stable side.
    shifts = np.array([0.0, 1.0, 2.0])[:, None, None, None] * np.eye(d)
    want = _same_verdicts(rng.normal(size=(3, 4000, d, d)) - shifts)
    assert 0 < np.count_nonzero(want) < want.size


def test_hurwitz_verdict_is_the_spectral_one_across_model_onsets(detuned, resonant):
    # Each family on a coarse grid through its onset and at a spacing of
    # 1e-7 within 1e-4 of it.
    near = np.linspace(-1e-4, 1e-4, 2001)
    full_onset = find_threshold(
        lambda lam: build_full_cs(detuned.with_value("lam", lam)), (1.0, 2.0), tol=1e-12
    )
    for build, onset in (
        (build_full_cs, full_onset),
        (build_eliminated_detuned, threshold_coupling(detuned)),
    ):
        lams = np.concatenate([np.linspace(0.01, 3.0, 300), onset + near])
        drifts = np.array([build(detuned.with_value("lam", lam)).drift_at(0.0) for lam in lams])
        want = _same_verdicts(drifts)
        assert want[:300].any() and not want[:300].all()
    rows = [resonant.with_value("q_m", q_m) for q_m in (1e4, 1e9, 1e12)]
    onsets = modulation_instabilities(rows)
    depths = [np.concatenate([np.linspace(0.0, 1.95, 400), onset + near]) for onset in onsets]
    want = _same_verdicts(bogoliubov_stack(rows, depths)[0])
    assert want[:, :400].any(axis=1).all() and not want[:, :400].all(axis=1).any()


@pytest.mark.parametrize("d", [2, 4])
def test_hurwitz_judges_a_lone_drift_as_in_a_stack(rng, d):
    # A lone drift is judged on numpy scalars, a stack on arrays; the
    # verdicts agree bit for bit, on scaled, zero and marginal drifts too,
    # and keep the shape of the stack.
    shifts = np.array([0.0, 1.0, 2.0])[:, None, None, None] * np.eye(d)
    rotation = np.diag([0.0, 0.0] + [-2.0] * (d - 2))
    rotation[0, 1], rotation[1, 0] = 1.0, -1.0
    marginal = [np.zeros((d, d)), rotation, np.diag([-1.0] * (d - 1) + [0.0])]
    drifts = (rng.normal(size=(3, 300, d, d)) - shifts).reshape(-1, d, d)
    drifts = np.concatenate([drifts, marginal])
    for scale in (1.0, 1e8, 1e-8):
        stacked = _hurwitz(scale * drifts)
        for drift, want in zip(scale * drifts, stacked.tolist()):
            for shape in ((d, d), (1, d, d), (1, 1, d, d)):
                got = _hurwitz(drift.reshape(shape))
                assert got.shape == shape[:-2] and got.item() is want
    assert not stacked[-3:].any() and 0 < np.count_nonzero(stacked) < len(drifts) - 3


def test_marginal_drifts_are_unstable_without_a_warning():
    # A zero pivot of the Routh array gives False; pytest turns a warning
    # into an error.
    rotation = np.diag([0.0, 0.0, -1.0, -2.0])
    rotation[0, 1], rotation[1, 0] = 1.0, -1.0
    drifts = [np.zeros((4, 4)), rotation, np.diag([-1.0, -2.0, -3.0, 0.0]), -np.eye(4)]
    assert _hurwitz(np.array(drifts)).tolist() == [False, False, False, True]
    assert _spectral_verdicts(np.array(drifts)).tolist() == [False, False, False, True]
    for drift in (np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]], [[-1.0, 1.0], [0.0, 0.0]]):
        assert not _hurwitz(np.asarray(drift))


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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_find_threshold_refuses_a_tolerance_that_is_not_positive(detuned, tol):
    # Such a tolerance is never met, so every bisection step would run.
    with pytest.raises(ParameterError, match="tolerance must be positive"):
        find_threshold(family(detuned), (1.0, 2.0), tol=tol)


def test_find_threshold_refuses_an_infinite_tolerance(detuned):
    # Such a tolerance is met at once: the bracket midpoint would come back
    # without a single bisection step.
    with pytest.raises(ParameterError, match="tolerance must be finite, got inf"):
        find_threshold(family(detuned), (1.0, 2.0), tol=math.inf)


def test_lockstep_bisection_equals_find_threshold_per_bracket(detuned):
    rows = [dataclasses.replace(detuned, kappa=kappa) for kappa in (0.1, 0.2, 0.5)]
    brackets = [(1.0, 2.0), (1.0, 3.0), (1.5, 1.7)]
    open_brackets = []

    def stable_at(which, lams):
        open_brackets.append(len(which))
        models = [family(rows[i])(lam) for i, lam in zip(which.tolist(), lams.tolist())]
        return _stable_points(models)

    lo, hi = zip(*brackets)
    found = _bisect_brackets(stable_at, lo, hi, [True] * 3, lambda _: 1e-9)
    expected = [find_threshold(family(row), b, tol=1e-9) for row, b in zip(rows, brackets)]
    assert found.tolist() == expected
    # Narrower brackets finish first; the widest one sets the step count.
    assert open_brackets[0] == 3 and open_brackets[-1] == 1
    assert open_brackets == sorted(open_brackets, reverse=True)


def test_lockstep_bisection_stops_after_max_bisections(detuned):
    steps = []

    def stable_at(which, lams):
        steps.append(len(which))
        return _stable_points([family(detuned)(lam) for lam in lams.tolist()])

    found = _bisect_brackets(stable_at, [1.0], [2.0], [True], lambda _: 0.0)
    assert len(steps) == MAX_BISECTIONS
    assert found[0] == pytest.approx(threshold_coupling(detuned), abs=1e-9)


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


def dop853_orbit_start(model, period: float) -> np.ndarray:
    """V0 from a DOP853 monodromy: Phi' = A Phi and Q' = A Q + Q A^T + N over one period."""
    d = model.basis.dim

    def joint(t, y):
        a, phi, q = model.drift_at(t), y[: d * d].reshape(d, d), y[d * d :].reshape(d, d)
        return np.concatenate([(a @ phi).ravel(), (a @ q + q @ a.T + model.diffusion_at(t)).ravel()])

    y0 = np.concatenate([np.eye(d).ravel(), np.zeros(d * d)])
    sol = scipy.integrate.solve_ivp(
        joint, (0.0, period), y0, method="DOP853", rtol=1e-12, atol=1e-13
    )
    phi, q = sol.y[: d * d, -1].reshape(d, d), sol.y[d * d :, -1].reshape(d, d)
    return scipy.linalg.solve_discrete_lyapunov(phi, 0.5 * (q + q.T))


def test_periodic_steady_state_matches_a_dop853_monodromy(resonant):
    p = dataclasses.replace(resonant, alpha=0.4)
    model = build_full_modulated(p)
    period = math.pi / p.omega_x
    want = dop853_orbit_start(model, period)
    got = periodic_steady_state(model, period).covariances[0]
    assert np.max(np.abs(got - want)) <= 2e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha", [0.4, 0.1])
def test_every_cycle_sample_matches_a_dop853_orbit(resonant, alpha):
    # The interior samples come from the stepped Phi and Q, not from V0 alone:
    # each must lie on the DOP853 orbit of the Lyapunov flow from the DOP853 V0.
    model = build_full_modulated(resonant.with_value("alpha", alpha))
    period = math.pi / resonant.omega_x
    cycle = periodic_steady_state(model, period)

    def flow(t, y):
        a, v = model.drift_at(t), y.reshape(4, 4)
        return (a @ v + v @ a.T + model.diffusion_at(t)).ravel()

    sol = scipy.integrate.solve_ivp(
        flow, (0.0, period), dop853_orbit_start(model, period).ravel(), method="DOP853",
        t_eval=cycle.times, rtol=1e-12, atol=1e-13,
    )
    want = sol.y.T.reshape(-1, 4, 4)
    assert len(want) == len(cycle.covariances) > 100
    errors = np.max(np.abs(cycle.covariances - want), axis=(1, 2))
    assert np.all(errors <= 2e-9 * np.max(np.abs(want), axis=(1, 2)))


def test_stacked_periodic_states_equal_one_model_calls(resonant):
    # The second model is parametrically unstable; the stack carries its
    # error and solves the figS5 depths around it exactly as one-model calls
    # do, so each model's sampled drifts land in its own row of the stack.
    alphas = (0.4, 0.6, 0.1, 0.01)
    models = [build_full_modulated(resonant.with_value("alpha", a)) for a in alphas]
    period = math.pi / resonant.omega_x
    stack = _periodic_states(models, period)
    with pytest.raises(UnstableModelError) as single_error:
        periodic_steady_state(models[1], period)
    assert isinstance(stack[1], UnstableModelError)
    assert str(stack[1]) == str(single_error.value)
    for model, got in zip(models[:1] + models[2:], stack[:1] + stack[2:]):
        want = periodic_steady_state(model, period)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.covariances, want.covariances)
        assert got.spectral_radius == want.spectral_radius
        assert got.residual_norm == want.residual_norm


def test_stacked_periodic_states_carry_a_non_positive_diagonal_as_its_error():
    # bad settles on V = -2 I: its samples are finite, but their diagonal is negative.
    ok = damped_cavity()
    bad = LinearGaussianModel.constant(MECH, -np.eye(2), -4.0 * np.eye(2), 1.0)
    stack = _periodic_states([ok, bad, ok], 2.0)
    with pytest.raises(CovarianceError) as single_error:
        periodic_steady_state(bad, 2.0)
    assert str(single_error.value) == "non-positive diagonal entries [-2. -2.]"
    assert isinstance(stack[1], CovarianceError)
    assert str(stack[1]) == str(single_error.value)
    want = periodic_steady_state(ok, 2.0)
    for got in (stack[0], stack[2]):
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.covariances, want.covariances)
        assert got.spectral_radius == want.spectral_radius
        assert got.residual_norm == want.residual_norm


@pytest.mark.parametrize("n_steps", [1, 2, 3, 256, 257, 4998, 4999, 50000])
@pytest.mark.parametrize("most", [2, 257, MAX_STORED - 1])
def test_stored_steps_keep_both_ends_within_the_cap(n_steps, most):
    stored = _stored_steps(n_steps, most)
    stride = stored[1]
    assert stored[0] == 0 and stored[-1] == n_steps
    assert len(stored) <= most
    assert stored[:-1] == list(range(0, n_steps, stride))
    # The stride is the smallest that fits the cap.
    assert stride == 1 or len(range(0, n_steps, stride - 1)) + 1 > most


def test_stacked_periodic_states_refuse_mismatched_default_steps(resonant):
    fast = build_full_modulated(resonant.with_value("alpha", 0.4))
    slow = dataclasses.replace(fast, fastest_rate=0.5 * fast.fastest_rate)
    with pytest.raises(ParameterError, match="default step"):
        _periodic_states([fast, slow], math.pi / resonant.omega_x)
