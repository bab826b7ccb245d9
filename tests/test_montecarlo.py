import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from levisqueeze import montecarlo
from levisqueeze.dynamics import MAX_STORED, evolve
from levisqueeze.errors import BasisError, NumericalError, ParameterError
from levisqueeze.gaussian import (
    CAVITY_MECH,
    MECH,
    CovarianceMatrix,
    LinearGaussianModel,
    QuadratureBasis,
)
from levisqueeze.models import (
    build_eliminated_detuned,
    build_eliminated_modulated,
    build_full_cs,
    build_full_modulated,
    initial_covariance,
)
from levisqueeze.montecarlo import (
    _BLOCK,
    _CHUNK,
    EM_RESOLUTION,
    MAX_TRAJ,
    EnsembleSpec,
    compare,
    simulate_ensemble,
)


def constant_model(a, n, rate=1.0) -> LinearGaussianModel:
    basis = MECH
    return LinearGaussianModel.constant(basis, np.asarray(a, float), np.asarray(n, float), rate)


def vac() -> CovarianceMatrix:
    return CovarianceMatrix(MECH, np.eye(2))


def test_spec_validation():
    with pytest.raises(ParameterError):
        EnsembleSpec(n_traj=50, t_end=1.0, dt=1e-3, seed=0)
    with pytest.raises(ParameterError):
        EnsembleSpec(n_traj=100, t_end=0.0, dt=1e-3, seed=0)
    with pytest.raises(ParameterError):
        EnsembleSpec(n_traj=100, t_end=1.0, dt=0.0, seed=0)
    with pytest.raises(ParameterError):
        EnsembleSpec(n_traj=100, t_end=1.0, dt=1e-3, seed=0, n_checkpoints=1)
    with pytest.raises(ParameterError, match="seed"):
        EnsembleSpec(n_traj=100, t_end=1.0, dt=1e-3, seed=-1)
    with pytest.raises(ParameterError, match="checkpoints"):
        EnsembleSpec(n_traj=100, t_end=1.0, dt=1e-3, seed=0, n_checkpoints=MAX_STORED + 1)
    with pytest.raises(ParameterError, match=f"at most {MAX_TRAJ} trajectories"):
        EnsembleSpec(n_traj=MAX_TRAJ + 1, t_end=1.0, dt=1e-3, seed=0)


def test_surplus_checkpoints_mark_every_step():
    model = constant_model(-np.eye(2), 2.0 * np.eye(2))
    spec = EnsembleSpec(n_traj=100, t_end=0.01, dt=1e-3, seed=0, n_checkpoints=MAX_STORED)
    result = simulate_ensemble(model, vac(), spec)
    assert np.allclose(result.times, np.arange(11) * 1e-3, rtol=0.0, atol=1e-15)


def test_step_size_cap():
    model = constant_model(-np.eye(2), 2 * np.eye(2), rate=10.0)
    spec = EnsembleSpec(n_traj=100, t_end=1.0, dt=2 * EM_RESOLUTION / 10.0, seed=0)
    with pytest.raises(ParameterError):
        simulate_ensemble(model, vac(), spec)


def test_basis_mismatch():
    model = constant_model(-np.eye(2), 2 * np.eye(2))
    v0 = CovarianceMatrix(QuadratureBasis(("X", "Y")), np.eye(2))
    spec = EnsembleSpec(n_traj=100, t_end=0.5, dt=1e-3, seed=0)
    with pytest.raises(BasisError):
        simulate_ensemble(model, v0, spec)


def test_evolve_and_ensemble_share_the_initial_covariance_check():
    # Both accept the same plain array and refuse a foreign basis alike.
    model = constant_model(-np.eye(2), 2 * np.eye(2))
    spec = EnsembleSpec(n_traj=100, t_end=0.1, dt=1e-3, seed=0)
    start = np.diag([3.0, 2.0])
    assert evolve(model, start, 0.1).covariances[0].tolist() == start.tolist()
    from_array = simulate_ensemble(model, start, spec)
    from_matrix = simulate_ensemble(model, CovarianceMatrix(MECH, start), spec)
    assert np.array_equal(from_array.covariances, from_matrix.covariances)
    foreign = CovarianceMatrix(QuadratureBasis(("X", "Y")), start)
    with pytest.raises(BasisError) as from_evolve:
        evolve(model, foreign, 0.1)
    with pytest.raises(BasisError) as from_ensemble:
        simulate_ensemble(model, foreign, spec)
    assert str(from_evolve.value) == str(from_ensemble.value)


@pytest.mark.parametrize(
    "t_end, dt, n_steps",
    [(0.0014, 1e-3, 2), (1.0, 1e-3, 1000), (0.05, 1e-3, 50), (523 * 2e-3, 2e-3, 523),
     (0.0005, 1e-3, 1), (0.0021, 1e-3, 3)],
)
def test_steps_never_exceed_the_requested_dt(t_end, dt, n_steps):
    # t_end / dt is rounded up, as evolve does, so the step taken stays
    # within the dt that simulate_ensemble checks against its limit.
    spec = EnsembleSpec(n_traj=100, t_end=t_end, dt=dt, seed=0)
    assert spec.n_steps == n_steps
    assert spec.step <= dt


def test_indefinite_diffusion_is_rejected():
    n = np.array([[1.0, 0.0], [0.0, -0.5]])
    model = constant_model(-np.eye(2), n)
    spec = EnsembleSpec(n_traj=100, t_end=0.5, dt=1e-3, seed=0)
    with pytest.raises(NumericalError):
        simulate_ensemble(model, vac(), spec)


def test_seed_determinism():
    model = constant_model(-np.eye(2), 2 * np.eye(2))
    spec = EnsembleSpec(n_traj=200, t_end=1.0, dt=2e-3, seed=42)
    a = simulate_ensemble(model, vac(), spec)
    b = simulate_ensemble(model, vac(), spec)
    assert np.array_equal(a.covariances, b.covariances)
    assert np.array_equal(a.stderr, b.stderr)
    c = simulate_ensemble(model, vac(), dataclasses.replace(spec, seed=43))
    assert not np.array_equal(a.covariances, c.covariances)


def checkpoint_states(monkeypatch, model, spec):
    """Run the ensemble and return the trajectory states at every checkpoint."""
    states = []
    estimate = montecarlo._sample_covariance

    def recording(r):
        states.append(r.copy())
        return estimate(r)

    monkeypatch.setattr(montecarlo, "_sample_covariance", recording)
    simulate_ensemble(model, vac(), spec)
    return np.stack(states)


def test_a_trajectory_depends_only_on_the_seed_and_its_index(monkeypatch):
    # 150 and 250 trajectories pad their last stream differently; the first
    # 150 paths must not notice.
    model = constant_model([[-1.0, 0.5], [-0.5, -1.0]], 2 * np.eye(2))
    spec = EnsembleSpec(n_traj=150, t_end=1.0, dt=2e-3, seed=8, n_checkpoints=6)
    small = checkpoint_states(monkeypatch, model, spec)
    large = checkpoint_states(monkeypatch, model, dataclasses.replace(spec, n_traj=250))
    assert small.shape == (6, 150, 2) and large.shape == (6, 250, 2)
    assert np.max(np.abs(large[:, :150] - small)) <= 1e-12 * np.max(np.abs(small))


def test_ensemble_does_not_depend_on_the_noise_block_size(monkeypatch):
    # 523 steps: 75 blocks of 7 steps against 3 of 200 split the draws at
    # different steps.
    model = constant_model([[-1.0, 0.5], [-0.5, -1.0]], 2 * np.eye(2))
    spec = EnsembleSpec(n_traj=250, t_end=523 * 2e-3, dt=2e-3, seed=5, n_checkpoints=7)
    wide = simulate_ensemble(model, vac(), spec)
    monkeypatch.setattr(montecarlo, "_BLOCK", 7)
    narrow = simulate_ensemble(model, vac(), spec)
    assert np.array_equal(narrow.times, wide.times)
    scale = np.max(np.abs(wide.covariances))
    assert np.max(np.abs(narrow.covariances - wide.covariances)) <= 1e-12 * scale


def test_zero_noise_rotation_conserves_energy_per_step():
    # The order-2 map on a pure rotation, (1 - (hw)^2 / 2) I + hA, inflates
    # the trace by exactly (1 + (hw)^4 / 4) per step, independent of the
    # trajectory noise draw.  At the largest step the rate allows, 100 steps
    # grow it by 6.4e-5, far above the tolerance below.
    w, dt, t_end = 1.0, EM_RESOLUTION, 4.0
    a = np.array([[0.0, w], [-w, 0.0]])
    model = constant_model(a, np.zeros((2, 2)))
    spec = EnsembleSpec(n_traj=150, t_end=t_end, dt=dt, seed=7, n_checkpoints=5)
    result = simulate_ensemble(model, vac(), spec)
    assert spec.n_steps == 100
    # The sampled initial trace carries finite-ensemble scatter, but its
    # growth factor is exact.
    expected = np.trace(result.covariances[0]) * (1.0 + (dt * w) ** 4 / 4.0) ** spec.n_steps
    assert np.trace(result.covariances[-1]) == pytest.approx(expected, rel=1e-9)


def test_bare_cavity_relaxes_to_vacuum():
    kappa = 1.0
    model = constant_model(-kappa * np.eye(2), 2 * kappa * np.eye(2))
    v0 = CovarianceMatrix(MECH, 3.0 * np.eye(2))
    spec = EnsembleSpec(n_traj=2000, t_end=6.0, dt=2e-3, seed=1)
    result = simulate_ensemble(model, v0, spec)
    final = result.covariances[-1]
    se = result.stderr[-1]
    for i in range(2):
        assert abs(final[i, i] - 1.0) < 5.0 * se[i, i]


def test_compare_against_reference_passes(detuned):
    p = dataclasses.replace(
        detuned.with_value("q_m", 1e4), nbar=10.0, alpha=0.01, phi=math.pi / 2
    )
    model = build_eliminated_modulated(p, variant="bare-frame")
    v0 = initial_covariance(p, model.basis)
    spec = EnsembleSpec(n_traj=1000, t_end=50.0, dt=0.02, seed=3)
    ensemble = simulate_ensemble(model, v0, spec)
    reference = evolve(model, v0, 50.0)
    report = compare(ensemble, reference)
    assert report.passed
    assert report.max_z < 5.0


def test_compare_flags_wrong_reference():
    kappa = 0.8
    model = constant_model(-kappa * np.eye(2), 2 * kappa * np.eye(2))
    wrong = constant_model(-kappa * np.eye(2), 4 * kappa * np.eye(2))
    v0 = vac()
    spec = EnsembleSpec(n_traj=4000, t_end=4.0, dt=2e-3, seed=5)
    ensemble = simulate_ensemble(model, v0, spec)
    report = compare(ensemble, evolve(wrong, v0, 4.0))
    assert not report.passed
    assert report.max_z > 5.0


def test_compare_to_self_is_exact():
    model = constant_model(-np.eye(2), 2 * np.eye(2))
    spec = EnsembleSpec(n_traj=300, t_end=1.0, dt=2e-3, seed=9, n_checkpoints=6)
    ensemble = simulate_ensemble(model, vac(), spec)
    reference = dataclasses.replace(
        evolve(model, vac(), 1.0), times=ensemble.times, covariances=ensemble.covariances
    )
    report = compare(ensemble, reference)
    assert report.max_z == 0.0


def test_compare_locates_the_worst_entry():
    model = constant_model(-np.eye(2), 2 * np.eye(2))
    spec = EnsembleSpec(n_traj=300, t_end=1.0, dt=2e-3, seed=9, n_checkpoints=6)
    ensemble = simulate_ensemble(model, vac(), spec)
    shifted = ensemble.covariances.copy()
    shifted[3, 0, 1] += 1.0
    shifted[3, 1, 0] += 1.0
    reference = dataclasses.replace(
        evolve(model, vac(), 1.0), times=ensemble.times, covariances=shifted
    )
    report = compare(ensemble, reference)
    assert report.worst_time == ensemble.times[3]
    assert report.worst_entry == ("x", "p")
    assert report.max_z == np.max(np.abs(report.z_scores))


def test_compare_requires_overlapping_window():
    model = constant_model(-np.eye(2), 2 * np.eye(2))
    spec = EnsembleSpec(n_traj=200, t_end=5.0, dt=2e-3, seed=2)
    ensemble = simulate_ensemble(model, vac(), spec)
    short_reference = evolve(model, vac(), 1.0)
    with pytest.raises(ParameterError):
        compare(ensemble, short_reference)


def test_statistical_error_shrinks_with_ensemble_size():
    model = constant_model(-np.eye(2), 2 * np.eye(2))
    small = simulate_ensemble(
        model, vac(), EnsembleSpec(n_traj=200, t_end=1.0, dt=2e-3, seed=11)
    )
    large = simulate_ensemble(
        model, vac(), EnsembleSpec(n_traj=2000, t_end=1.0, dt=2e-3, seed=11)
    )
    # Standard error should drop roughly like 1/sqrt(n).
    ratio = np.median(small.stderr[-1] / large.stderr[-1])
    assert 2.0 < ratio < 5.0


def reference_ensemble(model, v0, spec):
    """The order-2 scheme one step at a time, on the same chunked streams.

    Stream c, child c of SeedSequence(seed), draws the initial points of its
    _CHUNK trajectories, then all of their step noise in one
    (n_steps, _CHUNK, d) array, whatever the module's block size; a partial
    last chunk is trimmed.  The noise factor L is the module's.  Returns the
    checkpoint times and covariances.
    """
    d = model.basis.dim
    n_steps = max(1, math.ceil(spec.t_end / spec.dt - 1e-12))
    h = spec.t_end / n_steps
    marks = np.unique(np.linspace(0, n_steps, min(spec.n_checkpoints, n_steps + 1)).astype(int))
    n_chunks = math.ceil(spec.n_traj / _CHUNK)
    r, xi = [], []
    for child in np.random.SeedSequence(spec.seed).spawn(n_chunks):
        g = np.random.Generator(np.random.Philox(child))
        r.append(g.standard_normal((_CHUNK, d)))
        xi.append(g.standard_normal((n_steps, _CHUNK, d)))
    r = np.concatenate(r)[: spec.n_traj]
    xi = np.concatenate(xi, axis=1)[:, : spec.n_traj]
    r = r @ np.linalg.cholesky(0.5 * v0.entries).T
    times, covs = [], []
    for n in range(n_steps + 1):
        if n in marks:
            times.append(n * h)
            covs.append(2.0 * (r.T @ r) / spec.n_traj)
        if n < n_steps:
            # A and L are sampled at the step's midpoint.
            ha = h * model.drift_at((n + 0.5) * h)
            l_mat = montecarlo._noise_matrix(model.diffusion_at((n + 0.5) * h))
            ra = r @ ha.T
            y = np.sqrt(h) * (xi[n] @ l_mat.T)
            r = r + ra + 0.5 * (ra @ ha.T) + y + 0.5 * (y @ ha.T)
    return np.array(times), np.stack(covs)


def assert_matches_reference(model, v0, spec):
    result = simulate_ensemble(model, v0, spec)
    times, covs = reference_ensemble(model, v0, spec)
    assert np.array_equal(result.times, times)
    assert result.covariances.shape == covs.shape
    for got, want in zip(result.covariances, covs):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def random_stable_model(rng) -> LinearGaussianModel:
    a = -np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    assert np.max(np.linalg.eigvals(a).real) < 0.0
    b = rng.standard_normal((4, 4))
    return LinearGaussianModel.constant(
        CAVITY_MECH, a, b @ b.T + 0.1 * np.eye(4), 1.0
    )


def test_interval_maps_match_per_step_order2_on_a_constant_model(rng):
    # 523 steps and 7 checkpoints: intervals end mid-block and on block edges.
    # At 250 trajectories the third stream draws 100 and half of them are cut.
    model = random_stable_model(rng)
    c = rng.standard_normal((4, 4))
    v0 = CovarianceMatrix(CAVITY_MECH, c @ c.T + np.eye(4))
    spec = EnsembleSpec(n_traj=300, t_end=523 * 2e-3, dt=2e-3, seed=17, n_checkpoints=7)
    assert spec.n_steps == 523
    assert_matches_reference(model, v0, spec)
    padded = dataclasses.replace(spec, n_traj=250)
    assert padded.n_streams == 3
    assert_matches_reference(model, v0, padded)


def test_interval_maps_match_per_step_order2_on_a_modulated_model(detuned):
    p = dataclasses.replace(detuned, alpha=0.2)
    model = build_full_modulated(p)
    assert not model.is_time_independent
    spec = EnsembleSpec(
        n_traj=200, t_end=2.0, dt=EM_RESOLUTION / model.fastest_rate, seed=4, n_checkpoints=9
    )
    assert_matches_reference(model, initial_covariance(p, model.basis), spec)


def test_growing_ensemble_reports_the_first_non_finite_checkpoint():
    # Each step multiplies the state by 1 + 1 + 1/2 = 2.5, which overflows
    # after about 775 steps: finite at the checkpoint at step 500, not at the
    # one at step 1000.
    model = constant_model(1000.0 * np.eye(2), 2.0 * np.eye(2))
    spec = EnsembleSpec(n_traj=100, t_end=2.0, dt=1e-3, seed=0, n_checkpoints=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"^ensemble diverged at t = 1$"):
            simulate_ensemble(model, vac(), spec)


class CountingStream:
    """Wraps a Generator and counts its standard_normal calls."""

    def __init__(self, generator):
        self.generator = generator
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.generator.standard_normal(*args, **kwargs)


def count_work(monkeypatch, model, v0, spec):
    """Run the ensemble; return its drift_at calls and each stream's draw calls."""
    made = []
    build = montecarlo._streams

    def counting_streams(seed, n_streams):
        made.extend(CountingStream(g) for g in build(seed, n_streams))
        return made

    drift_calls = []

    def drift_at(t):
        drift_calls.append(t)
        return model.drift_at(t)

    monkeypatch.setattr(montecarlo, "_streams", counting_streams)
    simulate_ensemble(dataclasses.replace(model, drift_at=drift_at), v0, spec)
    return len(drift_calls), [s.calls for s in made]


@pytest.mark.parametrize("time_dependent", [False, True])
def test_ensemble_work_scales_with_intervals_not_trajectories(
    monkeypatch, detuned, time_dependent
):
    # A guard against per-step or per-trajectory model sampling, against
    # shrinking the noise blocks below their 200 steps and against building
    # more than one stream per chunk of 100 trajectories.
    p = dataclasses.replace(detuned, alpha=0.2 if time_dependent else 0.0)
    model = build_full_modulated(p)
    if not time_dependent:
        model = LinearGaussianModel.constant(
            model.basis, model.drift_at(0.0), model.diffusion_at(0.0),
            model.fastest_rate,
        )
    # 1000 steps, so the noise comes in five full blocks.
    spec = EnsembleSpec(n_traj=250, t_end=8.0, dt=EM_RESOLUTION / model.fastest_rate, seed=2)
    assert spec.n_steps == 1000
    v0 = initial_covariance(p, model.basis)
    drift_calls, draw_calls = count_work(monkeypatch, model, v0, spec)
    assert drift_calls <= (spec.n_steps + 1 if time_dependent else 1)
    assert _BLOCK == 200
    assert len(draw_calls) == math.ceil(spec.n_traj / _CHUNK) == 3
    assert set(draw_calls) == {1 + math.ceil(spec.n_steps / 200)}


def scheme_covariances(model, v0, spec):
    """Exact covariance of the ensemble at every step, without sampling.

    Iterates the module's own step maps r -> r @ p + xi @ q as
    V <- p^T V p + 2 q^T q, which is V <- P V P^T + h G N G^T.
    """
    h = spec.step
    fixed = montecarlo._step_map(model, 0.5 * h, h) if model.is_time_independent else None
    v = v0
    path = [v]
    for n in range(spec.n_steps):
        p, q = fixed if fixed is not None else montecarlo._step_map(model, (n + 0.5) * h, h)
        v = p.T @ v @ p + 2.0 * (q.T @ q)
        path.append(v)
    return np.stack(path)


def exact_covariances(model, v0, spec):
    """Lyapunov solution of a constant model at every step, by matrix exponential.

    Van Loan's block exponential gives the step's propagator E and noise
    integral Q, and V <- E V E^T + Q is exact at any step.
    """
    a, n = model.drift_at(0.0), model.diffusion_at(0.0)
    d = a.shape[0]
    block = np.block([[-a, n], [np.zeros((d, d)), a.T]])
    f = scipy.linalg.expm(spec.step * block)
    e, q = f[d:, d:].T, f[d:, d:].T @ f[:d, d:]
    v = v0
    path = [v]
    for _ in range(spec.n_steps):
        v = e @ v @ e.T + q
        path.append(v)
    return np.stack(path)


def bias_case(name, detuned):
    """(model, params, t_end) of the ensemble-check run, the C10 runs and the lab drive."""
    low_noise = dataclasses.replace(detuned, nbar=10.0)
    quiet = low_noise.with_value("q_m", 1e4)
    p_mod = dataclasses.replace(quiet, alpha=0.01, phi=math.pi / 2.0)
    p_lab = dataclasses.replace(low_noise, alpha=0.2)
    return {
        "ensemble-check": (build_full_cs(low_noise), low_noise, 1.0),
        "full": (build_full_cs(low_noise), low_noise, 15.0),
        "eliminated-detuned": (build_eliminated_detuned(quiet), quiet, 20.0),
        "eliminated-modulated": (
            build_eliminated_modulated(p_mod, variant="bare-frame"), p_mod, 400.0
        ),
        "full-modulated": (build_full_modulated(p_lab), p_lab, 2.0),
    }[name]


@pytest.mark.parametrize(
    "name",
    ["ensemble-check", "full", "eliminated-detuned", "eliminated-modulated", "full-modulated"],
)
def test_scheme_bias_at_the_default_step_is_below_a_quarter_standard_error(detuned, name):
    # The ensemble's covariance obeys an exact recursion, so its bias needs
    # no sampling.  At the default step it must stay far below the standard
    # error of the largest ensemble allowed, at every step.
    model, params, t_end = bias_case(name, detuned)
    v0 = initial_covariance(params, model.basis).entries
    spec = EnsembleSpec(
        n_traj=MAX_TRAJ, t_end=t_end, dt=EM_RESOLUTION / model.fastest_rate, seed=0
    )
    got = scheme_covariances(model, v0, spec)
    if model.is_time_independent:
        want = exact_covariances(model, v0, spec)
    else:
        # A fine RK4 step on V; compare at the stored samples on the step grid.
        reference = evolve(model, v0, t_end, dt=spec.step / 8)
        k = np.rint(reference.times / spec.step).astype(int)
        on_grid = np.abs(reference.times / spec.step - k) < 1e-9
        assert on_grid.sum() > 100
        got, want = got[k[on_grid]], reference.covariances[on_grid]
    stderr = np.stack([montecarlo._stderr(v, MAX_TRAJ) for v in want])
    worst = float(np.max(np.abs(got - want) / stderr))
    assert worst < 0.25
