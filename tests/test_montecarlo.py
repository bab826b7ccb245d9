import dataclasses
import math

import numpy as np
import pytest

from levisqueeze.dynamics import evolve
from levisqueeze.errors import NumericalError, ParameterError
from levisqueeze.gaussian import (
    MECH,
    CovarianceMatrix,
    LinearGaussianModel,
    ModelDescriptor,
    QuadratureBasis,
)
from levisqueeze.models import (
    SystemParams,
    build_eliminated_modulated,
    initial_covariance,
)
from levisqueeze.montecarlo import (
    EM_RESOLUTION,
    EnsembleSpec,
    compare,
    simulate_ensemble,
)


def constant_model(a, n, rate=1.0) -> LinearGaussianModel:
    basis = MECH
    return LinearGaussianModel.constant(
        basis, np.asarray(a, float), np.asarray(n, float), ModelDescriptor("test"), rate
    )


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


def test_step_size_cap():
    model = constant_model(-np.eye(2), 2 * np.eye(2), rate=10.0)
    spec = EnsembleSpec(n_traj=100, t_end=1.0, dt=2 * EM_RESOLUTION / 10.0, seed=0)
    with pytest.raises(ParameterError):
        simulate_ensemble(model, vac(), spec)


def test_basis_mismatch():
    model = constant_model(-np.eye(2), 2 * np.eye(2))
    v0 = CovarianceMatrix(QuadratureBasis(("X", "Y")), np.eye(2))
    spec = EnsembleSpec(n_traj=100, t_end=0.5, dt=1e-3, seed=0)
    with pytest.raises(ParameterError):
        simulate_ensemble(model, v0, spec)


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


def test_zero_noise_rotation_conserves_energy_per_step():
    # Euler-Maruyama on a pure rotation inflates the trace by exactly
    # (1 + dt^2 w^2) per step, independent of the trajectory noise draw.
    w, dt, t_end = 1.0, 2e-3, 2.0
    a = np.array([[0.0, w], [-w, 0.0]])
    model = constant_model(a, np.zeros((2, 2)))
    spec = EnsembleSpec(n_traj=150, t_end=t_end, dt=dt, seed=7, n_checkpoints=5)
    result = simulate_ensemble(model, vac(), spec)
    n_steps = round(t_end / dt)
    # The sampled initial trace carries finite-ensemble scatter, but its
    # growth factor is exact.
    expected = np.trace(result.covariances[0]) * (1.0 + (dt * w) ** 2) ** n_steps
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
