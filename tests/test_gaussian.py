import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levisqueeze.errors import BasisError, CovarianceError, ParameterError
from levisqueeze.gaussian import (
    CAVITY_MECH,
    MECH,
    PHYSICALITY_TOL,
    CovarianceMatrix,
    LinearGaussianModel,
    QuadratureBasis,
    drift_from_quadratic,
    lyapunov_residual,
    symplectic_form,
    uncertainty_floor,
)


def test_symplectic_form_squares_to_minus_identity():
    for basis in (MECH, CAVITY_MECH):
        omega = symplectic_form(basis)
        assert np.array_equal(omega @ omega, -np.eye(basis.dim))


def test_symplectic_form_is_antisymmetric():
    omega = symplectic_form(CAVITY_MECH)
    assert np.array_equal(omega.T, -omega)


def test_symplectic_form_is_one_read_only_array_per_dimension():
    omega = symplectic_form(CAVITY_MECH)
    assert symplectic_form(QuadratureBasis(("a", "b", "c", "d"))) is omega
    assert not omega.flags.writeable
    assert np.array_equal(omega, np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))


def test_basis_rejects_odd_dimension():
    with pytest.raises(BasisError):
        QuadratureBasis(("x", "p", "y"))


def test_basis_rejects_duplicates():
    with pytest.raises(BasisError):
        QuadratureBasis(("x", "x"))


def test_basis_lookup():
    basis = CAVITY_MECH
    assert basis.dim == 4
    assert basis.index("p") == 3
    with pytest.raises(BasisError):
        basis.index("q")


def test_covariance_rejects_asymmetric():
    with pytest.raises(CovarianceError):
        CovarianceMatrix(MECH, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_covariance_rejects_nonpositive_diagonal():
    with pytest.raises(CovarianceError):
        CovarianceMatrix(MECH, np.diag([1.0, 0.0]))


def test_covariance_rejects_nonfinite():
    with pytest.raises(CovarianceError):
        CovarianceMatrix(MECH, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_covariance_rejects_wrong_shape():
    with pytest.raises(CovarianceError):
        CovarianceMatrix(CAVITY_MECH, np.eye(2))


def test_covariance_entries_are_read_only():
    v = CovarianceMatrix(MECH, np.eye(2))
    with pytest.raises(ValueError):
        v.entries[0, 0] = 2.0


def test_vacuum_is_physical():
    floor = uncertainty_floor(CovarianceMatrix(CAVITY_MECH, np.eye(4)).entries, CAVITY_MECH)
    assert floor >= -PHYSICALITY_TOL
    assert floor == pytest.approx(0.0, abs=1e-12)


def test_pure_squeezed_state_sits_on_boundary():
    v = CovarianceMatrix(MECH, np.diag([0.5, 2.0]))
    floor = uncertainty_floor(v.entries, MECH)
    assert floor >= -PHYSICALITY_TOL
    assert abs(floor) < 1e-12


def test_overly_squeezed_state_is_unphysical():
    v = CovarianceMatrix(MECH, np.diag([0.4, 2.0]))
    floor = uncertainty_floor(v.entries, MECH)
    assert not floor >= -PHYSICALITY_TOL
    assert floor < -1e-3


@settings(max_examples=50)
@given(arrays(np.float64, (4, 4), elements=st.floats(-2.0, 2.0)))
def test_shifted_gram_matrices_are_physical(m):
    v = CovarianceMatrix(CAVITY_MECH, m @ m.T + np.eye(4))
    assert uncertainty_floor(v.entries, CAVITY_MECH) >= -PHYSICALITY_TOL


def test_uncertainty_floor_is_batched_over_a_stack():
    # Vacuum, a pure squeezed state, an overly squeezed one and a thermal one: the
    # floor of diag(a, c) is (a + c)/2 - sqrt(((a - c)/2)^2 + 1).
    covs = np.array([np.eye(2), np.diag([0.5, 2.0]), np.diag([0.4, 2.0]), 3.0 * np.eye(2)])
    floors = uncertainty_floor(covs.reshape(2, 2, 2, 2), MECH)
    assert floors.shape == (2, 2)
    assert np.array_equal(floors.ravel(), [uncertainty_floor(v, MECH) for v in covs])
    assert np.allclose(floors.ravel(), [0.0, 0.0, 1.2 - np.sqrt(0.8**2 + 1.0), 2.0])
    with pytest.raises(BasisError):
        uncertainty_floor(np.eye(4), MECH)


@settings(max_examples=50)
@given(arrays(np.float64, (4, 4), elements=st.floats(-3.0, 3.0)))
def test_zero_decay_drift_is_hamiltonian(m):
    # Without decay the drift must preserve the symplectic form.
    h = 0.5 * (m + m.T)
    a = drift_from_quadratic(h, np.zeros(4))
    omega = symplectic_form(CAVITY_MECH)
    assert np.allclose(a.T @ omega + omega @ a, 0.0, atol=1e-12)


def test_drift_rejects_asymmetric_hamiltonian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(CovarianceError):
        drift_from_quadratic(h, np.zeros(2))


def test_drift_rejects_odd_dimension():
    with pytest.raises(BasisError):
        drift_from_quadratic(np.eye(3), np.zeros(3))


def test_drift_rejects_decay_shape_mismatch():
    with pytest.raises(BasisError):
        drift_from_quadratic(np.eye(2), np.zeros(4))


def test_drift_rejects_negative_decay():
    with pytest.raises(ParameterError):
        drift_from_quadratic(np.eye(2), np.array([-0.1, 0.0]))


def test_stacked_drifts_equal_each_slice(rng):
    m = rng.normal(size=(3, 5, 4, 4))
    h = m + np.swapaxes(m, -1, -2)
    decay = rng.uniform(0.0, 1.0, size=(3, 1, 4))
    stacked = drift_from_quadratic(h, decay)
    assert stacked.shape == (3, 5, 4, 4)
    for i in range(3):
        for j in range(5):
            assert stacked[i, j].tobytes() == drift_from_quadratic(h[i, j], decay[i, 0]).tobytes()


def test_stacked_drift_checks_every_slice():
    h = np.broadcast_to(np.eye(4), (3, 2, 4, 4)).copy()
    h[2, 1, 0, 1] = 1.0
    with pytest.raises(CovarianceError):
        drift_from_quadratic(h, np.zeros(4))
    decay = np.zeros((3, 1, 4))
    decay[1, 0, 3] = -0.1
    with pytest.raises(ParameterError):
        drift_from_quadratic(np.eye(4) + np.zeros((3, 2, 4, 4)), decay)
    with pytest.raises(BasisError):
        drift_from_quadratic(np.zeros((3, 4, 4)), np.zeros((2, 4)))


def test_drift_oscillator_matches_hand_result():
    # H = (w/2)(x^2 + p^2) with decay g on p only.
    w, g = 1.3, 0.2
    a = drift_from_quadratic(np.diag([w, w]), np.array([0.0, g]))
    assert np.allclose(a, np.array([[0.0, w], [-w, -g]]))


def test_lyapunov_residual_vanishes_at_fixed_point():
    a = np.array([[-0.5, 0.0], [0.0, -0.5]])
    n = np.eye(2)
    v = n / 1.0  # A V + V A^T + N = -V + N = 0 for V = N
    assert np.max(np.abs(lyapunov_residual(a, v, n))) < 1e-14


def test_lyapunov_residual_is_batched():
    rng = np.random.default_rng(3)
    a, v, n = (rng.normal(size=(5, 4, 4)) for _ in range(3))
    stacked = lyapunov_residual(a, v, n)
    for k in range(5):
        assert np.array_equal(stacked[k], lyapunov_residual(a[k], v[k], n[k]))


def test_constant_model_shape_guard():
    basis = MECH
    with pytest.raises(BasisError):
        LinearGaussianModel.constant(basis, np.eye(4), np.eye(4), 1.0)


def test_constant_model_evaluates_anywhere():
    basis = MECH
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    model = LinearGaussianModel.constant(basis, a, np.zeros((2, 2)), 1.0)
    assert model.is_time_independent
    assert np.array_equal(model.drift_at(0.0), model.drift_at(17.3))
