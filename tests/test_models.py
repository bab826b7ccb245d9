import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levisqueeze import models
from levisqueeze.dynamics import steady_state
from levisqueeze.errors import ParameterError
from levisqueeze.gaussian import drift_from_quadratic
from levisqueeze.models import (
    MODEL_BUILDERS,
    SystemParams,
    bogoliubov_coefficients,
    bogoliubov_ground_variance,
    bogoliubov_stack,
    build_bogoliubov_dissipative,
    build_eliminated_detuned,
    build_eliminated_modulated,
    build_full_cs,
    build_full_modulated,
    builder_for,
    detuned_backaction,
    effective_detuned,
    effective_modulated,
    initial_covariance,
    modulated_backaction,
    threshold_coupling,
)

positive = st.floats(0.05, 5.0)


def rebuilt_drift(p: SystemParams, m: float) -> np.ndarray:
    """Reference: the lab-frame drift built from H at one modulation factor M.

    H = (delta/2)(X^2+Y^2) + (omega_x/2) p^2 + (omega_x/2) M^2 x^2
        - sqrt(2) lam M x X
    """
    h = np.zeros((4, 4))
    h[0, 0] = h[1, 1] = p.delta
    h[2, 2] = p.omega_x * m**2
    h[3, 3] = p.omega_x
    h[0, 2] = h[2, 0] = -math.sqrt(2.0) * p.lam * m
    return drift_from_quadratic(h, np.array([p.kappa, p.kappa, 0.0, p.gamma]))


def test_quality_factor_round_trip():
    p = SystemParams(omega_x=1.0, q_m=1e9)
    assert p.gamma == pytest.approx(1e-9)


def test_gamma_and_q_m_are_mutually_exclusive():
    with pytest.raises(ParameterError):
        SystemParams(omega_x=1.0, gamma=1e-9, q_m=1e9)


def test_rejects_nonpositive_frequency():
    with pytest.raises(ParameterError):
        SystemParams(omega_x=0.0)


def test_rejects_negative_fields():
    for field, value in (("kappa", -0.1), ("gamma", -1e-6), ("nbar", -1.0), ("alpha", -0.01)):
        with pytest.raises(ParameterError):
            SystemParams(omega_x=1.0, **{field: value})


def test_rejects_nonpositive_quality_factor():
    with pytest.raises(ParameterError):
        SystemParams(omega_x=1.0, q_m=0.0)
    with pytest.raises(ParameterError, match="quality factor must be positive"):
        SystemParams().with_value("q_m", 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)])
def test_rejects_non_finite_fields(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must be finite"):
        SystemParams(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rejects_a_non_finite_quality_factor(value):
    with pytest.raises(ParameterError, match="^q_m must be finite"):
        SystemParams(q_m=value)
    with pytest.raises(ParameterError, match="^q_m must be finite"):
        SystemParams().with_value("q_m", value)


@pytest.mark.parametrize("keys", [{"q_m": 1e-320}, {"omega_x": 1e300, "q_m": 1e-300}])
def test_rejects_a_quality_factor_whose_gamma_is_not_finite(keys):
    message = r"^gamma = omega_x / q_m must be finite, got inf$"
    with pytest.raises(ParameterError, match=message):
        SystemParams(**keys)
    with pytest.raises(ParameterError, match=message):
        SystemParams(omega_x=keys.get("omega_x", 1.0)).with_value("q_m", keys["q_m"])


def test_with_value_replaces_one_field(detuned):
    p = detuned.with_value("lam", 0.7)
    assert p.lam == 0.7
    assert p.delta == detuned.delta


def test_with_value_accepts_quality_factor_alias(detuned):
    p = detuned.with_value("q_m", 1e6)
    assert p.gamma == pytest.approx(1e-6)


def test_with_value_rejects_unknown_name(detuned):
    with pytest.raises(ParameterError):
        detuned.with_value("mass", 1.0)


def test_initial_covariance_thermal_mechanics(detuned):
    p = dataclasses.replace(detuned, nbar0=3.0)
    model = build_full_cs(p)
    v = initial_covariance(p, model.basis)
    assert np.allclose(v.entries, np.diag([1.0, 1.0, 7.0, 7.0]))


def test_full_cs_drift_matches_hand_matrix(detuned):
    s2l = math.sqrt(2.0) * detuned.lam
    expected = np.array(
        [
            [-0.2, 5.0, 0.0, 0.0],
            [-5.0, -0.2, s2l, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [s2l, 0.0, -1.0, -1e-9],
        ]
    )
    assert np.allclose(build_full_cs(detuned).drift_at(0.0), expected, atol=1e-15)


def test_full_cs_diffusion(detuned):
    n = build_full_cs(detuned).diffusion_at(0.0)
    assert np.allclose(np.diag(n), [0.4, 0.4, 0.0, 2e-9 * (2 * 2e7 + 1)])
    assert np.allclose(n, np.diag(np.diag(n)))


def test_full_modulated_without_modulation_equals_static(detuned):
    static = build_full_cs(detuned)
    modulated = build_full_modulated(detuned)
    assert modulated.is_time_independent
    assert modulated.basis == static.basis
    assert modulated.fastest_rate == static.fastest_rate
    for t in (0.0, 0.3, 2.7):
        assert np.array_equal(modulated.drift_at(t), static.drift_at(t))
        assert np.array_equal(modulated.diffusion_at(t), static.diffusion_at(t))


def test_full_modulated_samples_the_drive(detuned):
    p = dataclasses.replace(detuned, alpha=0.3, phi=0.4)
    model = build_full_modulated(p)
    assert not model.is_time_independent
    # cos(2 w t + phi) = 0 at t = (pi/2 - phi) / (2 w): drive momentarily off.
    t_off = (math.pi / 2 - p.phi) / (2 * p.omega_x)
    assert np.allclose(model.drift_at(t_off), build_full_cs(detuned).drift_at(0.0))
    # At t = 0 the spring and coupling pick up the full modulation factor.
    m0 = 1.0 + p.alpha * math.cos(p.phi)
    a0 = model.drift_at(0.0)
    assert a0[3, 2] == pytest.approx(-p.omega_x * m0**2)
    assert a0[1, 2] == pytest.approx(math.sqrt(2.0) * p.lam * m0)


def test_full_modulated_structured_drift_is_the_rebuild(resonant):
    # A0 + M A1 + M^2 A2 must equal the drift rebuilt from H(M) bit for bit.
    p = dataclasses.replace(resonant, alpha=0.4, phi=1.1)
    model = build_full_modulated(p)
    for t in np.linspace(0.0, 7.3, 50):
        m = 1.0 + p.alpha * math.cos(2.0 * p.omega_x * t + p.phi)
        assert np.array_equal(model.drift_at(float(t)), rebuilt_drift(p, m))


def test_full_modulated_samples_an_array_of_times_as_single_times(resonant):
    # drift_at on an array of times gives the stack of single-time drifts,
    # each equal to the H(M) rebuild bit for bit.  The grid holds times whose
    # M has M * M != M ** 2, where a numpy square would break the equality.
    p = dataclasses.replace(resonant, alpha=0.4, phi=1.1)
    model = build_full_modulated(p)
    ts = np.linspace(0.0, 7.3, 4001)
    ms = [1.0 + p.alpha * math.cos(2.0 * p.omega_x * t + p.phi) for t in ts.tolist()]
    assert any(m * m != m**2 for m in ms)
    drifts = model.drift_at(ts)
    assert drifts.shape == (len(ts), 4, 4)
    for t, m, drift in zip(ts.tolist(), ms, drifts):
        assert np.array_equal(drift, model.drift_at(t))
        assert np.array_equal(drift, rebuilt_drift(p, m))
    assert model.drift_at(ts.reshape(1, -1, 1)).shape == (1, len(ts), 1, 4, 4)
    noises = model.diffusion_at(ts)
    assert all(np.array_equal(n, model.diffusion_at(0.3)) for n in noises)


def test_lab_stack_rows_equal_the_one_row_builders(resonant):
    # Each row of a mixed stack samples as its one-row build bit for bit: the
    # alpha = 0 row as build_full_cs (M = 1), the others as
    # build_full_modulated, on a grid where every modulated row has times
    # with M * M != M ** 2.  The last row's M changes sign.
    rows = [
        resonant,
        dataclasses.replace(resonant, alpha=0.4, phi=1.1),
        dataclasses.replace(resonant, alpha=0.4, phi=-2.3),
        dataclasses.replace(resonant, alpha=1.2, lam=0.5, kappa=0.7),
    ]
    stack = models._lab_stack(rows)
    ts = np.linspace(0.0, 7.3, 4001)
    drifts, noises = stack.drift_at(ts[:, None]), stack.diffusion_at(ts[:, None])
    for i, p in enumerate(rows[1:], start=1):
        ms = [1.0 + p.alpha * math.cos(2.0 * p.omega_x * t + p.phi) for t in ts.tolist()]
        split = [j for j, m in enumerate(ms) if m * m != m**2]
        assert split
        assert all(np.array_equal(drifts[j, i], rebuilt_drift(p, ms[j])) for j in split)
    assert drifts.shape == noises.shape == (len(ts), len(rows), 4, 4)
    assert stack.drift_at(0.3).shape == stack.diffusion_at(0.3).shape == (len(rows), 4, 4)
    assert not stack.is_time_independent
    builds = [build_full_cs(rows[0])] + [build_full_modulated(p) for p in rows[1:]]
    for i, one in enumerate(builds):
        assert one.fastest_rate == stack.fastest_rate
        assert drifts[:, i].tobytes() == one.drift_at(ts).tobytes()
        assert noises[:, i].tobytes() == one.diffusion_at(ts).tobytes()


def test_constant_models_sample_read_only_stacks(resonant):
    model = build_full_cs(resonant)
    ts = np.array([0.0, 0.3, 2.7])
    for sample in (model.drift_at, model.diffusion_at):
        single, stack = sample(0.3), sample(ts)
        assert single.shape == (4, 4)
        assert stack.shape == (3, 4, 4)
        assert not single.flags.writeable and not stack.flags.writeable
        assert all(np.array_equal(s, single) for s in stack)


def test_full_modulated_period_averaged_spring(detuned):
    p = dataclasses.replace(detuned, alpha=0.3)
    model = build_full_modulated(p)
    period = math.pi / p.omega_x
    ts = np.linspace(0.0, period, 20001)
    springs = np.array([model.drift_at(t)[3, 2] for t in ts])
    # <M^2> = 1 + alpha^2 / 2 over one drive period.
    assert np.trapezoid(springs, ts) / period == pytest.approx(
        -p.omega_x * (1 + p.alpha**2 / 2), rel=1e-6
    )


def test_the_lab_builders_read_one_bath(detuned, monkeypatch):
    # Changing the one statement of the lab bath changes every lab-frame
    # builder, full-modulated at alpha = 0 (the constant full model) and the
    # row-stacked lab model included.
    lab_frame = models._lab_frame

    def doubled_bath(params):
        h, decay, noise, rate = lab_frame(params)
        return h, 2.0 * decay, 2.0 * noise, rate

    builds = (
        (build_full_cs, detuned),
        (build_full_modulated, detuned),
        (build_full_modulated, dataclasses.replace(detuned, alpha=0.3)),
        (build_eliminated_detuned, detuned),
        (models._lab_stack, [detuned, dataclasses.replace(detuned, alpha=0.3)]),
    )
    before = [build(p) for build, p in builds]
    monkeypatch.setattr(models, "_lab_frame", doubled_bath)
    after = [build(p) for build, p in builds]
    assert after[1].is_time_independent
    for old, new in zip(before, after):
        for sample in ("drift_at", "diffusion_at"):
            assert not np.array_equal(getattr(old, sample)(0.3), getattr(new, sample)(0.3))


def test_effective_detuned_frozen_values(detuned):
    eff = effective_detuned(detuned)
    assert eff.zeta_eff == pytest.approx(0.017971246006389777, rel=1e-14)
    assert eff.omega_eff == pytest.approx(0.9820287539936103, rel=1e-14)


@settings(max_examples=60)
@given(positive, positive, positive)
def test_effective_detuned_frequencies_sum_to_bare(omega, kappa, lam):
    p = SystemParams(omega_x=omega, kappa=kappa, delta=3.0, lam=lam)
    eff = effective_detuned(p)
    assert eff.omega_eff + eff.zeta_eff == pytest.approx(omega, rel=1e-12)


def test_detuned_backaction_frozen_value(detuned):
    assert detuned_backaction(detuned) == pytest.approx(0.0028753993610223642, rel=1e-14)


def test_threshold_coupling_frozen_value(detuned):
    assert threshold_coupling(detuned) == pytest.approx(1.5824032355881985, rel=1e-14)


def test_threshold_coupling_requires_positive_detuning(detuned):
    with pytest.raises(ParameterError):
        threshold_coupling(dataclasses.replace(detuned, delta=0.0))


@settings(max_examples=40)
@given(positive, positive, positive)
def test_softened_frequency_closes_at_threshold(omega, kappa, delta):
    p = SystemParams(omega_x=omega, kappa=kappa, delta=delta, lam=0.0)
    at_threshold = dataclasses.replace(p, lam=threshold_coupling(p))
    eff = effective_detuned(at_threshold)
    # At threshold the softened frequency and the coupling shift coincide.
    assert eff.omega_eff == pytest.approx(eff.zeta_eff, rel=1e-10)
    assert eff.omega_eff == pytest.approx(omega / 2, rel=1e-10)


def test_eliminated_detuned_drift(detuned):
    a = build_eliminated_detuned(detuned).drift_at(0.0)
    assert a[0, 1] == 1.0
    assert a[1, 0] == pytest.approx(-0.9640575079872204, rel=1e-14)
    assert a[1, 1] == pytest.approx(-1e-9)


def test_eliminated_detuned_diffusion(detuned):
    n = build_eliminated_detuned(detuned).diffusion_at(0.0)
    c_p = detuned_backaction(detuned)
    assert n[0, 0] == 0.0
    assert n[1, 1] == pytest.approx(c_p + 2e-9 * (2 * 2e7 + 1), rel=1e-12)


def test_effective_modulated_frozen_values(detuned):
    p = dataclasses.replace(detuned, alpha=0.01)
    shifted = effective_modulated(p)
    bare = effective_modulated(p, variant="bare-frame")
    assert shifted.zeta_eff == pytest.approx(4.82e-3, rel=1e-3)
    assert bare.zeta_eff == shifted.zeta_eff
    assert shifted.omega_eff == pytest.approx(-6.589999999999998e-05, rel=1e-9)
    assert bare.omega_eff == pytest.approx(-0.017975899999999998, rel=1e-9)


def test_effective_modulated_rejects_zero_detuning(detuned):
    with pytest.raises(ParameterError):
        effective_modulated(dataclasses.replace(detuned, delta=0.0, alpha=0.01))
    with pytest.raises(ParameterError, match="needs nonzero detuning"):
        modulated_backaction(SystemParams(delta=0.0))


def test_elimination_needs_a_linewidth_or_a_detuning():
    with pytest.raises(ParameterError, match="needs kappa or delta nonzero"):
        effective_detuned(SystemParams(kappa=0.0, delta=0.0))


def test_effective_modulated_rejects_unknown_variant(detuned):
    with pytest.raises(ParameterError):
        effective_modulated(dataclasses.replace(detuned, alpha=0.01), variant="lab")


@settings(max_examples=40)
@given(positive, positive, st.floats(0.001, 0.2))
def test_modulated_coupling_shift_is_frame_independent(omega, lam, alpha):
    p = SystemParams(omega_x=omega, delta=5.0, lam=lam, alpha=alpha)
    shifted = effective_modulated(p)
    bare = effective_modulated(p, variant="bare-frame")
    assert shifted.zeta_eff == bare.zeta_eff


def test_shifted_frame_frequency_zero_crossing(detuned):
    # omega_eff changes sign where the drive exactly cancels the coupling
    # shift: alpha* = 2 lam^2 / (omega_x delta - 2 lam^2).
    alpha_star = 2 * detuned.lam**2 / (detuned.omega_x * detuned.delta - 2 * detuned.lam**2)
    assert alpha_star == pytest.approx(0.03734439834024896, rel=1e-14)
    at_star = effective_modulated(dataclasses.replace(detuned, alpha=alpha_star))
    assert abs(at_star.omega_eff) < 1e-15


def test_modulated_backaction_frozen_value(detuned):
    assert modulated_backaction(detuned) == pytest.approx(7.2e-4, rel=1e-12)


def test_eliminated_modulated_noise_feeds_momentum_only(detuned):
    # The lab-frame momentum noise 2 gamma (2 nbar + 1), averaged over a trap
    # period, feeds each rotating quadrature with half of it.
    p = dataclasses.replace(detuned, alpha=0.01)
    n = build_eliminated_modulated(p).diffusion_at(0.0)
    c_x = modulated_backaction(p)
    thermal = 1e-9 * (2 * 2e7 + 1)
    assert n[0, 0] == pytest.approx(c_x + thermal, rel=1e-12)
    assert n[1, 1] == pytest.approx(c_x + thermal, rel=1e-12)
    assert n[0, 1] == n[1, 0] == 0.0


def test_eliminated_modulated_drift_structure(detuned):
    p = dataclasses.replace(detuned, alpha=0.01, phi=0.3)
    eff = effective_modulated(p)
    a = build_eliminated_modulated(p).drift_at(0.0)
    zs = eff.zeta_eff * math.sin(p.phi)
    zc = eff.zeta_eff * math.cos(p.phi)
    assert a[0, 0] == pytest.approx(-zs - p.gamma / 2, rel=1e-12)
    assert a[0, 1] == pytest.approx(eff.omega_eff - zc, rel=1e-12)
    assert a[1, 0] == pytest.approx(-eff.omega_eff - zc, rel=1e-12)
    assert a[1, 1] == pytest.approx(zs - p.gamma / 2, rel=1e-12)


@pytest.mark.parametrize("variant", ["shifted-frame", "bare-frame"])
def test_eliminated_modulated_thermal_fixed_point(variant):
    # Without drive and coupling the averaged bath relaxes to the thermal state.
    p = SystemParams(omega_x=1.0, kappa=0.2, delta=5.0, lam=0.0, alpha=0.0, q_m=1e6, nbar=3.0)
    result = steady_state(build_eliminated_modulated(p, variant=variant))
    assert np.max(np.abs(result.covariance.entries - 7.0 * np.eye(2))) < 1e-10
    assert result.residual_norm < 1e-10


def test_bogoliubov_coefficients_frozen_values():
    u, v = bogoliubov_coefficients(0.4)
    assert u == pytest.approx(1.0206207261596576, rel=1e-14)
    assert v == pytest.approx(0.20412414523193154, rel=1e-14)


@settings(max_examples=60)
@given(st.floats(0.0, 1.99))
def test_bogoliubov_coefficients_are_normalized(alpha):
    u, v = bogoliubov_coefficients(alpha)
    assert u**2 - v**2 == pytest.approx(1.0, abs=1e-9)


def test_bogoliubov_coefficients_reject_strong_drive(resonant):
    # The Bogoliubov helpers and the cooling builder share one depth check.
    depth = r"modulation depth must be in \[0, 2\), got "
    for alpha in (-0.1, 2.0):
        with pytest.raises(ParameterError, match=depth + str(alpha)):
            bogoliubov_coefficients(alpha)
        with pytest.raises(ParameterError, match=depth + str(alpha)):
            bogoliubov_ground_variance(alpha)
    with pytest.raises(ParameterError, match=depth + "2.0"):
        build_bogoliubov_dissipative(dataclasses.replace(resonant, alpha=2.0))


def test_bogoliubov_ground_variance():
    assert bogoliubov_ground_variance(0.4) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert bogoliubov_ground_variance(1.0) == 1.0 / 3.0


def test_bogoliubov_builder_enforces_resonance(detuned):
    with pytest.raises(ParameterError):
        build_bogoliubov_dissipative(dataclasses.replace(detuned, alpha=0.4))


def test_bogoliubov_decoupled_thermal_fixed_point():
    p = SystemParams(omega_x=1.0, kappa=0.2, delta=1.0, lam=0.0, q_m=1e6, nbar=3.0)
    model = build_bogoliubov_dissipative(p)
    a = model.drift_at(0.0)
    n = model.diffusion_at(0.0)
    v = np.diag([1.0, 1.0, 7.0, 7.0])
    assert np.allclose(a @ v + v @ a.T + n, 0.0, atol=1e-12)


def test_bogoliubov_stack_equals_one_point_builds_bit_for_bit(resonant, rng):
    # Each row gets its own depths and its own alpha is not read.  The depths
    # include ones whose square rounds differently under libm pow (the
    # one-point build's alpha**2) and under multiplication, where the platform
    # has such depths.
    rows = [
        dataclasses.replace(resonant, gamma=1.0 / q_m, lam=lam, kappa=kappa, phi=phi, alpha=0.5)
        for q_m in (1e7, 1e12)
        for lam in (0.3, 2.0)
        for kappa in (1e-6, 0.2)
        for phi in (0.0, 1.3)
    ]
    alphas = rng.uniform(0.0, 2.0, size=(len(rows), 64))
    alphas[:, 0] = 0.0
    candidates = rng.uniform(0.0, 2.0, 20000)
    split = candidates[np.array([a**2 for a in candidates.tolist()]) != candidates**2][:32]
    alphas[:, 1 : 1 + split.size] = split
    drifts, noises, rates = bogoliubov_stack(rows, alphas)
    assert drifts.shape == (len(rows), 64, 4, 4) and noises.shape == (len(rows), 4, 4)
    for i, row in enumerate(rows):
        for j, alpha in enumerate(alphas[i].tolist()):
            model = build_bogoliubov_dissipative(dataclasses.replace(row, alpha=alpha))
            assert drifts[i, j].tobytes() == model.drift_at(0.0).tobytes()
            assert noises[i].tobytes() == model.diffusion_at(0.0).tobytes()
            assert rates[i, j] == model.fastest_rate


def test_bogoliubov_stack_refuses_what_the_one_point_build_refuses(resonant, detuned):
    alphas = np.full((2, 3), 0.3)
    alphas[1, 2] = 2.0
    with pytest.raises(ParameterError) as stacked:
        bogoliubov_stack([resonant, resonant], alphas)
    with pytest.raises(ParameterError) as single:
        build_bogoliubov_dissipative(dataclasses.replace(resonant, alpha=2.0))
    assert str(stacked.value) == str(single.value)
    assert str(stacked.value) == "modulation depth must be in [0, 2), got 2.0"
    with pytest.raises(ParameterError, match="requires delta = omega_x"):
        bogoliubov_stack([resonant, detuned], np.zeros((2, 1)))


def test_bogoliubov_stack_needs_one_row_of_depths_per_row():
    with pytest.raises(ParameterError, match="need one row of depths"):
        bogoliubov_stack([SystemParams(delta=1.0)], [0.1])


def test_builder_registry():
    assert set(MODEL_BUILDERS) == {
        "full",
        "full-modulated",
        "eliminated-detuned",
        "eliminated-modulated",
        "bogoliubov",
    }
    assert builder_for("full") is build_full_cs
    with pytest.raises(ParameterError):
        builder_for("reduced")
