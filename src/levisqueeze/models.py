"""Model builders for coherent-scattering optomechanics of a trapped particle.

All rates are quoted in units of the trap frequency omega_x unless stated
otherwise.  Five linearized models are provided, every one as a drift and
diffusion pair in the vacuum = identity convention of :mod:`.gaussian`:

``full``
    Cavity mode plus mechanical mode, lab frame, static trap.
``full-modulated``
    Same, with the trap stiffness modulated at twice the trap frequency,
    which also modulates the light-particle coupling.
``eliminated-detuned``
    Mechanics alone after adiabatic elimination of a far-detuned cavity;
    the cavity survives as a parametric term plus momentum back-action.
``eliminated-modulated``
    Mechanics alone in the frame rotating at the trap frequency, keeping
    the resonant part of the modulated dynamics.
``bogoliubov``
    Cavity plus mechanics in the rotating frame at delta = omega_x, where
    the cavity cools a Bogoliubov mode of the modulated particle.

The lab-frame Hamiltonian H(M) and its bath are stated once, in ``_lab_frame``,
which ``full``, ``full-modulated`` and ``eliminated-detuned`` read.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import ParameterError
from .gaussian import (
    CAVITY_MECH,
    MECH,
    CovarianceMatrix,
    LinearGaussianModel,
    QuadratureBasis,
    drift_from_quadratic,
)

SQRT2 = math.sqrt(2.0)

#: Selector for the effective modulated frequency: "shifted-frame" absorbs the
#: static coupling-induced spring shift into the rotating frame (default),
#: "bare-frame" keeps it in omega_eff.
FREQUENCY_VARIANTS = ("shifted-frame", "bare-frame")


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the coherent-scattering setup.

    Parameters
    ----------
    omega_x:
        Trap (mechanical) frequency; the unit of every other rate.
    kappa:
        Cavity amplitude decay rate.
    delta:
        Cavity detuning from the tweezer.
    lam:
        Coherent-scattering coupling rate between mechanics and cavity.
    gamma:
        Mechanical amplitude damping rate.  May be given instead as a
        quality factor through ``q_m`` (gamma = omega_x / q_m).
    nbar:
        Thermal occupation of the mechanical bath.
    nbar0:
        Initial mechanical occupation (sets the initial covariance only).
    alpha:
        Depth of the trap-stiffness modulation at 2 omega_x.
    phi:
        Phase of that modulation.

    Every field, and q_m, must be finite; ParameterError otherwise.
    """

    omega_x: float = 1.0
    kappa: float = 0.0
    delta: float = 0.0
    lam: float = 0.0
    gamma: float = 0.0
    nbar: float = 0.0
    nbar0: float = 0.0
    alpha: float = 0.0
    phi: float = 0.0
    q_m: InitVar[float | None] = None

    def __post_init__(self, q_m: float | None) -> None:
        values = {f.name: getattr(self, f.name) for f in fields(self)} | {"q_m": q_m}
        for name, value in values.items():
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.omega_x <= 0.0:
            raise ParameterError(f"omega_x must be positive, got {self.omega_x}")
        if q_m is not None:
            if self.gamma != 0.0:
                raise ParameterError("give gamma or q_m, not both")
            if q_m <= 0.0:
                raise ParameterError(f"quality factor must be positive, got {q_m}")
            object.__setattr__(self, "gamma", self.omega_x / q_m)
            if not math.isfinite(self.gamma):
                raise ParameterError(f"gamma = omega_x / q_m must be finite, got {self.gamma}")
        for name in ("kappa", "gamma", "nbar", "nbar0", "alpha"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be nonnegative, got {getattr(self, name)}")

    def with_value(self, name: str, value: float) -> "SystemParams":
        """Copy with one field replaced; accepts q_m as an alias for gamma."""
        return self._with_values({name: value})

    def _with_values(self, values: Mapping[str, float]) -> "SystemParams":
        """Copy with fields replaced in one step; q_m replaces gamma, as in the constructor."""
        known = {f.name for f in fields(self)} | {"q_m"}
        for name in values:
            if name not in known:
                raise ParameterError(f"unknown parameter {name!r}")
        return replace(self, **({"gamma": 0.0} if "q_m" in values else {}) | dict(values))


def initial_covariance(params: SystemParams, basis: QuadratureBasis) -> CovarianceMatrix:
    """Initial state: cavity in vacuum, mechanics thermal at nbar0."""
    diag = []
    for label in basis.labels:
        diag.append(2.0 * params.nbar0 + 1.0 if label in ("x", "p") else 1.0)
    return CovarianceMatrix(basis, np.diag(diag))


# ---------------------------------------------------------------------------
# Full two-mode models (lab frame)
# ---------------------------------------------------------------------------


def _lab_frame(
    params: SystemParams,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], float]:
    """Parts (H0, H1, H2) of H(M) = H0 + M H1 + M^2 H2, the bath and the fastest rate.

    H(M) = (delta/2)(X^2+Y^2) + (omega_x/2) p^2 + (omega_x/2) M^2 x^2 - sqrt(2) lam M x X
    at trap-stiffness factor M, in (X, Y, x, p).  The bath, as decay vector and
    diffusion: decay kappa, noise 2 kappa on each cavity quadrature; damping
    gamma, noise 2 gamma (2 nbar + 1) on p alone.
    """
    p = params
    h = np.zeros((3, 4, 4))
    h[0, 0, 0] = h[0, 1, 1] = p.delta
    h[0, 3, 3] = p.omega_x
    h[1, 0, 2] = h[1, 2, 0] = -SQRT2 * p.lam
    h[2, 2, 2] = p.omega_x
    decay = np.array([p.kappa, p.kappa, 0.0, p.gamma])
    noise = np.diag([2.0 * p.kappa, 2.0 * p.kappa, 0.0, 2.0 * p.gamma * (2.0 * p.nbar + 1.0)])
    rate = max(abs(p.delta), p.kappa, 2.0 * p.omega_x, p.gamma)
    return h, decay, noise, rate


def build_full_cs(params: SystemParams) -> LinearGaussianModel:
    """Cavity + mechanics with static trap and coherent-scattering coupling.

    The model of :func:`_lab_frame` at M = 1, rows (X, Y, x, p).
    """
    h, decay, noise, rate = _lab_frame(params)
    a = drift_from_quadratic(h.sum(axis=0), decay)
    return LinearGaussianModel.constant(CAVITY_MECH, a, noise, rate)


def _squared(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Each entry's libm x ** 2; numpy's product rounds differently about once in a thousand."""
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


def _lab_stack(rows: Sequence[SystemParams]) -> LinearGaussianModel:
    """Lab-frame models of k rows at M(t) = 1 + alpha cos(2 omega_x t + phi), as one model.

    drift_at and diffusion_at broadcast the times against the row axis, so
    times of shape (s, 1) give (s, k, 4, 4); one row has no row axis.  Rows
    of different fastest rates, so default steps, raise ParameterError.
    """
    hs, decays, noises, rates = zip(*[_lab_frame(p) for p in rows])
    if len(set(rates)) > 1:
        raise ParameterError("stacked periodic models must share a basis and a default step")
    lead = (len(rows),) if len(rows) > 1 else ()
    n = np.array(noises).reshape(lead + (4, 4))
    bath = np.array([np.vstack([decay, np.zeros((2, 4))]) for decay in decays])
    # A(t) = A0 + M A1 + M^2 A2 with the bath in A0.  Every entry of H is a
    # single monomial in M and Omega only permutes and negates entries, so
    # the sum below equals the drift of H(M) bit for bit.
    a0, a1, a2 = np.moveaxis(drift_from_quadratic(np.array(hs), bath), 1, 0).reshape((3,) + n.shape)
    columns = np.array([(p.alpha, 2.0 * p.omega_x, p.phi) for p in rows]).T
    alpha, drive, phi = columns.reshape((3,) + lead)

    def drift_at(t: float | NDArray[np.float64]) -> NDArray[np.float64]:
        m = 1.0 + alpha * np.cos(drive * np.asarray(t, dtype=float) + phi)
        return a0 + m[..., None, None] * a1 + _squared(m)[..., None, None] * a2

    return LinearGaussianModel(
        basis=CAVITY_MECH,
        drift_at=drift_at,
        diffusion_at=lambda t: np.broadcast_to(n, np.broadcast_shapes(np.shape(t), lead) + (4, 4)),
        is_time_independent=False,
        fastest_rate=rates[0],
    )


def build_full_modulated(params: SystemParams) -> LinearGaussianModel:
    """Two-mode model with trap stiffness modulated at 2 omega_x: the one-row :func:`_lab_stack`.

    M enters the potential as omega_x M^2 x^2 / 2 and scales the coupling to
    lam M, since both derive from the same tweezer field.  At alpha = 0 this
    is the constant build_full_cs model.
    """
    return build_full_cs(params) if params.alpha == 0.0 else _lab_stack([params])


# ---------------------------------------------------------------------------
# Adiabatically eliminated single-mode models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveParams:
    """Effective oscillation and parametric-gain rates of a reduced model."""

    omega_eff: float
    zeta_eff: float


def _require_detuned(params: SystemParams) -> None:
    if params.kappa == 0.0 and params.delta == 0.0:
        raise ParameterError("adiabatic elimination needs kappa or delta nonzero")


def effective_detuned(params: SystemParams) -> EffectiveParams:
    """Effective rates after eliminating a far-detuned cavity.

    zeta_eff = delta lam^2 / (kappa^2 + delta^2) is the parametric gain and
    omega_eff = omega_x - zeta_eff the shifted frequency, so the position
    equation keeps its bare form dx/dt = omega_x p.
    """
    _require_detuned(params)
    zeta = params.delta * params.lam**2 / (params.kappa**2 + params.delta**2)
    return EffectiveParams(omega_eff=params.omega_x - zeta, zeta_eff=zeta)


def detuned_backaction(params: SystemParams) -> float:
    """Momentum diffusion 4 lam^2 kappa / (kappa^2 + delta^2) left by the cavity."""
    _require_detuned(params)
    return 4.0 * params.lam**2 * params.kappa / (params.kappa**2 + params.delta**2)


def threshold_coupling(params: SystemParams) -> float:
    """Coupling where the eliminated detuned model turns unstable.

    Solves omega_eff = zeta_eff for lam, giving
    lam_th = sqrt(omega_x (kappa^2 + delta^2) / (2 delta)); beyond it the
    restoring force -(omega_eff - zeta_eff) x changes sign.
    """
    if params.delta <= 0.0:
        raise ParameterError("threshold exists only for positive detuning")
    return math.sqrt(params.omega_x * (params.kappa**2 + params.delta**2) / (2.0 * params.delta))


def build_eliminated_detuned(params: SystemParams) -> LinearGaussianModel:
    """Mechanics alone after adiabatic elimination of the detuned cavity.

    Damping on p and noise come from the bath of :func:`_lab_frame`, plus
    the momentum back-action of :func:`detuned_backaction`.
    """
    p = params
    eff = effective_detuned(p)
    _, decay, noise, _ = _lab_frame(p)
    a = np.array(
        [
            [0.0, eff.omega_eff + eff.zeta_eff],
            [-(eff.omega_eff - eff.zeta_eff), -decay[3]],
        ]
    )
    n = noise[2:, 2:] + np.diag([0.0, detuned_backaction(p)])
    return LinearGaussianModel.constant(MECH, a, n, max(p.omega_x, p.gamma))


def _require_modulated(params: SystemParams) -> None:
    if params.delta == 0.0:
        raise ParameterError("modulated elimination needs nonzero detuning")


def effective_modulated(params: SystemParams, variant: str = "shifted-frame") -> EffectiveParams:
    """Effective rates of the modulated scheme in the rotating frame.

    The parametric gain is the same for both variants,

        zeta_eff = alpha (omega_x delta - 2 lam^2) / (2 delta),

    while the residual frequency depends on how the static coupling-induced
    spring shift is booked:

        shifted-frame: omega_eff = (omega_x delta alpha^2
                                    - 2 lam^2 (alpha + alpha^2)) / (4 delta)
        bare-frame:    omega_eff = (omega_x delta alpha^2
                                    - 2 lam^2 (2 + alpha^2)) / (4 delta)

    "shifted-frame" references the frame rotating at the spring-shifted
    mechanical frequency, so omega_eff vanishes with the modulation depth and
    changes sign near alpha = 2 lam^2 / (omega_x delta - 2 lam^2).
    """
    p = params
    _require_modulated(p)
    if variant not in FREQUENCY_VARIANTS:
        raise ParameterError(f"variant must be one of {FREQUENCY_VARIANTS}, got {variant!r}")
    zeta = p.alpha * (p.omega_x * p.delta - 2.0 * p.lam**2) / (2.0 * p.delta)
    if variant == "shifted-frame":
        num = p.omega_x * p.delta * p.alpha**2 - 2.0 * p.lam**2 * (p.alpha + p.alpha**2)
    else:
        num = p.omega_x * p.delta * p.alpha**2 - 2.0 * p.lam**2 * (2.0 + p.alpha**2)
    return EffectiveParams(omega_eff=num / (4.0 * p.delta), zeta_eff=zeta)


def modulated_backaction(params: SystemParams) -> float:
    """Residual cavity noise lam^2 kappa / delta^2 per rotating quadrature."""
    _require_modulated(params)
    return params.lam**2 * params.kappa / params.delta**2


def build_eliminated_modulated(
    params: SystemParams, variant: str = "shifted-frame"
) -> LinearGaussianModel:
    """Mechanics alone, rotating frame, resonant part of the modulated drive.

    The drift mixes a residual rotation omega_eff with a parametric term of
    strength zeta_eff whose squeezing axis is set by the modulation phase:

        A = [[-zeta sin(phi) - gamma/2,     omega_eff - zeta cos(phi)],
             [-omega_eff - zeta cos(phi),   zeta sin(phi) - gamma/2]]

    The thermal bath is the lab-frame one of ``full-modulated`` averaged over
    a trap period, as in ``build_bogoliubov_dissipative``: damping gamma/2 and
    force noise gamma(2 nbar + 1) on each rotating quadrature, so that the
    drive-free fixed point is the thermal state.  Both quadratures also carry
    the residual cavity back-action, giving the diffusion

        N = diag(c + gamma(2 nbar + 1), c + gamma(2 nbar + 1))

    with c from :func:`modulated_backaction`.
    """
    p = params
    eff = effective_modulated(p, variant)
    zs, zc = eff.zeta_eff * math.sin(p.phi), eff.zeta_eff * math.cos(p.phi)
    a = np.array(
        [
            [-zs - p.gamma / 2.0, eff.omega_eff - zc],
            [-eff.omega_eff - zc, zs - p.gamma / 2.0],
        ]
    )
    noise = modulated_backaction(p) + p.gamma * (2.0 * p.nbar + 1.0)
    n = np.diag([noise, noise])
    return LinearGaussianModel.constant(
        MECH, a, n, max(abs(eff.omega_eff) + abs(eff.zeta_eff), p.gamma)
    )


# ---------------------------------------------------------------------------
# Bogoliubov cooling model (rotating frame, delta = omega_x)
# ---------------------------------------------------------------------------


def _check_depth(alpha: float) -> None:
    """Refuse a modulation depth outside [0, 2), where the Bogoliubov mode exists."""
    if not 0.0 <= alpha < 2.0:
        raise ParameterError(f"modulation depth must be in [0, 2), got {alpha}")


def bogoliubov_coefficients(alpha: float) -> tuple[float, float]:
    """Coefficients (u, v) of the mode beta = u b + v b^dagger.

    u = 2 / sqrt(4 - alpha^2) and v = alpha / sqrt(4 - alpha^2) satisfy
    u^2 - v^2 = 1 for every modulation depth below 2.
    """
    _check_depth(alpha)
    root = math.sqrt(4.0 - alpha**2)
    return 2.0 / root, alpha / root


def bogoliubov_ground_variance(alpha: float) -> float:
    """Squeezed variance (2 - alpha) / (2 + alpha) of the Bogoliubov vacuum."""
    _check_depth(alpha)
    return (2.0 - alpha) / (2.0 + alpha)


def _require_resonant(params: SystemParams) -> None:
    if not math.isclose(params.delta, params.omega_x, rel_tol=1e-12, abs_tol=0.0):
        raise ParameterError(
            f"rotating-frame cooling model requires delta = omega_x, got delta={params.delta}"
        )


def bogoliubov_stack(
    rows: Sequence[SystemParams], alphas: ArrayLike
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Cooling-model drifts of several parameter rows, each at several depths.

    alphas[i] are the depths of rows[i], whose own alpha is not read.
    Returns the drifts (r, k, 4, 4), the depth-independent diffusions
    (r, 4, 4) and the fastest rates (r, k) of the model described in
    build_bogoliubov_dissipative, which is its one-point case.  A row without
    delta = omega_x or a depth outside [0, 2) raises ParameterError.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 2 or len(alphas) != len(rows):
        raise ParameterError(f"need one row of depths per parameter row, got {alphas.shape}")
    for p in rows:
        _require_resonant(p)
    outside = ~((alphas >= 0.0) & (alphas < 2.0))
    if outside.any():
        _check_depth(float(alphas[outside][0]))

    columns = np.array(
        [(p.omega_x, p.lam, p.kappa, p.gamma, p.nbar, math.cos(p.phi), math.sin(p.phi))
         for p in rows]
    )
    w, lam, kappa, gamma, nbar, c, s = columns.reshape(-1, 7).T.copy()[..., None]
    g = lam / SQRT2
    alpha_sq = _squared(alphas)
    h = np.zeros(alphas.shape + (4, 4))
    h[..., 2, 2] = w * alphas / 2.0 * c + w * alpha_sq / 4.0
    h[..., 3, 3] = -w * alphas / 2.0 * c + w * alpha_sq / 4.0
    h[..., 2, 3] = h[..., 3, 2] = -w * alphas / 2.0 * s
    h[..., 0, 2] = h[..., 2, 0] = -g * (1.0 + alphas / 2.0 * c)
    h[..., 1, 3] = h[..., 3, 1] = -g * (1.0 - alphas / 2.0 * c)
    h[..., 1, 2] = h[..., 2, 1] = g * alphas / 2.0 * s
    h[..., 0, 3] = h[..., 3, 0] = g * alphas / 2.0 * s
    decay = np.concatenate([kappa, kappa, gamma / 2.0, gamma / 2.0], axis=-1)[:, None]
    noises = np.zeros((len(rows), 4, 4))
    noises[:, 0, 0] = noises[:, 1, 1] = 2.0 * kappa[:, 0]
    noises[:, 2, 2] = noises[:, 3, 3] = (gamma * (2.0 * nbar + 1.0))[:, 0]
    rates = np.maximum(np.maximum(kappa, lam), np.maximum(w * alphas, gamma))
    return drift_from_quadratic(h, decay), noises, rates


def build_bogoliubov_dissipative(params: SystemParams) -> LinearGaussianModel:
    """Cavity + mechanics in the rotating frame at delta = omega_x.

    The resonant interaction cools the Bogoliubov mode of the modulated
    particle toward a squeezed vacuum.  In quadratures the Hamiltonian is

        H = (omega_x alpha / 4) [cos(phi)(x^2 - p^2) - sin(phi)(xp + px)]
            + (omega_x alpha^2 / 8)(x^2 + p^2)
            - (lam/sqrt(2)) [(1 + (alpha/2) cos(phi)) x X
                             + (1 - (alpha/2) cos(phi)) p Y
                             - (alpha/2) sin(phi) (x Y + p X)]

    with rotating-frame decay (kappa, kappa, gamma/2, gamma/2) and diffusion
    diag(2 kappa, 2 kappa, gamma(2 nbar + 1), gamma(2 nbar + 1)), whose
    drive-free fixed point is the thermal state.  This is the one-point case
    of :func:`bogoliubov_stack`.
    """
    drifts, noises, rates = bogoliubov_stack([params], [[params.alpha]])
    return LinearGaussianModel.constant(CAVITY_MECH, drifts[0, 0], noises[0], float(rates[0, 0]))


MODEL_BUILDERS = {
    "full": build_full_cs,
    "full-modulated": build_full_modulated,
    "eliminated-detuned": build_eliminated_detuned,
    "eliminated-modulated": build_eliminated_modulated,
    "bogoliubov": build_bogoliubov_dissipative,
}


def builder_for(variant: str):
    """Look up a model builder by its CLI name."""
    try:
        return MODEL_BUILDERS[variant]
    except KeyError:
        raise ParameterError(
            f"unknown model {variant!r}, expected one of {sorted(MODEL_BUILDERS)}"
        ) from None
