"""Covariance dynamics: transients, steady states, stability, thresholds.

The only differential equation in the package is the Lyapunov flow

    dV/dt = A(t) V + V A(t)^T + N(t),

integrated with the classical fourth-order Runge-Kutta scheme at fixed step.
Every step is advanced as two half steps; comparing against the single full
step at the stored samples gives a step-halving error estimate that aborts
the run when the step is too coarse for the requested dynamics.
On the row-major vec(V) the flow is affine with one generator, A (x) I + I (x) A,
which steady_state solves with and a constant model steps by in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BasisError,
    BracketError,
    CovarianceError,
    IntegrationError,
    NumericalError,
    ParameterError,
    UnstableModelError,
)
from .gaussian import (
    CovarianceMatrix,
    LinearGaussianModel,
    ModelDescriptor,
    QuadratureBasis,
    _frozen,
    lyapunov_residual,
)

#: Step-halving error (relative to the covariance scale) beyond which a
#: fixed-step run is rejected.
STEP_ERROR_LIMIT = 1e-6
#: Upper bound on the number of stored samples per run.
MAX_STORED = 5000
#: Default step resolves the fastest generator rate to one percent.
DT_RESOLUTION = 0.01
#: Stored samples of one periodic cycle, both endpoints included.
CYCLE_SAMPLES = 257


@dataclass(frozen=True)
class IntegratorStats:
    """Bookkeeping of one fixed-step integration."""

    n_steps: int
    dt: float
    stride: int
    n_stored: int
    max_step_error: float


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Stored Lyapunov trajectory: covariances[k], in basis order, is V(times[k])."""

    times: NDArray[np.float64]
    covariances: NDArray[np.float64]
    basis: QuadratureBasis
    stats: IntegratorStats
    descriptor: ModelDescriptor


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Spectrum of the drift matrix and the verdict derived from it."""

    eigenvalues: NDArray[np.complex128]
    max_real_part: float
    stable: bool


@dataclass(frozen=True, eq=False)
class SteadyStateResult:
    covariance: CovarianceMatrix
    residual_norm: float
    stability: StabilityReport


@dataclass(frozen=True, eq=False)
class PeriodicSteadyState:
    """Periodic orbit of the Lyapunov flow for a time-periodic model.

    times/covariances resolve one full period as in EvolutionResult (endpoints
    included, V(period) = V(0) up to the stated residual).  spectral_radius is
    the largest Floquet multiplier modulus of the homogeneous flow; the orbit
    exists iff it is below one.
    """

    period: float
    times: NDArray[np.float64]
    covariances: NDArray[np.float64]
    basis: QuadratureBasis
    spectral_radius: float
    residual_norm: float
    descriptor: ModelDescriptor


def stability(model: LinearGaussianModel) -> StabilityReport:
    """Classify a constant drift: stable iff all Re(eig) < 0.

    The instantaneous drift says nothing about a time-periodic model, so
    those are refused; periodic_steady_state judges them by their Floquet
    multipliers.
    """
    if not model.is_time_independent:
        raise ParameterError(
            "stability needs a time-independent model; "
            "use periodic_steady_state for a periodic drive"
        )
    eig = np.linalg.eigvals(model.drift_at(0.0))
    max_re = float(np.max(eig.real))
    return StabilityReport(eigenvalues=eig, max_real_part=max_re, stable=max_re < 0.0)


def _default_dt(model: LinearGaussianModel) -> float:
    if model.fastest_rate <= 0.0:
        raise ParameterError("model advertises no intrinsic rate; pass dt explicitly")
    return DT_RESOLUTION / model.fastest_rate


def _rk4(f, t: float, v: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    k1 = f(t, v)
    k2 = f(t + 0.5 * h, v + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, v + 0.5 * h * k2)
    k4 = f(t + h, v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _store(
    out_t: list[float], out_v: list[NDArray[np.float64]], t: float, v: NDArray[np.float64]
) -> None:
    v = 0.5 * v + 0.5 * v.T  # halved first: only a diverged state is non-finite
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"covariance diverged at t = {t:g}")
    out_t.append(t)
    out_v.append(v)


def _sample_array(mats: list[NDArray[np.float64]]) -> NDArray[np.float64]:
    """The stored samples as one read-only array; a non-positive diagonal raises."""
    covs = np.stack(mats)
    bad = np.any(np.diagonal(covs, axis1=1, axis2=2) <= 0.0, axis=1)
    if bad.any():
        raise CovarianceError(f"non-positive diagonal entries {np.diag(covs[bad.argmax()])}")
    covs.flags.writeable = False
    return covs


def _step_error(full: NDArray[np.float64], halved: NDArray[np.float64]) -> float:
    scale = max(1.0, float(np.max(np.abs(halved))))
    return float(np.max(np.abs(full - halved))) / scale


def _track_step_error(max_err: float, err: float, t: float, h: float) -> float:
    """Running maximum of the step-halving error; raises past STEP_ERROR_LIMIT."""
    max_err = max(max_err, err)
    if max_err > STEP_ERROR_LIMIT:
        raise IntegrationError(
            f"step-halving error {max_err:.3e} above {STEP_ERROR_LIMIT:.0e} "
            f"at t = {t:g}; reduce dt below {h:g}"
        )
    return max_err


def _generator(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Generator of V -> A V + V A^T acting on the row-major vec(V)."""
    eye = np.eye(a.shape[0])
    return np.kron(a, eye) + np.kron(eye, a)


def _rk4_map(
    gen: NDArray[np.float64], nvec: NDArray[np.float64], h: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """One RK4 step of dx/dt = gen x + nvec as the affine map x -> M x + c.

    M = I + hL Q(hL) and c = h Q(hL) nvec with Q(z) = 1 + z/2 + z^2/6 + z^3/24.
    """
    z = h * gen
    eye = np.eye(gen.shape[0])
    q = eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0))
    return eye + z @ q, h * (q @ nvec)


def evolve(
    model: LinearGaussianModel,
    v0: CovarianceMatrix | NDArray[np.float64],
    t_end: float,
    dt: float | None = None,
) -> EvolutionResult:
    """Integrate the Lyapunov flow from v0 over [0, t_end].

    The nominal step is dt (default: DT_RESOLUTION over the model's fastest
    rate, trimmed so the grid lands exactly on t_end); each step is taken as
    two half steps.  At most MAX_STORED interior samples are kept, always
    including both endpoints.  Raises IntegrationError when the step-halving
    estimate exceeds STEP_ERROR_LIMIT.
    """
    if isinstance(v0, CovarianceMatrix):
        if v0.basis.labels != model.basis.labels:
            raise BasisError(
                f"initial covariance basis {v0.basis.labels} does not match "
                f"model basis {model.basis.labels}"
            )
        start = v0.entries
    else:
        start = CovarianceMatrix(model.basis, np.asarray(v0, dtype=float)).entries
    if t_end <= 0.0:
        raise ParameterError(f"t_end must be positive, got {t_end}")
    if dt is None:
        dt = _default_dt(model)
    if dt <= 0.0:
        raise ParameterError(f"dt must be positive, got {dt}")

    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    h = t_end / n_steps
    # Leave room for both endpoints so the stored count never exceeds the cap.
    stride = max(1, math.ceil(n_steps / (MAX_STORED - 2)))

    times: list[float] = []
    mats: list[NDArray[np.float64]] = []
    max_err = 0.0
    v = np.array(start)

    if model.is_time_independent:
        # One nominal step is a fixed affine map on vec(V): two half steps
        # compose into (M_half^2, M_half c_half + c_half), and the single full
        # step gives the defect used for the error estimate.
        d = model.basis.dim
        gen = _generator(np.asarray(model.drift_at(0.0), dtype=float))
        nvec = np.asarray(model.diffusion_at(0.0), dtype=float).ravel()
        m_half, c_half = _rk4_map(gen, nvec, 0.5 * h)
        m_half, c_half = m_half @ m_half, m_half @ c_half + c_half
        m_full, c_full = _rk4_map(gen, nvec, h)
        defect_m = m_full - m_half
        defect_c = c_full - c_half

        vec = v.ravel().copy()
        _store(times, mats, 0.0, vec.reshape(d, d))
        for step in range(1, n_steps + 1):
            new = m_half @ vec + c_half
            if step % stride == 0 or step == n_steps:
                err = float(np.max(np.abs(defect_m @ vec + defect_c)))
                err /= max(1.0, float(np.max(np.abs(new))))
                max_err = _track_step_error(max_err, err, step * h, h)
                _store(times, mats, step * h, new.reshape(d, d))
            vec = new
    else:
        a_at, n_at = model.drift_at, model.diffusion_at

        def f(t: float, m: NDArray[np.float64]) -> NDArray[np.float64]:
            a = a_at(t)
            return a @ m + m @ a.T + n_at(t)

        _store(times, mats, 0.0, v)
        for step in range(1, n_steps + 1):
            t = (step - 1) * h
            half = _rk4(f, t, v, 0.5 * h)
            new = _rk4(f, t + 0.5 * h, half, 0.5 * h)
            if step % stride == 0 or step == n_steps:
                err = _step_error(_rk4(f, t, v, h), new)
                max_err = _track_step_error(max_err, err, step * h, h)
                _store(times, mats, step * h, new)
            v = new

    stats = IntegratorStats(
        n_steps=n_steps, dt=h, stride=stride, n_stored=len(times), max_step_error=max_err
    )
    return EvolutionResult(
        times=_frozen(times),
        covariances=_sample_array(mats),
        basis=model.basis,
        stats=stats,
        descriptor=model.descriptor,
    )


def steady_state(model: LinearGaussianModel) -> SteadyStateResult:
    """Solve A V + V A^T + N = 0 as a dense Kronecker system.

    Only defined for time-independent, strictly stable models; the residual
    of the returned covariance is checked against the diffusion scale with an
    allowance for the backward error of the direct solve (which grows with
    ||A|| ||V|| and is unavoidable for large thermal covariances).
    """
    if not model.is_time_independent:
        raise ParameterError("steady state requires a time-independent model")
    report = stability(model)
    if not report.stable:
        raise UnstableModelError(
            f"drift has max Re(eig) = {report.max_real_part:.3e} >= 0; no steady state"
        )
    a = np.asarray(model.drift_at(0.0), dtype=float)
    n = np.asarray(model.diffusion_at(0.0), dtype=float)
    d = a.shape[0]
    try:
        vec = np.linalg.solve(_generator(a), -n.ravel())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular Lyapunov system: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise NumericalError("non-finite steady-state solution")
    v = vec.reshape(d, d)
    v = 0.5 * (v + v.T)
    res = float(np.max(np.abs(lyapunov_residual(a, v, n))))
    limit = 1e-10 * max(1e-300, float(np.max(np.abs(n))))
    limit += 16.0 * np.finfo(float).eps * float(np.max(np.abs(a))) * float(np.max(np.abs(v)))
    if res > limit:
        raise NumericalError(f"steady-state residual {res:.3e} above tolerance {limit:.3e}")
    return SteadyStateResult(
        covariance=CovarianceMatrix(model.basis, v), residual_norm=res, stability=report
    )


def periodic_steady_state(model: LinearGaussianModel, period: float) -> PeriodicSteadyState:
    """Quasistationary cycle of a model with period-periodic coefficients.

    The Lyapunov flow over one period is an affine map on vec(V); its fixed
    point is the covariance the transient settles onto, without integrating
    through the slow relaxation.  One pass of the fourth-order stepper used
    by evolve carries the map's columns, so the result matches a long evolve
    run up to the integration tolerance; the cycle samples are read from the
    same pass, CYCLE_SAMPLES of them at the default step of evolve.  For
    time-independent models this reduces to steady_state for any choice of
    period.
    """
    if period <= 0.0:
        raise ParameterError(f"period must be positive, got {period}")
    n_steps = max(1, math.ceil(period / _default_dt(model) - 1e-12))
    h = period / n_steps
    d = model.basis.dim
    a_at, n_at = model.drift_at, model.diffusion_at

    # Slice 0 carries the inhomogeneous flow (starts at zero, feels N); the
    # remaining d*d slices propagate the canonical basis matrices without N,
    # giving the homogeneous map.
    stack = np.concatenate((np.zeros((1, d, d)), np.eye(d * d).reshape(d * d, d, d)))

    def f(t: float, s: NDArray[np.float64]) -> NDArray[np.float64]:
        a = np.asarray(a_at(t), dtype=float)
        out = a @ s + s @ a.T
        out[0] += n_at(t)
        return out

    # V(t) = slice_0(t) + sum_j vec(V0)_j slice_{j+1}(t), so keeping the stack
    # at the stored steps resolves the cycle once V0 is known.
    stride = max(1, math.ceil(n_steps / (CYCLE_SAMPLES - 1)))
    sample_t = [0.0]
    snapshots = [stack]
    for step in range(1, n_steps + 1):
        stack = _rk4(f, (step - 1) * h, stack, h)
        if step % stride == 0 or step == n_steps:
            sample_t.append(step * h)
            snapshots.append(stack)
    if not np.all(np.isfinite(stack)):
        raise NumericalError("period map diverged; reduce dt")
    offset = stack[0].ravel()
    hom = stack[1:].reshape(d * d, d * d).T

    radius = float(np.max(np.abs(np.linalg.eigvals(hom))))
    if radius >= 1.0:
        raise UnstableModelError(
            f"Floquet multiplier modulus {radius:.6g} >= 1; no periodic steady state"
        )
    try:
        vec = np.linalg.solve(np.eye(d * d) - hom, offset)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular period-map system: {exc}") from exc
    v0 = vec.reshape(d, d)
    v0 = 0.5 * (v0 + v0.T)
    if not np.all(np.isfinite(v0)):
        raise NumericalError("non-finite periodic steady state")

    weights = np.concatenate(([1.0], v0.ravel()))
    cycle = np.tensordot(weights, np.stack(snapshots), axes=(0, 1))
    times: list[float] = []
    mats: list[NDArray[np.float64]] = []
    for t, m in zip(sample_t, cycle):
        _store(times, mats, t, m)
    residual = float(np.max(np.abs(mats[-1] - v0))) / max(1.0, float(np.max(np.abs(v0))))

    return PeriodicSteadyState(
        period=period,
        times=_frozen(times),
        covariances=_sample_array(mats),
        basis=model.basis,
        spectral_radius=radius,
        residual_norm=residual,
        descriptor=model.descriptor,
    )


def find_threshold(
    model_family,
    bracket: tuple[float, float],
    tol: float = 1e-6,
    max_iter: int = 200,
) -> float:
    """Bisect the stability boundary of a one-parameter model family.

    model_family maps a scalar to a LinearGaussianModel; the bracket must
    contain exactly one change of the stability verdict.  Marginal spectra
    (max Re(eig) = 0) count as unstable, so the returned point is the lower
    edge of instability up to tol.  Time-periodic families are refused, as
    by stability.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ParameterError(f"bracket must be increasing, got {bracket}")

    def stable_at(x: float) -> bool:
        return stability(model_family(x)).stable

    s_lo, s_hi = stable_at(lo), stable_at(hi)
    if s_lo == s_hi:
        raise BracketError(
            f"bracket endpoints {bracket} are both {'stable' if s_lo else 'unstable'}"
        )
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if stable_at(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
