"""Covariance dynamics: transients, steady states, stability, thresholds.

The only differential equation in the package is the Lyapunov flow

    dV/dt = A(t) V + V A(t)^T + N(t),

integrated with the classical fourth-order Runge-Kutta scheme at fixed step.
Every step is advanced as two half steps; comparing against the single full
step at the stored samples gives a step-halving error estimate that aborts
the run when the step is too coarse for the requested dynamics.
On the row-major vec(V) the flow is affine with one generator, A (x) I + I (x) A,
which steady_state solves with.  On the homogeneous coordinates (vec V, 1) it
is linear, so every RK4 step is one matrix built from the generators at the
step's stage times; time-dependent models are sampled and their step maps
built in small batches, constant ones once.  evolve takes a time-dependent
model through every step, and a constant one from each stored sample to the
next with a power of its step map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.typing import NDArray

from .errors import (
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
    QuadratureBasis,
    _entries_in,
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
#: Steps of a time-dependent model whose maps are built in one batch.
CHUNK_STEPS = 16
#: Bisection steps of find_threshold before it stops short of its tolerance.
MAX_BISECTIONS = 200


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


def _constant_drifts(models: list[LinearGaussianModel]) -> NDArray[np.float64]:
    """Drifts of constant models, stacked (k, d, d).

    The instantaneous drift says nothing about a time-periodic model, so a
    time-dependent model raises ParameterError; periodic_steady_state judges
    those by their Floquet multipliers.
    """
    if not all(model.is_time_independent for model in models):
        raise ParameterError(
            "stability and steady-state verdicts need a time-independent model; "
            "use periodic_steady_state for a periodic drive"
        )
    return np.array([np.asarray(model.drift_at(0.0), dtype=float) for model in models])


def _constant_parts(
    models: list[LinearGaussianModel],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Drifts and diffusions of constant models, stacked (k, d, d).

    A time-dependent model is refused as by _constant_drifts.
    """
    drifts = _constant_drifts(models)
    noises = np.array([np.asarray(model.diffusion_at(0.0), dtype=float) for model in models])
    return drifts, noises


def _spectra(
    drifts: NDArray[np.float64],
) -> tuple[NDArray[np.complex128], NDArray[np.float64], NDArray[np.bool_]]:
    """Eigenvalues of drifts (..., d, d) from one eigvals call, with each drift's verdict.

    Returns the eigenvalues, each drift's largest real part, and whether it
    is stable: iff all Re(eig) < 0.
    """
    eig = np.linalg.eigvals(drifts)
    max_re = np.max(eig.real, axis=-1)
    return eig, max_re, max_re < 0.0


def stability(model: LinearGaussianModel) -> StabilityReport:
    """Classify a constant drift by its spectrum; periodic models are refused."""
    eig, max_re, stable = _spectra(_constant_drifts([model])[0])
    return StabilityReport(eigenvalues=eig, max_real_part=float(max_re), stable=bool(stable))


def _stable_points(models: list[LinearGaussianModel]) -> NDArray[np.bool_]:
    """stability(model).stable of each model, judged by one batched eigvals."""
    return _spectra(_constant_drifts(models))[2]


def _default_dt(model: LinearGaussianModel, resolution: float = DT_RESOLUTION) -> float:
    """Default step: resolution over the model's fastest rate; a model without one raises."""
    if model.fastest_rate <= 0.0:
        raise ParameterError("model advertises no intrinsic rate; pass dt explicitly")
    return resolution / model.fastest_rate


def _step_grid(span: float, dt: float) -> tuple[int, float]:
    """Fewest equal steps of at most dt that land exactly on span: their count and length."""
    n_steps = max(1, math.ceil(span / dt - 1e-12))
    return n_steps, span / n_steps


def _symmetrized(covs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Covariances (..., d, d) made symmetric, halved first: only a diverged one is non-finite."""
    return 0.5 * covs + 0.5 * np.swapaxes(covs, -1, -2)


def _step_errors(defects: NDArray[np.float64], states: NDArray[np.float64]) -> NDArray[np.float64]:
    """Step-halving error of each stored (vec V, 1) state, relative to its covariance scale."""
    return np.max(np.abs(defects), axis=1) / np.fmax(1.0, np.max(np.abs(states), axis=1))


def _sample_array(covs: NDArray[np.float64]) -> NDArray[np.float64]:
    """The stacked samples made read-only; a non-positive diagonal raises."""
    bad = np.any(np.diagonal(covs, axis1=1, axis2=2) <= 0.0, axis=1)
    if bad.any():
        raise CovarianceError(f"non-positive diagonal entries {np.diag(covs[bad.argmax()])}")
    covs.flags.writeable = False
    return covs


def _sample_covariances(
    times: NDArray[np.float64], vecs: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Stored samples from their row-major vec V rows, symmetrized and checked.

    The first non-finite sample raises NumericalError at its time, then a
    non-positive diagonal raises CovarianceError.
    """
    n, d = len(times), math.isqrt(vecs.shape[1])
    covs = _symmetrized(vecs.reshape(n, d, d))
    diverged = np.flatnonzero(~np.all(np.isfinite(covs), axis=(1, 2)))
    if diverged.size:
        raise NumericalError(f"covariance diverged at t = {times[diverged[0]]:g}")
    return _sample_array(covs)


def _checked_samples(
    times: NDArray[np.float64], states: NDArray[np.float64], defects: NDArray[np.float64], h: float
) -> tuple[NDArray[np.float64], float]:
    """Covariances of evolve's stored (vec V, 1) states and the step-halving maximum.

    defects[k] is the step-halving defect of the step ending at times[k]
    (row 0 is unused).  The checks run on all samples at once, and the
    first failure in time raises: a step-halving error (relative to the
    covariance scale, running maximum, NaN skipped) above STEP_ERROR_LIMIT
    before a non-finite sample at the same time, then a non-positive
    diagonal.
    """
    running = np.fmax.accumulate(np.append(0.0, _step_errors(defects[1:], states[1:])))
    too_coarse = np.flatnonzero(running > STEP_ERROR_LIMIT)
    # A stored state is non-finite exactly when its covariance sample is.
    if too_coarse.size and np.all(np.isfinite(states[: too_coarse[0]])):
        k = too_coarse[0]
        raise IntegrationError(
            f"step-halving error {running[k]:.3e} above {STEP_ERROR_LIMIT:.0e} "
            f"at t = {times[k]:g}; reduce dt below {h:g}"
        )
    return _sample_covariances(times, states[:, :-1]), float(running[-1])


def _generator(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Generator kron(A, I) + kron(I, A) of V -> A V + V A^T on the row-major vec(V).

    Batched over the leading axes of a.
    """
    d = a.shape[-1]
    gen = np.zeros(a.shape[:-2] + (d, d, d, d))
    for k in range(d):
        gen[..., :, k, :, k] += a
        gen[..., k, :, k, :] += a
    return gen.reshape(a.shape[:-2] + (d * d, d * d))


def _affine_generators(model: LinearGaussianModel, times: list[float]) -> NDArray[np.float64]:
    """Generators [[L, vec N], [0, 0]] of the flow on (vec V, 1) at the given times."""
    dd = model.basis.dim ** 2
    drifts = np.stack([model.drift_at(t) for t in times])
    noises = np.stack([model.diffusion_at(t) for t in times])
    gens = np.zeros((len(times), dd + 1, dd + 1))
    gens[:, :dd, :dd] = _generator(drifts)
    gens[:, :dd, dd] = noises.reshape(len(times), dd)
    return gens


def _rk4_maps(gens: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    """Classical RK4 steps of dx/dt = G(t) x as matrices, x -> M x.

    gens has shape (n, 3, D, D): G of each of n steps at its stage times
    t, t + h/2 and t + h.  For a constant G this is M = sum_k (hG)^k / k!
    up to k = 4.
    """
    eye = np.eye(gens.shape[-1])
    g0, gm, g1 = gens[:, 0], gens[:, 1], gens[:, 2]
    k2 = gm @ (eye + (0.5 * h) * g0)
    k3 = gm @ (eye + (0.5 * h) * k2)
    k4 = g1 @ (eye + h * k3)
    return eye + (h / 6.0) * (g0 + 2.0 * k2 + 2.0 * k3 + k4)


def _stages(n: int, gap: int) -> NDArray[np.intp]:
    """Sample indices of the stage times t, t + h/2, t + h of n consecutive steps.

    The samples are gap per half step, so a step spans 2 * gap of them.
    """
    return 2 * gap * np.arange(n)[:, None] + gap * np.arange(3)


def _single_maps(gens: NDArray[np.float64], h: float) -> tuple[NDArray[np.float64]]:
    """Step maps from generators sampled every h / 2."""
    return (_rk4_maps(gens[_stages((len(gens) - 1) // 2, 1)], h),)


def _halved_maps(
    gens: NDArray[np.float64], h: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Maps of two composed half steps, and the full step's defect against them.

    gens are sampled every h / 4; the defect applied to the state before the
    step is the step-halving error estimate.
    """
    (half,) = _single_maps(gens, 0.5 * h)
    step = half[1::2] @ half[::2]
    return step, _rk4_maps(gens[_stages(len(step), 2)], h) - step


def _constant_maps(model: LinearGaussianModel, h: float, per_step: int, build):
    """The one step's maps of a constant model, sampled once."""
    gens = _affine_generators(model, [0.0])
    gens = np.broadcast_to(gens, (per_step + 1,) + gens.shape[1:])
    return tuple(maps[0] for maps in build(gens, h))


def _chunked_maps(model: LinearGaussianModel, h: float, n_steps: int, per_step: int, build):
    """Yield (first step, map stacks) of n_steps steps of size h, chunk by chunk.

    The model is sampled per_step times per step and build turns the samples
    of a chunk into per-step map stacks.  A constant model is sampled once
    and its maps are repeated over all steps.
    """
    if model.is_time_independent:
        yield (0, *(repeat(m, n_steps) for m in _constant_maps(model, h, per_step, build)))
        return
    for first in range(0, n_steps, CHUNK_STEPS):
        count = min(CHUNK_STEPS, n_steps - first)
        times = (per_step * first + np.arange(per_step * count + 1)) * (h / per_step)
        yield (first, *build(_affine_generators(model, times.tolist()), h))


def _constant_steps(
    model: LinearGaussianModel, h: float, stored: list[int], states: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Fill states[1:] at the stored steps of a constant model; return the defects.

    A power of the step map brings the state to one step before each stored
    step, so the defect acts on the same state as on the time-dependent
    path.  The power is taken in extended precision where the platform has
    it, so it adds one rounding instead of one per step.
    """
    step_map, defect = _constant_maps(model, h, 4, _halved_maps)
    powers: dict[int, NDArray[np.float64]] = {}
    before = np.empty_like(states)
    vec = states[0]
    for j in range(1, len(stored)):
        k = stored[j] - stored[j - 1] - 1
        if k:
            if k not in powers:
                powers[k] = np.linalg.matrix_power(step_map.astype(np.longdouble), k).astype(float)
            vec = powers[k] @ vec
        before[j] = vec
        vec = step_map @ vec
        states[j] = vec
    return before @ defect.T


def _varying_steps(
    model: LinearGaussianModel, h: float, stored: list[int], states: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Fill states[1:] at the stored steps, stepping every step; return the defects.

    Stepping stops after the chunk in which the state diverges or the
    step-halving error passes STEP_ERROR_LIMIT; the rest is left NaN, and
    the checks report the first failing sample.
    """
    n_steps = stored[-1]
    defects = np.empty_like(states)
    vec = states[0]
    j = 1
    for first, steps, step_defects in _chunked_maps(model, h, n_steps, 4, _halved_maps):
        chunk_start = j
        for step, m, defect in zip(range(first + 1, n_steps + 1), steps, step_defects):
            new = m @ vec
            if step == stored[j]:
                defects[j] = defect @ vec
                states[j] = new
                j += 1
            vec = new
        errs = _step_errors(defects[chunk_start:j], states[chunk_start:j])
        if not np.all(np.isfinite(vec)) or np.any(errs > STEP_ERROR_LIMIT):
            states[j:] = defects[j:] = np.nan
            break
    return defects


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
    start = _entries_in(model.basis, v0)
    if t_end <= 0.0:
        raise ParameterError(f"t_end must be positive, got {t_end}")
    if dt is None:
        dt = _default_dt(model)
    if dt <= 0.0:
        raise ParameterError(f"dt must be positive, got {dt}")

    n_steps, h = _step_grid(t_end, dt)
    # Leave room for both endpoints so the stored count never exceeds the cap.
    stride = max(1, math.ceil(n_steps / (MAX_STORED - 2)))

    # Stored steps: every stride-th one and the last.
    stored = list(range(0, n_steps + stride, stride))
    stored[-1] = n_steps
    # One nominal step is two RK4 half steps composed into one map on
    # (vec V, 1); the single full step's defect against it, applied to the
    # state before a stored step, gives the error.
    states = np.empty((len(stored), start.size + 1))
    states[0] = np.append(start.ravel(), 1.0)
    times = _frozen(np.multiply(stored, h))
    # A diverged state is carried as inf and NaN, without warnings; the
    # checks report it at its first stored time.
    with np.errstate(over="ignore", invalid="ignore"):
        fill = _constant_steps if model.is_time_independent else _varying_steps
        defects = fill(model, h, stored, states)
        covariances, max_err = _checked_samples(times, states, defects, h)
    stats = IntegratorStats(
        n_steps=n_steps, dt=h, stride=stride, n_stored=len(times), max_step_error=max_err
    )
    return EvolutionResult(times=times, covariances=covariances, basis=model.basis, stats=stats)


@dataclass(frozen=True, eq=False)
class _SteadyStack:
    """Steady states of k stacked constant models.

    errors[i] is the exception steady_state raises for point i, or None;
    covariances and residuals hold the points without one, in order.
    """

    eigenvalues: NDArray[np.complex128]
    max_real_parts: NDArray[np.float64]
    errors: list[Exception | None]
    covariances: NDArray[np.float64]
    residuals: NDArray[np.float64]


def _steady_states(drifts: NDArray[np.float64], noises: NDArray[np.float64]) -> _SteadyStack:
    """Solve A V + V A^T + N = 0 for stacked (k, d, d) drifts and diffusions.

    One batched eigvals judges every point and one batched solve takes the
    stable ones; the checks of steady_state then run on the whole stack.  A
    stacked solve fails as a whole when one system is singular, so only then
    are the points solved one at a time.  The first point that passes every
    check but has a non-positive diagonal raises CovarianceError.
    """
    d = drifts.shape[-1]
    eig, max_re, verdicts = _spectra(drifts)
    stable = np.flatnonzero(verdicts)
    errors: list[Exception | None] = [
        None
        if ok
        else UnstableModelError(f"drift has max Re(eig) = {re:.3e} >= 0; no steady state")
        for ok, re in zip(verdicts.tolist(), max_re.tolist())
    ]
    a, n = drifts[stable], noises[stable]
    gens, rhs = _generator(a), -n.reshape(len(stable), d * d, 1)
    try:
        vecs = np.linalg.solve(gens, rhs)
    except np.linalg.LinAlgError:
        vecs = np.full_like(rhs, np.nan)
        for j, i in enumerate(stable):
            try:
                vecs[j] = np.linalg.solve(gens[j], rhs[j])
            except np.linalg.LinAlgError as exc:
                error = NumericalError(f"singular Lyapunov system: {exc}")
                error.__cause__ = exc
                errors[i] = error
    finite = np.all(np.isfinite(vecs), axis=(1, 2))
    v = _symmetrized(vecs.reshape(len(stable), d, d))
    # The residual is checked against the diffusion scale, with an allowance
    # for the backward error of the direct solve.
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.max(np.abs(lyapunov_residual(a, v, n)), axis=(1, 2))
        limit = 1e-10 * np.fmax(1e-300, np.max(np.abs(n), axis=(1, 2)))
        scale = np.max(np.abs(a), axis=(1, 2)), np.max(np.abs(v), axis=(1, 2))
        limit += 16.0 * np.finfo(float).eps * scale[0] * scale[1]
    for j, i in enumerate(stable):
        if errors[i] is not None:
            continue
        if not finite[j]:
            errors[i] = NumericalError("non-finite steady-state solution")
        elif res[j] > limit[j]:
            errors[i] = NumericalError(
                f"steady-state residual {res[j]:.3e} above tolerance {limit[j]:.3e}"
            )
    ok = [j for j, i in enumerate(stable) if errors[i] is None]
    return _SteadyStack(
        eigenvalues=eig,
        max_real_parts=max_re,
        errors=errors,
        covariances=_sample_array(v[ok]),
        residuals=res[ok],
    )


def steady_state(model: LinearGaussianModel) -> SteadyStateResult:
    """Solve A V + V A^T + N = 0 as a dense Kronecker system.

    Only defined for time-independent, strictly stable models; the residual
    of the returned covariance is checked against the diffusion scale with an
    allowance for the backward error of the direct solve (which grows with
    ||A|| ||V|| and is unavoidable for large thermal covariances).  This is
    the one-point case of the stacked solve that steady sweeps use.
    """
    stack = _steady_states(*_constant_parts([model]))
    if stack.errors[0] is not None:
        raise stack.errors[0]
    report = StabilityReport(
        eigenvalues=stack.eigenvalues[0], max_real_part=float(stack.max_real_parts[0]), stable=True
    )
    return SteadyStateResult(
        covariance=CovarianceMatrix(model.basis, stack.covariances[0]),
        residual_norm=float(stack.residuals[0]),
        stability=report,
    )


def periodic_steady_state(model: LinearGaussianModel, period: float) -> PeriodicSteadyState:
    """Quasistationary cycle of a model with period-periodic coefficients.

    The Lyapunov flow over one period is an affine map on vec(V); its fixed
    point is the covariance the transient settles onto, without integrating
    through the slow relaxation.  The map is the product of the RK4 step maps
    of evolve's default step (the Floquet map of the covariance flow), so the
    result matches a long evolve run up to the integration tolerance; the
    cycle samples, CYCLE_SAMPLES of them, come from its partial products.  For
    time-independent models this reduces to steady_state for any choice of
    period.
    """
    if period <= 0.0:
        raise ParameterError(f"period must be positive, got {period}")
    n_steps, h = _step_grid(period, _default_dt(model))
    d = model.basis.dim

    # The period map on (vec V, 1) is [[homogeneous map, offset], [0, 1]];
    # keeping its partial products at the stored steps resolves the cycle
    # once V0 is known.
    stride = max(1, math.ceil(n_steps / (CYCLE_SAMPLES - 1)))
    period_map = np.eye(d * d + 1)
    sample_t = [0.0]
    snapshots = [period_map]
    for first, maps in _chunked_maps(model, h, n_steps, 2, _single_maps):
        for step, m in zip(range(first + 1, n_steps + 1), maps):
            period_map = m @ period_map
            if step % stride == 0 or step == n_steps:
                sample_t.append(step * h)
                snapshots.append(period_map)
    if not np.all(np.isfinite(period_map)):
        raise NumericalError("period map diverged; reduce dt")
    hom = period_map[:-1, :-1]
    offset = period_map[:-1, -1]

    radius = float(np.max(np.abs(np.linalg.eigvals(hom))))
    if radius >= 1.0:
        raise UnstableModelError(
            f"Floquet multiplier modulus {radius:.6g} >= 1; no periodic steady state"
        )
    try:
        vec = np.linalg.solve(np.eye(d * d) - hom, offset)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular period-map system: {exc}") from exc
    v0 = _symmetrized(vec.reshape(d, d))
    if not np.all(np.isfinite(v0)):
        raise NumericalError("non-finite periodic steady state")

    times = _frozen(sample_t)
    covs = _sample_covariances(times, np.stack(snapshots)[:, :-1] @ np.append(v0.ravel(), 1.0))
    residual = float(np.max(np.abs(covs[-1] - v0))) / max(1.0, float(np.max(np.abs(v0))))

    return PeriodicSteadyState(
        period=period,
        times=times,
        covariances=covs,
        basis=model.basis,
        spectral_radius=radius,
        residual_norm=residual,
    )


def find_threshold(model_family, bracket: tuple[float, float], tol: float = 1e-6) -> float:
    """Bisect the stability boundary of a one-parameter model family.

    model_family maps a scalar to a LinearGaussianModel; the bracket must
    contain exactly one change of the stability verdict.  Marginal spectra
    (max Re(eig) = 0) count as unstable, so the returned point is the lower
    edge of instability up to tol, or wherever MAX_BISECTIONS steps end.
    Time-periodic families are refused, as by stability.
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
    for _ in range(MAX_BISECTIONS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if stable_at(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
