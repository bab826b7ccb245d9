"""Covariance dynamics: transients, steady states, stability, thresholds.

The only differential equation in the package is the Lyapunov flow

    dV/dt = A(t) V + V A(t)^T + N(t),

integrated with the classical fourth-order Runge-Kutta scheme at fixed step.
Every step is advanced as two half steps; comparing against the single full
step at the stored samples gives a step-halving error estimate that aborts
the run when the step is too coarse for the requested dynamics.
On the row-major vec(V) the flow is affine with one generator, A (x) I + I (x) A,
which steady_state solves with.  On (vec V, 1) it is linear, so evolve's RK4
steps are matrices built in small batches from the generators at the stage
times, taken through every step of a time-dependent model and, for a constant
one, raised to the powers that fill its stored samples by doubling.
periodic_steady_state steps a stack of models in d x d arithmetic: the
monodromy Phi and the covariance Q grown from zero over one period give the
orbit start V0 = Phi V0 Phi^T + Q.  Both solvers sample a time-dependent
model on the stage times of CHUNK_STEPS steps at a time, with one drift_at
and one diffusion_at call per model and chunk on the whole array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

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
    _checked_diagonals,
    _entries_in,
    _frozen,
    _symmetrized,
    lyapunov_residual,
)

#: Step-halving error (relative to the covariance scale) beyond which a
#: fixed-step run is rejected.
STEP_ERROR_LIMIT = 1e-6
#: Upper bound on the number of stored samples per run.
MAX_STORED = 5000
#: Default step resolves the fastest generator rate to one percent.
DT_RESOLUTION = 0.01
#: Most stored samples of one periodic cycle, both endpoints included.
CYCLE_SAMPLES = 257
#: Steps of a time-dependent model whose maps are built in one batch.
CHUNK_STEPS = 16
#: Bisection steps of a bracket before it stops short of its tolerance.
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
    rho(Phi)^2 for the monodromy Phi, the largest multiplier modulus of the
    covariance flow; the orbit exists iff it is below one.
    """

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
    if not (0.0 < span < math.inf and 0.0 < dt < math.inf and span / dt < math.inf):
        raise ParameterError(
            f"time span and step must be positive and finite, as must their ratio, got {span}, {dt}"
        )
    n_steps = max(1, math.ceil(span / dt - 1e-12))
    return n_steps, span / n_steps


def _stored_steps(n_steps: int, most: int) -> list[int]:
    """Every stride-th of n_steps steps, from step 0, and the last: at most `most` of them."""
    stride = max(1, math.ceil(n_steps / (most - 1)))
    return [*range(0, n_steps, stride), n_steps]


def _step_errors(defects: NDArray[np.float64], states: NDArray[np.float64]) -> NDArray[np.float64]:
    """Step-halving error of each stored (vec V, 1) state, relative to its covariance scale."""
    return np.max(np.abs(defects), axis=1) / np.fmax(1.0, np.max(np.abs(states), axis=1))


def _sample_array(covs: NDArray[np.float64]) -> NDArray[np.float64]:
    """The stacked samples made read-only; a non-positive diagonal raises."""
    _checked_diagonals(covs)
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


def _affine_generators(
    model: LinearGaussianModel, times: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Generators [[L, vec N], [0, 0]] of the flow on (vec V, 1) at the given times.

    The model is sampled with one drift_at and one diffusion_at call on the
    whole array of times.
    """
    dd = model.basis.dim ** 2
    gens = np.zeros((len(times), dd + 1, dd + 1))
    gens[:, :dd, :dd] = _generator(model.drift_at(times))
    gens[:, :dd, dd] = model.diffusion_at(times).reshape(len(times), dd)
    return gens


def _rk4_maps(gens: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    """Classical RK4 steps of dx/dt = G(t) x as matrices, x -> M x.

    gens has shape (..., 3, D, D): G of each step at its stage times t,
    t + h/2 and t + h.  For a constant G this is M = sum_k (hG)^k / k! up
    to k = 4.
    """
    eye = np.eye(gens.shape[-1])
    g0, gm, g1 = np.moveaxis(gens, -3, 0)
    k2 = gm @ (eye + (0.5 * h) * g0)
    k3 = gm @ (eye + (0.5 * h) * k2)
    k4 = g1 @ (eye + h * k3)
    return eye + (h / 6.0) * (g0 + 2.0 * k2 + 2.0 * k3 + k4)


def _stages(n: int, gap: int) -> NDArray[np.intp]:
    """Sample indices of the stage times t, t + h/2, t + h of n consecutive steps.

    The samples are gap per half step, so a step spans 2 * gap of them.
    """
    return 2 * gap * np.arange(n)[:, None] + gap * np.arange(3)


def _halved_maps(
    gens: NDArray[np.float64], h: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Maps of two composed half steps, and the full step's defect against them.

    gens are sampled every h / 4; the defect applied to the state before the
    step is the step-halving error estimate.
    """
    half = _rk4_maps(gens[_stages((len(gens) - 1) // 2, 1)], 0.5 * h)
    step = half[1::2] @ half[::2]
    return step, _rk4_maps(gens[_stages(len(step), 2)], h) - step


def _constant_maps(model: LinearGaussianModel, h: float):
    """A constant model's one step map and its defect, as _halved_maps, sampled once."""
    gens = _affine_generators(model, np.zeros(1))
    step, defect = _halved_maps(np.broadcast_to(gens, (5,) + gens.shape[1:]), h)
    return step[0], defect[0]


def _constant_steps(
    model: LinearGaussianModel, h: float, stored: list[int], states: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Fill states[1:] at the stored steps of a constant model; return the defects.

    The stride map S, the step map to the power of the stride, is taken in
    extended precision where the platform has it.  The full stride
    intervals are filled by doubling: round m = 1, 2, 4, ... maps the first
    m stored states through S^m, rounded once, onto the next m, and squares
    S^m in extended precision.  Sample k is thus popcount(k) rounded
    products from the start.  A last interval shorter than the stride takes
    its own power.  The defect acts on the state one step before each stored
    step, as on the time-dependent path: the previous stored state advanced
    by one step fewer than its interval.
    """
    step_map, defect = _constant_maps(model, h)
    exact = step_map.astype(np.longdouble)

    def power(k: int) -> NDArray[np.float64]:
        return np.linalg.matrix_power(exact, k).astype(float)

    stride, last = stored[1], stored[-1] - stored[-2]
    n_full = len(stored) - 1 if last == stride else len(stored) - 2
    doubled, m = np.linalg.matrix_power(exact, stride), 1
    while m <= n_full:
        count = min(m, n_full + 1 - m)
        states[m : m + count] = states[:count] @ doubled.astype(float).T
        doubled, m = doubled @ doubled, 2 * m
    before = np.empty_like(states)
    np.matmul(states[:-1], power(stride - 1).T, out=before[1:])
    if last < stride:
        states[-1] = power(last) @ states[-2]
        before[-1] = power(last - 1) @ states[-2]
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
    for first in range(0, n_steps, CHUNK_STEPS):
        times = np.arange(4 * first, 4 * min(first + CHUNK_STEPS, n_steps) + 1) * (h / 4)
        steps, step_defects = _halved_maps(_affine_generators(model, times), h)
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
    two half steps.  Every stride-th step and the last are stored: at most
    MAX_STORED - 1 samples, both endpoints included.  Raises IntegrationError
    when the step-halving estimate exceeds STEP_ERROR_LIMIT.
    """
    start = _entries_in(model.basis, v0)
    n_steps, h = _step_grid(t_end, _default_dt(model) if dt is None else dt)
    stored = _stored_steps(n_steps, MAX_STORED - 1)
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
        n_steps=n_steps, dt=h, stride=stored[1], n_stored=len(times), max_step_error=max_err
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


def _stacked_solve(gens: NDArray[np.float64], rhs: NDArray[np.float64], points, errors, system):
    """Solve stacked gens x = rhs of points; a singular one is left NaN, its error set."""
    try:
        return np.linalg.solve(gens, rhs)
    except np.linalg.LinAlgError:
        vecs = np.full_like(rhs, np.nan)
        for j, i in enumerate(points):
            try:
                vecs[j] = np.linalg.solve(gens[j], rhs[j])
            except np.linalg.LinAlgError as exc:
                errors[i] = NumericalError(f"singular {system} system: {exc}")
                errors[i].__cause__ = exc
        return vecs


def _steady_states(drifts: NDArray[np.float64], noises: NDArray[np.float64]) -> _SteadyStack:
    """Solve A V + V A^T + N = 0 for stacked (k, d, d) drifts and diffusions.

    One batched eigvals judges every point and one _stacked_solve takes the
    stable ones; the checks of steady_state then run on the whole stack.  The
    first point that passes every check but has a non-positive diagonal
    raises CovarianceError.
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
    vecs = _stacked_solve(gens, rhs, stable, errors, "Lyapunov")
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


def _lyapunov_rk4(q: NDArray[np.float64], a: NDArray[np.float64], n: NDArray[np.float64]):
    """One classical RK4 step of dQ/dt = A Q + Q A^T + N for stacked (k, d, d) Q.

    a and n (4, k, d, d): A and N at t, t + h/2, t + h/2, t + h times h/2, h/2, h, h/6.
    """

    def increment(stage: int, x: NDArray[np.float64]) -> NDArray[np.float64]:
        ax = a[stage] @ x  # ax + ax^T keeps Q exactly symmetric
        return ax + ax.swapaxes(-1, -2) + n[stage]

    q1 = q + increment(0, q)
    q2 = q + increment(1, q1)
    q3 = q + increment(2, q2)
    return (q1 + 2.0 * q2 + q3 - q) / 3.0 + increment(3, q3)


def _periodic_states(
    models: list[LinearGaussianModel], period: float
) -> list[PeriodicSteadyState | Exception]:
    """Periodic steady states of stacked models: each its result or the error it raises.

    The models must share a basis and a default step, else ParameterError.
    On that step's grid the monodromy Phi' = A Phi (from I) and Q' = A Q +
    Q A^T + N (from 0) are RK4-stepped over one period for all models at
    once, sampled at the half-step stage times CHUNK_STEPS steps at a time.
    V0 solves V0 = Phi V0 Phi^T + Q (Mari & Eisert, PRL 103, 213603 (2009));
    the cycle samples are Phi V0 Phi^T + Q.
    """
    if len({(model.basis, _default_dt(model)) for model in models}) > 1:
        raise ParameterError("stacked periodic models must share a basis and a default step")
    n_steps, h = _step_grid(period, _default_dt(models[0]))
    d, stored = models[0].basis.dim, _stored_steps(n_steps, CYCLE_SAMPLES)
    phi, q = np.broadcast_to(np.eye(d), (len(models), d, d)), np.zeros((len(models), d, d))
    samples = [(phi, q)]
    # A diverged model is carried as inf and NaN, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, CHUNK_STEPS):
            count = min(CHUNK_STEPS, n_steps - first)
            times = (2 * first + np.arange(2 * count + 1)) * (h / 2)
            # One call per model samples its chunk; axis 1 runs over the models.
            drifts = np.stack([m.drift_at(times) for m in models], axis=1)
            noises = np.stack([m.diffusion_at(times) for m in models], axis=1)
            stages = _stages(count, 1)
            maps = _rk4_maps(drifts[stages].swapaxes(1, 2), h)
            s4, w = stages[:, [0, 1, 1, 2]], h * np.array([0.5, 0.5, 1, 1 / 6])[:, None, None, None]
            for step, (m, a, n) in enumerate(zip(maps, w * drifts[s4], w * noises[s4]), first + 1):
                phi = m @ phi
                q = _lyapunov_rk4(q, a, n)
                if step == stored[len(samples)]:
                    samples.append((phi, q))
        finite = np.all(np.isfinite(phi) & np.isfinite(q), axis=(1, 2))
        eig = np.linalg.eigvals(np.where(finite[:, None, None], phi, 0.0))
    radii = np.max(np.abs(eig), axis=-1) ** 2
    out: list = [None if ok else NumericalError("period map diverged; reduce dt") for ok in finite]
    for i in np.flatnonzero(finite & (radii >= 1.0)):
        out[i] = UnstableModelError(
            f"Floquet multiplier modulus {radii[i]:.6g} >= 1; no periodic steady state"
        )
    live = [i for i, error in enumerate(out) if error is None]
    phis, qs = (np.array(x)[:, live] for x in zip(*samples))
    # Row-major vec(Phi V Phi^T) is kron(Phi, Phi) vec(V).
    kron = (phi[live, :, None, :, None] * phi[live, None, :, None, :]).reshape(-1, d * d, d * d)
    rhs = q[live].reshape(-1, d * d, 1)
    vecs = _stacked_solve(np.eye(d * d) - kron, rhs, live, out, "period-map")
    v0s = _symmetrized(vecs.reshape(-1, d, d))
    cycles = phis @ v0s @ np.swapaxes(phis, -1, -2) + qs
    times = _frozen(np.multiply(stored, h))
    for i, v0, cycle in zip(live, v0s, np.swapaxes(cycles, 0, 1)):
        if out[i] is not None:
            continue
        try:
            if not np.all(np.isfinite(v0)):
                raise NumericalError("non-finite periodic steady state")
            covs = _sample_covariances(times, cycle.reshape(len(times), d * d))
        except (NumericalError, CovarianceError) as error:
            out[i] = error
            continue
        res = float(np.max(np.abs(covs[-1] - v0)) / max(1.0, np.max(np.abs(v0))))
        out[i] = PeriodicSteadyState(times, covs, models[i].basis, float(radii[i]), res)
    return out


def periodic_steady_state(model: LinearGaussianModel, period: float) -> PeriodicSteadyState:
    """Quasistationary cycle of a model with period-periodic coefficients.

    The fixed point of the period map V -> Phi V Phi^T + Q (_periodic_states)
    is what a long evolve run settles onto, and for a constant model, at any
    period, its steady_state, both up to the integration error.
    """
    (cycle,) = _periodic_states([model], period)
    if isinstance(cycle, Exception):
        raise cycle
    return cycle


def _bisect_brackets(
    stable_at: Callable[[NDArray[np.intp], NDArray[np.float64]], NDArray[np.bool_]],
    lo: ArrayLike,
    hi: ArrayLike,
    stable_lo: ArrayLike,
    width: Callable[[NDArray[np.float64]], ArrayLike],
) -> NDArray[np.float64]:
    """Bisect brackets [lo, hi], each holding one change of stability verdict, in lockstep.

    stable_lo is the verdict at each lower end.  Every step halves each
    bracket still wider than width(hi), its allowed width at its upper end,
    and judges all their midpoints with stable_at(brackets, midpoints), the
    verdicts of those brackets' models there.  A bracket stops after
    MAX_BISECTIONS steps at the latest.  Returns each final midpoint.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    stable_lo = np.asarray(stable_lo, dtype=bool)
    for _ in range(MAX_BISECTIONS):
        active = np.flatnonzero(~(hi - lo <= width(hi)))
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        same = stable_at(active, mid) == stable_lo[active]
        lo[active[same]] = mid[same]
        hi[active[~same]] = mid[~same]
    return 0.5 * (lo + hi)


def find_threshold(model_family, bracket: tuple[float, float], tol: float = 1e-6) -> float:
    """Bisect the stability boundary of a one-parameter model family.

    model_family maps a scalar to a LinearGaussianModel; the bracket must
    contain exactly one change of the stability verdict.  Marginal spectra
    (max Re(eig) = 0) count as unstable, so the returned point is the lower
    edge of instability up to tol, or wherever MAX_BISECTIONS steps end.
    Time-periodic families are refused, as by stability.  This is the
    one-bracket case of the lockstep bisection.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ParameterError(f"bracket must be increasing, got {bracket}")
    s_lo, s_hi = _stable_points([model_family(lo), model_family(hi)]).tolist()
    if s_lo == s_hi:
        raise BracketError(
            f"bracket endpoints {bracket} are both {'stable' if s_lo else 'unstable'}"
        )

    def stable_at(_, mid: NDArray[np.float64]) -> NDArray[np.bool_]:
        return _stable_points([model_family(float(mid[0]))])

    return float(_bisect_brackets(stable_at, [lo], [hi], [s_lo], lambda _: tol)[0])
