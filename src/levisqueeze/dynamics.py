"""Covariance dynamics: transients, steady states, stability, thresholds.

The only differential equation in the package is the Lyapunov flow

    dV/dt = A(t) V + V A(t)^T + N(t),

integrated with the classical fourth-order Runge-Kutta scheme at fixed step.
Every step is advanced as two half steps; comparing against the single full
step at the stored samples gives a step-halving error estimate that aborts
the run when the step is too coarse for the requested dynamics.
V is symmetric, so the flow is carried on its m = d(d+1)/2 upper-triangle
entries, vech V, row by row.  There it is affine with one m x m generator,
E (A (x) I + I (x) A) D for the elimination E and duplication D (Magnus &
Neudecker, SIAM J. Alg. Disc. Meth. 1, 422 (1980)), which steady_state
solves with.  On (vech V, 1) it is linear, so evolve's RK4 steps are
matrices built in small batches from the generators at the stage times,
taken through every step of a time-dependent model and, for a constant one,
raised to the powers that fill its stored samples by doubling.
periodic_steady_state steps the k rows of a stacked model in d x d
arithmetic: the monodromy Phi, taken through the same RK4 maps M, and the
noise integral Q, advanced by the congruence Q -> M Q M^T plus each step's
noise integral by Simpson's rule, give the orbit start V0 = Phi V0 Phi^T + Q,
solved on vech V0.  Both solvers sample a time-dependent model, all rows at
once, with one drift_at and one diffusion_at call on the stage times of a
chunk of steps: CHUNK_STEPS for evolve, for k periodic rows
max(CHUNK_STEPS, CHUNK_MODEL_STEPS // k).  RK4 stages slice those samples.
"""

from __future__ import annotations

import functools
import math
import numbers
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
#: Row-steps of a periodic stack sampled in one batch: a stack of 24 or
#: more rows steps CHUNK_STEPS at a time, a smaller one longer chunks.
CHUNK_MODEL_STEPS = 384
#: Bisection steps of a bracket before it stops short of its tolerance.
MAX_BISECTIONS = 200
#: Default bracket width at which find_threshold stops bisecting.
THRESHOLD_TOL = 1e-6


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


def _spectra(drifts: NDArray[np.float64]) -> tuple[NDArray[np.complex128], NDArray[np.float64]]:
    """Eigenvalues of drifts (..., d, d) from one eigvals call, and each drift's largest real part.

    They are reported only; every stability verdict is _hurwitz's.
    """
    eig = np.linalg.eigvals(drifts)
    return eig, np.max(eig.real, axis=-1)


def _hurwitz(drifts: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Whether each drift of a stack (..., d, d) is stable: iff all Re(eig) < 0.

    Routh-Hurwitz (Gantmacher, The Theory of Matrices II, ch. XV): a drift is
    stable iff every entry of the first column of the Routh array of its
    characteristic polynomial is positive.  Each drift is scaled by its
    largest |entry| first, which leaves the verdict unchanged, and the
    polynomial's coefficients come from Faddeev-LeVerrier: with M_1 = I,
    c_k = -tr(A M_k) / k and M_(k+1) = A M_k + c_k I.  A zero pivot, as of a
    marginal spectrum or a zero drift, gives False without a warning.  A
    lone drift, as of a one-bracket bisection, is judged as one (d, d)
    array: its coefficients are then numpy scalars, whose arithmetic is the
    same as in a stack and costs a fraction of one-element arrays'.
    """
    d, lead = drifts.shape[-1], drifts.shape[:-2]
    if drifts.size == d * d:
        drifts = drifts.reshape(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = drifts / np.abs(drifts).max(axis=(-2, -1), keepdims=True)
        am, coeffs = a, [1.0]
        for k in range(1, d + 1):
            coeffs.append(am.trace(axis1=-2, axis2=-1) / -k)
            if k < d:
                am = a @ (am + coeffs[k][..., None, None] * _identity(d))
        # Rows of the Routh array, each without its trailing zeros: row i + 2
        # is row i, shifted left, minus a multiple of row i + 1 that cancels
        # its first entry.
        prev, row = coeffs[0::2], coeffs[1::2]
        column = [row[0]]
        for _ in range(d - 1):
            ratio = prev[0] / row[0]
            shifted = [p - ratio * r for p, r in zip(prev[1:], row[1:])] + prev[len(row) :]
            prev, row = row, shifted
            column.append(row[0])
    return (np.array(column).min(axis=0) > 0.0).reshape(lead)


def stability(model: LinearGaussianModel) -> StabilityReport:
    """Judge a constant drift by _hurwitz and report its spectrum; periodic models are refused."""
    drift = _constant_drifts([model])[0]
    eig, max_re = _spectra(drift)
    stable = bool(_hurwitz(drift))
    return StabilityReport(eigenvalues=eig, max_real_part=float(max_re), stable=stable)


def _stable_points(models: list[LinearGaussianModel]) -> NDArray[np.bool_]:
    """stability(model).stable of each model, judged by one batched _hurwitz."""
    return _hurwitz(_constant_drifts(models))


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


def _whole(value, what: str) -> int:
    """value as an int; anything but a whole real number (a bool, NaN, 2.5) is a ParameterError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer():
        return int(value)
    raise ParameterError(f"{what} must be a whole number, got {value!r}")


def _stored_steps(n_steps: int, most: int) -> list[int]:
    """Every stride-th of n_steps steps, from step 0, and the last: at most `most` of them."""
    stride = max(1, math.ceil(n_steps / (most - 1)))
    return [*range(0, n_steps, stride), n_steps]


def _step_errors(defects: NDArray[np.float64], states: NDArray[np.float64]) -> NDArray[np.float64]:
    """Step-halving error of each stored (vech V, 1) state, relative to its covariance scale."""
    return np.max(np.abs(defects), axis=1) / np.fmax(1.0, np.max(np.abs(states), axis=1))


def _sample_covariances(
    times: NDArray[np.float64], covs: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Stored (n, d, d) samples, checked and made read-only.

    The first non-finite sample raises NumericalError at its time, then a
    non-positive diagonal raises CovarianceError.
    """
    diverged = np.flatnonzero(~np.all(np.isfinite(covs), axis=(1, 2)))
    if diverged.size:
        raise NumericalError(f"covariance diverged at t = {times[diverged[0]]:g}")
    _checked_diagonals(covs)
    covs.flags.writeable = False
    return covs


def _checked_samples(
    times: NDArray[np.float64], states: NDArray[np.float64], defects: NDArray[np.float64], h: float
) -> tuple[NDArray[np.float64], float]:
    """Covariances of evolve's stored (vech V, 1) states and the step-halving maximum.

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
    return _sample_covariances(times, _unpacked(states[:, :-1])), float(running[-1])


@functools.cache
def _upper(d: int) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """Row and column indices of the upper triangle of d x d matrices, row by row."""
    rows, cols = np.triu_indices(d)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.cache
def _identity(d: int) -> NDArray[np.float64]:
    """The read-only d x d identity."""
    return _frozen(np.eye(d))


@functools.cache
def _generator_map(d: int) -> NDArray[np.float64]:
    """The fixed (m^2, d^2) map from the row-major vec A to the flattened _generator(A).

    Column p d + q is E (kron(U, I) + kron(I, U)) D, flattened, for the unit
    matrix U with a one at (p, q): E keeps the upper-triangle rows of the
    row-major vec, and D adds the two columns of each off-diagonal pair.
    """
    rows, cols = _upper(d)
    upper, m = rows * d + cols, len(rows)
    duplication = np.zeros((d * d, m))
    duplication[upper, np.arange(m)] = duplication[cols * d + rows, np.arange(m)] = 1.0
    eye, units = np.eye(d), np.eye(d * d).reshape(d * d, d, d)
    gens = [(np.kron(u, eye) + np.kron(eye, u))[upper] @ duplication for u in units]
    return _frozen(np.array(gens).reshape(d * d, m * m).T)


def _generator(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Generator of V -> A V + V A^T on vech V, m x m for m = d(d+1)/2.

    Batched over the leading axes of a; one product with _generator_map.
    """
    d, lead = a.shape[-1], a.shape[:-2]
    m = d * (d + 1) // 2
    return (a.reshape(lead + (d * d,)) @ _generator_map(d).T).reshape(lead + (m, m))


def _vech(covs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Upper-triangle entries, row by row, of stacked (..., d, d) matrices."""
    rows, cols = _upper(covs.shape[-1])
    return covs[..., rows, cols]


def _unpacked(vechs: NDArray[np.float64]) -> NDArray[np.float64]:
    """The exactly symmetric (..., d, d) matrices of stacked vech rows."""
    d = math.isqrt(2 * vechs.shape[-1])  # 2m = d^2 + d
    rows, cols = _upper(d)
    covs = np.empty(vechs.shape[:-1] + (d, d))
    covs[..., rows, cols] = covs[..., cols, rows] = vechs
    return covs


def _affine_generators(
    model: LinearGaussianModel, times: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Generators [[L, vech N], [0, 0]] of the flow on (vech V, 1) at the given times.

    The model is sampled with one drift_at and one diffusion_at call on the
    whole array of times.
    """
    gen = _generator(model.drift_at(times))
    m = gen.shape[-1]
    gens = np.zeros((len(times), m + 1, m + 1))
    gens[:, :m, :m] = gen
    gens[:, :m, m] = _vech(model.diffusion_at(times))
    return gens


def _rk4_maps(
    g0: NDArray[np.float64], gm: NDArray[np.float64], g1: NDArray[np.float64], h: float
) -> NDArray[np.float64]:
    """Classical RK4 steps of dx/dt = G(t) x as matrices, x -> M x.

    g0, gm and g1, alike (..., D, D), are G of each step at its stage times
    t, t + h/2 and t + h.  For a constant G this is M = sum_k (hG)^k / k!
    up to k = 4.
    """
    eye = _identity(g0.shape[-1])
    k2 = gm @ (eye + (0.5 * h) * g0)
    k3 = gm @ (eye + (0.5 * h) * k2)
    k4 = g1 @ (eye + h * k3)
    return eye + (h / 6.0) * (g0 + 2.0 * k2 + 2.0 * k3 + k4)


def _halved_maps(
    gens: NDArray[np.float64], h: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Maps of two composed half steps, and the full step's defect against them.

    gens are sampled every h / 4, so the stages of the half steps are every
    other sample and those of the full steps every fourth; the defect
    applied to the state before the step is the step-halving error estimate.
    """
    half = _rk4_maps(gens[:-2:2], gens[1:-1:2], gens[2::2], 0.5 * h)
    step = half[1::2] @ half[::2]
    return step, _rk4_maps(gens[:-4:4], gens[2:-2:4], gens[4::4], h) - step


def _constant_maps(model: LinearGaussianModel, h: float):
    """A constant model's one step map and its defect, as _halved_maps, sampled once.

    The step map, the square of one half step's map, is built and returned
    in extended precision where the platform has it, for its powers; the
    defect is built in float64, as on the time-dependent path.
    """
    gens = _affine_generators(model, np.zeros(1))
    exact = gens[0].astype(np.longdouble)
    half = _rk4_maps(exact, exact, exact, 0.5 * h)
    return half @ half, _halved_maps(np.broadcast_to(gens, (5,) + gens.shape[1:]), h)[1][0]


def _constant_steps(
    model: LinearGaussianModel, h: float, stored: list[int], states: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Fill states[1:] at the stored steps of a constant model; return the defects.

    The step map and the stride map S, its power of the stride, are taken in
    extended precision where the platform has it.  The full stride
    intervals are filled by doubling: round m = 1, 2, 4, ... maps the first
    m stored states through S^m, rounded once, onto the next m, and squares
    S^m in extended precision.  Sample k is thus popcount(k) rounded
    products from the start.  A last interval shorter than the stride takes
    its own power.  The defect acts on the state one step before each stored
    step, as on the time-dependent path: the previous stored state advanced
    by one step fewer than its interval.
    """
    exact, defect = _constant_maps(model, h)

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
    # (vech V, 1); the single full step's defect against it, applied to the
    # state before a stored step, gives the error.  The stored states are
    # unpacked into exactly symmetric samples.
    start = np.append(_vech(start), 1.0)
    states = np.empty((len(stored), start.size))
    states[0] = start
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


def _raise_first(errors: list[Exception | None]) -> None:
    """Raise the first error of a stack, in stack order; a stack without one passes."""
    for error in errors:
        if error is not None:
            raise error


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


def _steady_states(
    drifts: NDArray[np.float64], noises: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], list[Exception | None]]:
    """Solve A V + V A^T + N = 0 for stacked (k, d, d) drifts and diffusions.

    Returns the covariances (k, d, d) and residuals (k,), read-only and NaN
    at each failed point, and each point's error: the exception
    steady_state raises for it, or None.  One _stacked_solve takes every
    point, one batched _hurwitz judges them, and one eigvals on the unstable
    points only gives their error messages, which replace any error of the
    solve; the finite and residual checks of steady_state then run as masks
    over the whole stack, and only the failing points are visited.  The
    first point that passes every check but has a non-positive diagonal
    raises CovarianceError.
    """
    errors: list[Exception | None] = [None] * len(drifts)
    vechs = _stacked_solve(
        _generator(drifts), -_vech(noises)[..., None], range(len(drifts)), errors, "Lyapunov"
    )
    verdicts = _hurwitz(drifts)
    unstable = np.flatnonzero(~verdicts)
    if unstable.size:
        for i, re in zip(unstable.tolist(), _spectra(drifts[unstable])[1].tolist()):
            message = f"drift has max Re(eig) = {re:.3e} >= 0; no steady state"
            errors[i] = UnstableModelError(message)
    finite = np.all(np.isfinite(vechs), axis=(1, 2))
    v = _unpacked(vechs[..., 0])
    # The residual is checked against the diffusion scale, with an allowance
    # for the backward error of the direct solve.
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.max(np.abs(lyapunov_residual(drifts, v, noises)), axis=(1, 2))
        limit = 1e-10 * np.fmax(1e-300, np.max(np.abs(noises), axis=(1, 2)))
        scale = np.max(np.abs(drifts), axis=(1, 2)), np.max(np.abs(v), axis=(1, 2))
        limit += 16.0 * np.finfo(float).eps * scale[0] * scale[1]
        # A singular point was left NaN, so it fails here too but keeps its error.
        failed = ~verdicts | ~finite | (res > limit)
    for i in np.flatnonzero(failed).tolist():
        if errors[i] is not None:
            continue
        if not finite[i]:
            errors[i] = NumericalError("non-finite steady-state solution")
        else:
            errors[i] = NumericalError(
                f"steady-state residual {res[i]:.3e} above tolerance {limit[i]:.3e}"
            )
    v[failed], res[failed] = np.nan, np.nan
    _checked_diagonals(v[~failed])
    v.flags.writeable = res.flags.writeable = False
    return v, res, errors


def steady_state(model: LinearGaussianModel) -> SteadyStateResult:
    """Solve A V + V A^T + N = 0 as a dense Kronecker system.

    Only defined for time-independent, strictly stable models; the residual
    of the returned covariance is checked against the diffusion scale with an
    allowance for the backward error of the direct solve (which grows with
    ||A|| ||V|| and is unavoidable for large thermal covariances).  This is
    the one-point case of the stacked solve that steady sweeps use.
    """
    drifts, noises = _constant_parts([model])
    covs, residuals, errors = _steady_states(drifts, noises)
    _raise_first(errors)
    eig, max_re = _spectra(drifts[0])
    report = StabilityReport(eigenvalues=eig, max_real_part=float(max_re), stable=True)
    return SteadyStateResult(
        covariance=CovarianceMatrix(model.basis, covs[0]),
        residual_norm=float(residuals[0]),
        stability=report,
    )


def _congruence_steps(
    drifts: NDArray[np.float64], noises: NDArray[np.float64], h: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """RK4 maps M and noise gains G of consecutive steps, x -> M x and Q -> M Q M^T + G.

    drifts and noises (2n + 1, ..., d, d) are sampled every h / 2.  G is
    Simpson's rule for the step's noise integral, the integral of
    Phi(t+h, s) N(s) Phi(t+h, s)^T over [t, t+h] (Van Loan, IEEE TAC 23,
    395 (1978)): (h/6) [M N(t) M^T + 4 L N(t+h/2) L^T + N(t+h)], where L is
    the RK4 map of the late half step.  Its middle stage A(t + 3h/4) is the
    quadratic through the three samples; that O(h^3) error enters only
    through Simpson's midpoint weight, so the step stays O(h^5).  Returns
    (n, ..., d, d) maps and gains.
    """
    start, mid, end = drifts[:-2:2], drifts[1::2], drifts[2::2]
    quarter = 0.375 * end + 0.75 * mid - 0.125 * start
    maps = _rk4_maps(start, mid, end, h)
    late = _rk4_maps(mid, quarter, end, 0.5 * h)
    ends = maps @ noises[:-2:2] @ maps.swapaxes(-1, -2) + noises[2::2]
    gains = (h / 6.0) * (ends + 4.0 * (late @ noises[1::2] @ late.swapaxes(-1, -2)))
    return maps, gains


def _periodic_states(model: LinearGaussianModel, period: float) -> tuple[
    NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], list
]:
    """Periodic steady states of a row-stacked model: times (n,), then per row its cycle
    (k, n, d, d), residual, rho(Phi)^2 and the error periodic_steady_state raises, or None.

    The arrays are read-only.  A failed row's cycle and residual are NaN;
    its radius is NaN only if its period map diverged.  A stack of k rows
    (models._lab_stack) samples (s, k, d, d) at times of shape (s, 1), and
    one diffusion sample at t = 0 gives k; any other model is the k = 1
    stack.  Over one period at the default step, each row's monodromy Phi
    (from I) and noise integral Q (from 0) step as Phi -> M Phi and
    Q -> M Q M^T + G, with _congruence_steps' RK4 map M and Simpson gain G,
    sampled max(CHUNK_STEPS, CHUNK_MODEL_STEPS // k) steps per call.  V0
    solves V0 = Phi V0 Phi^T + Q (Mari & Eisert, PRL 103, 213603 (2009));
    the cycle samples are Phi V0 Phi^T + Q.
    """
    if not model.fastest_rate > 0.0:
        raise ParameterError("periodic_steady_state needs a positive fastest_rate; it takes no dt")
    n_steps, h = _step_grid(period, _default_dt(model))
    d, stored = model.basis.dim, _stored_steps(n_steps, CYCLE_SAMPLES)
    k = model.diffusion_at(np.zeros((1, 1))).shape[1]
    chunk = max(CHUNK_STEPS, CHUNK_MODEL_STEPS // k)
    phi, q = np.broadcast_to(np.eye(d), (k, d, d)), np.zeros((k, d, d))
    samples = [(phi, q)]
    # A diverged row is carried as inf and NaN, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, chunk):
            count = min(chunk, n_steps - first)
            times = ((2 * first + np.arange(2 * count + 1)) * (h / 2))[:, None]
            maps, gains = _congruence_steps(model.drift_at(times), model.diffusion_at(times), h)
            steps = zip(range(first + 1, n_steps + 1), maps, maps.swapaxes(-1, -2), gains)
            for step, m, mt, g in steps:
                phi = m @ phi
                q = m @ q @ mt + g
                if step == stored[len(samples)]:
                    samples.append((phi, q))
        finite = np.all(np.isfinite(phi) & np.isfinite(q), axis=(1, 2))
        eig = np.linalg.eigvals(np.where(finite[:, None, None], phi, 0.0))
    radii = np.where(finite, np.max(np.abs(eig), axis=-1) ** 2, np.nan)
    errors: list = [None if f else NumericalError("period map diverged; reduce dt") for f in finite]
    for i in np.flatnonzero(radii >= 1.0):
        errors[i] = UnstableModelError(
            f"Floquet multiplier modulus {radii[i]:.6g} >= 1; no periodic steady state"
        )
    live = [i for i, error in enumerate(errors) if error is None]
    # Allocated before the samples are stacked, an order that measured a lower peak RSS.
    covs, residuals = np.full((k, len(stored), d, d), np.nan), np.full(k, np.nan)
    phis, qs = (np.array(x)[:, live] for x in zip(*samples))
    # vech(Phi V Phi^T) is C vech V: entry ((i, j), (k, l)) of C is
    # Phi_ik Phi_jl, plus Phi_il Phi_jk for k < l.
    rows, cols = _upper(d)
    p = phi[live]
    congruence = p[:, rows[:, None], rows] * p[:, cols[:, None], cols]
    congruence += (rows < cols) * (p[:, rows[:, None], cols] * p[:, cols[:, None], rows])
    rhs = _vech(q[live])[..., None]
    vechs = _stacked_solve(np.eye(len(rows)) - congruence, rhs, live, errors, "period-map")
    v0s = _unpacked(vechs[..., 0])
    cycles = phis @ v0s @ np.swapaxes(phis, -1, -2) + qs
    times = _frozen(np.multiply(stored, h))
    for i, v0, cycle in zip(live, v0s, np.swapaxes(cycles, 0, 1)):
        if errors[i] is not None:
            continue
        try:
            if not np.all(np.isfinite(v0)):
                raise NumericalError("non-finite periodic steady state")
            covs[i] = _sample_covariances(times, _symmetrized(cycle))
        except (NumericalError, CovarianceError) as error:
            errors[i] = error
            continue
        residuals[i] = np.max(np.abs(covs[i, -1] - v0)) / max(1.0, np.max(np.abs(v0)))
    covs.flags.writeable = residuals.flags.writeable = radii.flags.writeable = False
    return times, covs, residuals, radii, errors


def periodic_steady_state(model: LinearGaussianModel, period: float) -> PeriodicSteadyState:
    """Quasistationary cycle of a model with period-periodic coefficients.

    The fixed point of the period map V -> Phi V Phi^T + Q (_periodic_states)
    is what a long evolve run settles onto, and for a constant model, at any
    period, its steady_state, both up to the integration error.
    """
    times, covs, residuals, radii, errors = _periodic_states(model, period)
    _raise_first(errors)
    return PeriodicSteadyState(times, covs[0], model.basis, float(radii[0]), float(residuals[0]))


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


def find_threshold(model_family, bracket: tuple[float, float], tol: float = THRESHOLD_TOL) -> float:
    """Bisect the stability boundary of a one-parameter model family.

    model_family maps a scalar to a LinearGaussianModel; the bracket must
    contain exactly one change of the stability verdict, which _hurwitz
    takes for both ends in one call and for each midpoint.  Marginal spectra
    (max Re(eig) = 0) count as unstable, so the returned point is the lower
    edge of instability up to tol, or wherever MAX_BISECTIONS steps end.
    Time-periodic families are refused, as by stability.  This is the
    one-bracket case of the lockstep bisection.  A tol that is not positive
    and finite raises ParameterError.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ParameterError(f"bracket must be increasing, got {bracket}")
    if not 0.0 < tol < math.inf:
        bound = "positive" if tol <= 0.0 else "finite"
        raise ParameterError(f"tolerance must be {bound}, got {tol}")
    s_lo, s_hi = _stable_points([model_family(lo), model_family(hi)]).tolist()
    if s_lo == s_hi:
        raise BracketError(
            f"bracket endpoints {bracket} are both {'stable' if s_lo else 'unstable'}"
        )

    def stable_at(_, mid: NDArray[np.float64]) -> NDArray[np.bool_]:
        return _stable_points([model_family(float(mid[0]))])

    return float(_bisect_brackets(stable_at, [lo], [hi], [s_lo], lambda _: tol)[0])
