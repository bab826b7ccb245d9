"""Stochastic-trajectory cross-check of the Lyapunov solvers.

An ensemble of classical trajectories of dr = A r dt + L dW with
L L^T = N / 2 reproduces, through twice its symmetrized second moments, the
covariance V of the Lyapunov flow in the vacuum = identity convention.  The
integrator is deliberately different from the covariance path (a weak
order-2 scheme on trajectories versus Runge-Kutta on V), so agreement
certifies drift and diffusion normalizations rather than repeating the same
arithmetic.

Trajectories come in chunks of _CHUNK = 100, each with one counter-keyed
Philox stream: chunk c takes child c of SeedSequence(seed) and holds
trajectories 100 c to 100 c + 99.  A chunk draws its initial points as one
(_CHUNK, d) array, then its step noise step-major, as (steps, _CHUNK, d)
per noise block, so the values do not depend on the block size.  A partial
last chunk is drawn in full and trimmed.  Trajectory i's path therefore
depends only on (seed, i), not on the ensemble size or the blocking.
Building one stream per chunk rather than per trajectory keeps the stream
set-up a small share of the run.

Each step is the simplified weak order-2 scheme for linear drift and
additive noise (Kloeden & Platen 1992, ch. 14),

    r <- (I + hA + h^2 A^2 / 2) r + (I + hA / 2) L sqrt(h) xi,

with A and L sampled once per step at its midpoint, which keeps the scheme
second order for a time-dependent drift.  It draws the same d normals per
step as Euler-Maruyama, with a bias of order h^2 instead of h.  The scheme
is a linear recursion in r, so the steps between two checkpoints (or
noise-block edges) compose into one transfer matrix and one stacked noise
gain.  The ensemble advances by those composed maps, which give the same
estimator as stepping one step at a time.  The step map is a truncated
Taylor series: not the matrix exponential, not exact Ornstein-Uhlenbeck
stepping and not the Lyapunov propagator, so the check stays independent of
the covariance solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import MAX_STORED, EvolutionResult, _default_dt, _step_grid
from .errors import NumericalError, ParameterError
from .gaussian import CovarianceMatrix, LinearGaussianModel, _entries_in

#: Steps must resolve the fastest rate to four percent.  The order-2 bias
#: there stays far below the standard error of a MAX_TRAJ ensemble.
EM_RESOLUTION = 0.04
#: z-score beyond which the ensemble and the Lyapunov result disagree.
Z_LIMIT = 5.0
#: Upper bound on the ensemble size, checked before any stream is built.
MAX_TRAJ = 100_000
#: Steps per block of pre-drawn noise (fixes memory, not the statistics).
_BLOCK = 200
#: Trajectories per random stream: the smallest ensemble allowed.
_CHUNK = 100


@dataclass(frozen=True)
class EnsembleSpec:
    """Size, step and seeding of a stochastic ensemble."""

    n_traj: int
    t_end: float
    dt: float
    seed: int
    n_checkpoints: int = 25

    def __post_init__(self) -> None:
        if self.n_traj < 100:
            raise ParameterError(f"need at least 100 trajectories, got {self.n_traj}")
        if self.n_traj > MAX_TRAJ:
            raise ParameterError(f"need at most {MAX_TRAJ} trajectories, got {self.n_traj}")
        _step_grid(self.t_end, self.dt)  # refuses a non-positive or non-finite t_end or dt
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if not 2 <= self.n_checkpoints <= MAX_STORED:
            raise ParameterError(
                f"need between 2 and {MAX_STORED} checkpoints, got {self.n_checkpoints}"
            )

    @property
    def n_steps(self) -> int:
        """Steps taken: t_end / dt rounded up, as evolve does, so no step exceeds dt."""
        return _step_grid(self.t_end, self.dt)[0]

    @property
    def n_streams(self) -> int:
        """Random streams built: one per chunk of _CHUNK trajectories, the last padded."""
        return -(-self.n_traj // _CHUNK)

    @property
    def step(self) -> float:
        """Step actually taken, trimmed so the grid lands on t_end."""
        return _step_grid(self.t_end, self.dt)[1]


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Sample covariances (vacuum = identity convention) and their errors."""

    times: NDArray[np.float64]
    covariances: NDArray[np.float64]
    stderr: NDArray[np.float64]


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Entrywise z-scores of an ensemble against a Lyapunov trajectory.

    worst_time and worst_entry (a pair of basis labels) locate max_z.
    """

    times: NDArray[np.float64]
    z_scores: NDArray[np.float64]
    max_z: float
    z_limit: float
    worst_time: float
    worst_entry: tuple[str, str]

    @property
    def passed(self) -> bool:
        return self.max_z < self.z_limit


def _noise_matrix(n: NDArray[np.float64]) -> NDArray[np.float64]:
    """Factor L with L L^T = N / 2 (diagonal fast path, else Cholesky)."""
    half = 0.5 * np.asarray(n, dtype=float)
    if np.allclose(half, np.diag(np.diag(half)), atol=0.0):
        if np.any(np.diag(half) < 0.0):
            raise NumericalError("negative diagonal diffusion")
        return np.diag(np.sqrt(np.diag(half)))
    try:
        return np.linalg.cholesky(half)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"diffusion matrix is not positive semidefinite: {exc}") from exc


def _sample_covariance(r: NDArray[np.float64]) -> NDArray[np.float64]:
    """Vacuum-normalized covariance estimate 2 <r r^T> for zero-mean r."""
    return 2.0 * (r.T @ r) / r.shape[0]


def _stderr(v_hat: NDArray[np.float64], n_traj: int) -> NDArray[np.float64]:
    """Gaussian standard error of each entry of the estimator above."""
    d = np.diag(v_hat)
    return np.sqrt((np.outer(d, d) + v_hat**2) / n_traj)


def _streams(seed: int, n_streams: int) -> list[np.random.Generator]:
    """Counter-keyed Philox streams, stream c keyed by child c of SeedSequence(seed).

    Stream c feeds the chunk of trajectories c _CHUNK to (c + 1) _CHUNK - 1.
    """
    return [
        np.random.Generator(np.random.Philox(child))
        for child in np.random.SeedSequence(seed).spawn(n_streams)
    ]


def _step_map(
    model: LinearGaussianModel, t_mid: float, h: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The weak order-2 step r -> r @ p + xi @ q of length h around t_mid.

    A and L are sampled once, at the midpoint t_mid; returns
    p = (I + hA + h^2 A^2 / 2)^T and q = sqrt(h) ((I + hA/2) L)^T.
    """
    ha = h * np.asarray(model.drift_at(t_mid), dtype=float)
    eye = np.eye(ha.shape[0])
    p = eye + ha + 0.5 * (ha @ ha)
    q = np.sqrt(h) * ((eye + 0.5 * ha) @ _noise_matrix(model.diffusion_at(t_mid)))
    return p.T, q.T


def _interval_maps(
    steps: list[tuple[NDArray[np.float64], NDArray[np.float64]]],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Compose the steps r -> r @ p + xi @ q of one interval.

    steps holds the (p, q) of _step_map for each step in order.
    Returns the transfer p_0 ... p_{k-1} and the gains q_j p_{j+1} ... p_{k-1}
    stacked to (k, d, d), so that the end state is
    r @ transfer + sum_j xi_j @ gains[j].
    """
    d = steps[0][0].shape[0]
    gains = np.empty((len(steps), d, d))
    transfer = np.eye(d)
    for j in range(len(steps) - 1, -1, -1):
        p, q = steps[j]
        gains[j] = q @ transfer
        transfer = p @ transfer
    return transfer, gains


def simulate_ensemble(
    model: LinearGaussianModel,
    v0: CovarianceMatrix | NDArray[np.float64],
    spec: EnsembleSpec,
) -> EnsembleResult:
    """Weak order-2 ensemble of the model's classical Langevin equation.

    Initial points are drawn from the Gaussian with covariance v0; noise is
    drawn in blocks of up to _BLOCK steps from one stream per chunk of
    _CHUNK trajectories.  The padding of a partial last chunk is stepped but
    left out of every estimate and of the finiteness check.  The steps
    between consecutive stops (checkpoints and block edges) are composed
    into one transfer map and one stacked noise gain, so the whole ensemble
    advances by one transfer product per interval plus one d x d noise
    product per step, which reads the noise block in place.  Checkpoints are
    evenly spaced step indices including t = 0 and t_end.
    """
    start = _entries_in(model.basis, v0)
    if model.fastest_rate > 0.0 and spec.dt > (limit := _default_dt(model, EM_RESOLUTION)):
        raise ParameterError(
            f"dt = {spec.dt:g} too coarse for rate {model.fastest_rate:g}; need dt <= {limit:g}"
        )
    d = model.basis.dim
    n_steps, h = spec.n_steps, spec.step
    # More points than steps would only repeat step indices.
    n_marks = min(spec.n_checkpoints, n_steps + 1)
    checkpoints = np.unique(np.linspace(0, n_steps, n_marks).astype(int))

    streams = _streams(spec.seed, spec.n_streams)
    try:
        l0 = np.linalg.cholesky(0.5 * start)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"initial covariance is not positive definite: {exc}") from exc
    # Stream c fills noise[c], step-major; r is (chunk, trajectory, coordinate).
    noise = np.empty((len(streams), min(_BLOCK, n_steps), _CHUNK, d))
    for g, out in zip(streams, noise[:, 0]):
        g.standard_normal(out=out)
    r = noise[:, 0] @ l0.T

    # A constant model samples its step once; others once per step.
    fixed = _step_map(model, 0.5 * h, h) if model.is_time_independent else None

    marks = set(checkpoints.tolist())
    stops = sorted(marks | set(range(0, n_steps, _BLOCK)) | {n_steps})
    times = [0.0]
    covs = [_sample_covariance(r.reshape(-1, d)[: spec.n_traj])]
    for lo, hi in zip(stops[:-1], stops[1:]):
        start = lo - lo % _BLOCK
        if lo == start:
            block = min(_BLOCK, n_steps - lo)
            for g, out in zip(streams, noise[:, :block]):
                g.standard_normal(out=out)
        if fixed is None:
            steps = [_step_map(model, (n + 0.5) * h, h) for n in range(lo, hi)]
        else:
            steps = [fixed] * (hi - lo)
        transfer, gains = _interval_maps(steps)
        r = r @ transfer
        for xi, gain in zip(noise[:, lo - start : hi - start].swapaxes(0, 1), gains):
            r += xi @ gain
        if hi in marks:
            live = r.reshape(-1, d)[: spec.n_traj]
            if not np.all(np.isfinite(live)):
                raise NumericalError(f"ensemble diverged at t = {hi * h:g}")
            times.append(hi * h)
            covs.append(_sample_covariance(live))

    t_arr = np.array(times)
    v_arr = np.stack(covs)
    err = np.stack([_stderr(v, spec.n_traj) for v in v_arr])
    for arr in (t_arr, v_arr, err):
        arr.flags.writeable = False
    return EnsembleResult(times=t_arr, covariances=v_arr, stderr=err)


def compare(ensemble: EnsembleResult, reference: EvolutionResult) -> ComparisonReport:
    """z-scores of the ensemble covariances against a Lyapunov trajectory.

    The reference is interpolated linearly onto the ensemble checkpoints,
    which must lie inside the stored time range.
    """
    t_ref = reference.times
    if ensemble.times[0] < t_ref[0] - 1e-12 or ensemble.times[-1] > t_ref[-1] + 1e-12:
        raise ParameterError(
            f"ensemble window [{ensemble.times[0]:g}, {ensemble.times[-1]:g}] outside "
            f"reference window [{t_ref[0]:g}, {t_ref[-1]:g}]"
        )
    columns = reference.covariances.reshape(len(t_ref), -1).T
    ref = np.stack([np.interp(ensemble.times, t_ref, col) for col in columns], axis=-1)
    diff = ensemble.covariances - ref.reshape(ensemble.covariances.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            ensemble.stderr > 0.0,
            diff / ensemble.stderr,
            np.where(diff == 0.0, 0.0, np.inf),
        )
    mag = np.abs(z)
    k, i, j = np.unravel_index(np.argmax(mag), z.shape)
    labels = reference.basis.labels
    return ComparisonReport(
        times=ensemble.times,
        z_scores=z,
        max_z=float(mag[k, i, j]),
        z_limit=Z_LIMIT,
        worst_time=float(ensemble.times[k]),
        worst_entry=(labels[i], labels[j]),
    )
