"""Stochastic-trajectory cross-check of the Lyapunov solvers.

An ensemble of classical trajectories of dr = A r dt + L dW with
L L^T = N / 2 reproduces, through twice its symmetrized second moments, the
covariance V of the Lyapunov flow in the vacuum = identity convention.  The
integrator is deliberately different from the covariance path (Euler scheme
on trajectories versus Runge-Kutta on V), so agreement certifies drift and
diffusion normalizations rather than repeating the same arithmetic.

Each trajectory draws from its own counter-keyed random stream derived from
(seed, trajectory index), so results are independent of batching and of the
ensemble size used for the remaining trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import MAX_STORED, EvolutionResult
from .errors import NumericalError, ParameterError
from .gaussian import CovarianceMatrix, LinearGaussianModel, ModelDescriptor

#: Euler steps must resolve the fastest rate to half a percent.
EM_RESOLUTION = 0.005
#: z-score beyond which the ensemble and the Lyapunov result disagree.
Z_LIMIT = 5.0
#: Steps per block of pre-drawn noise (fixes memory, not the statistics).
_BLOCK = 200


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
        if self.t_end <= 0.0 or self.dt <= 0.0:
            raise ParameterError("t_end and dt must be positive")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if not 2 <= self.n_checkpoints <= MAX_STORED:
            raise ParameterError(
                f"need between 2 and {MAX_STORED} checkpoints, got {self.n_checkpoints}"
            )


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Sample covariances (vacuum = identity convention) and their errors."""

    times: NDArray[np.float64]
    covariances: NDArray[np.float64]
    stderr: NDArray[np.float64]
    spec: EnsembleSpec
    descriptor: ModelDescriptor


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Entrywise z-scores of an ensemble against a Lyapunov trajectory."""

    times: NDArray[np.float64]
    z_scores: NDArray[np.float64]
    max_z: float
    z_limit: float

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


def simulate_ensemble(
    model: LinearGaussianModel, v0: CovarianceMatrix, spec: EnsembleSpec
) -> EnsembleResult:
    """Euler-Maruyama ensemble of the model's classical Langevin equation.

    Initial points are drawn from the Gaussian with covariance v0; the state
    array is advanced in lockstep while noise is pre-drawn in fixed-size
    blocks from per-trajectory streams.  Checkpoints are evenly spaced step
    indices including t = 0 and t_end.
    """
    if v0.basis.labels != model.basis.labels:
        raise ParameterError("initial covariance basis does not match the model")
    if model.fastest_rate > 0.0 and spec.dt > EM_RESOLUTION / model.fastest_rate:
        raise ParameterError(
            f"dt = {spec.dt:g} too coarse for rate {model.fastest_rate:g}; "
            f"need dt <= {EM_RESOLUTION / model.fastest_rate:g}"
        )
    d = model.basis.dim
    n_steps = max(1, int(round(spec.t_end / spec.dt)))
    h = spec.t_end / n_steps
    # More points than steps would only repeat step indices.
    n_marks = min(spec.n_checkpoints, n_steps + 1)
    checkpoints = np.unique(np.linspace(0, n_steps, n_marks).astype(int))

    streams = [
        np.random.Generator(np.random.Philox(child))
        for child in np.random.SeedSequence(spec.seed).spawn(spec.n_traj)
    ]
    try:
        l0 = np.linalg.cholesky(0.5 * v0.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"initial covariance is not positive definite: {exc}") from exc
    r = np.empty((spec.n_traj, d))
    for i, g in enumerate(streams):
        r[i] = g.standard_normal(d)
    r = r @ l0.T

    static = model.is_time_independent
    a0 = np.asarray(model.drift_at(0.0), dtype=float)
    l_static = _noise_matrix(model.diffusion_at(0.0))
    sqrt_h = np.sqrt(h)

    marks = set(int(c) for c in checkpoints)
    times = [0.0]
    covs = [_sample_covariance(r)]
    step = 0
    noise = np.empty((spec.n_traj, _BLOCK, d))
    while step < n_steps:
        block = min(_BLOCK, n_steps - step)
        for i, g in enumerate(streams):
            noise[i, :block] = g.standard_normal((block, d))
        for j in range(block):
            t = (step + j) * h
            a = a0 if static else np.asarray(model.drift_at(t), dtype=float)
            l_mat = l_static if static else _noise_matrix(model.diffusion_at(t))
            r = r + h * (r @ a.T) + sqrt_h * (noise[:, j, :] @ l_mat.T)
            if (step + j + 1) in marks:
                if not np.all(np.isfinite(r)):
                    raise NumericalError(f"ensemble diverged at t = {(step + j + 1) * h:g}")
                times.append((step + j + 1) * h)
                covs.append(_sample_covariance(r))
        step += block

    t_arr = np.array(times)
    v_arr = np.stack(covs)
    err = np.stack([_stderr(v, spec.n_traj) for v in v_arr])
    for arr in (t_arr, v_arr, err):
        arr.flags.writeable = False
    return EnsembleResult(
        times=t_arr, covariances=v_arr, stderr=err, spec=spec, descriptor=model.descriptor
    )


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
    return ComparisonReport(
        times=ensemble.times,
        z_scores=z,
        max_z=float(np.max(np.abs(z))),
        z_limit=Z_LIMIT,
    )
