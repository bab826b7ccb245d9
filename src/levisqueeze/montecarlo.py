"""Stochastic-trajectory cross-check of the Lyapunov solvers.

An ensemble of classical trajectories of dr = A r dt + L dW with
L L^T = N / 2 reproduces, through twice its symmetrized second moments, the
covariance V of the Lyapunov flow in the vacuum = identity convention.  The
integrator is deliberately different from the covariance path (a weak
order-2 recursion on trajectories versus Runge-Kutta on V), so agreement
certifies drift and diffusion normalizations rather than repeating the same
arithmetic.

Each step is the simplified weak order-2 scheme for linear drift and
additive noise (Kloeden & Platen 1992, ch. 14),

    r <- (I + hA + h^2 A^2 / 2) r + (I + hA / 2) L sqrt(h) xi,

with A and L sampled once per step at its midpoint, which keeps the scheme
second order for a time-dependent drift; its bias is of order h^2 instead
of Euler's h.  The step map is a truncated Taylor series: not the matrix
exponential, not exact Ornstein-Uhlenbeck stepping and not the Lyapunov
propagator, so the check stays independent of the covariance solvers.

The recursion is linear in r and in the noise, so the steps between two
checkpoints compose into one transfer matrix T and noise gains G_j, and the
state at the next checkpoint is r T + sum_j xi_j G_j.  The step maps of an
interval come from one drift_at and one diffusion_at call on all its step
midpoints; a constant model composes each distinct interval length once.
That noise sum is Gaussian with covariance C = sum_j G_j^T G_j and
independent across intervals, so the ensemble draws it as one d-vector per
trajectory and interval, mapped through the triangular factor R of a QR
decomposition of the stacked gains (R^T R = C, never squared, so it neither
overflows before the states do nor needs C to be regular).  This is exact
in law: the checkpoint states have the distribution that stepping with
per-step noise gives them, and only the sampled values differ.  Per-step
noise was never a quantity under test; the check still tests L L^T = N / 2,
the factor 2 of the estimator and the Cholesky factor of V0 that draws the
initial points.

Trajectories come in chunks of _CHUNK = 100, each with one SFC64 stream:
chunk c takes child c of SeedSequence(seed) and holds trajectories 100 c to
100 c + 99.  A chunk draws its initial points as one (_CHUNK, d) array,
then one (_CHUNK, d) array per checkpoint interval.  A partial last chunk
is drawn in full and trimmed.  Trajectory i's path
therefore depends only on (seed, i) and the checkpoint grid, not on the
ensemble size.  Building one stream per chunk rather than per trajectory
keeps the stream set-up a small share of the run.  The normals are then
most of an ensemble's time, and in (_CHUNK, 4) blocks SFC64 draws one in
about 0.78 of Philox's time and 0.88 of PCG64's (numpy 2.4, 2 cores).  The
spawned children, not a counter, keep the streams apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import MAX_STORED, EvolutionResult, _default_dt, _step_grid, _whole
from .errors import NumericalError, ParameterError
from .gaussian import CovarianceMatrix, LinearGaussianModel, _entries_in

#: Steps must resolve the fastest rate to four percent.  The order-2 bias
#: there stays far below the standard error of a MAX_TRAJ ensemble.
EM_RESOLUTION = 0.04
#: z-score beyond which the ensemble and the Lyapunov result disagree.
Z_LIMIT = 5.0
#: Upper bound on the ensemble size, checked before any stream is built.
MAX_TRAJ = 100_000
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
        for count in ("n_traj", "seed", "n_checkpoints"):
            object.__setattr__(self, count, _whole(getattr(self, count), count))
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
    def checkpoints(self) -> tuple[int, ...]:
        """Step indices sampled: evenly spaced from step 0 to the last, without repeats."""
        n_steps = self.n_steps
        # More points than steps would only repeat step indices.
        marks = np.linspace(0, n_steps, min(self.n_checkpoints, n_steps + 1)).astype(int)
        return tuple(np.unique(marks).tolist())

    def normals_drawn(self, dim: int) -> int:
        """Normals drawn for a d = dim model: the initial points and one block per interval.

        Every stream draws a full chunk, padding included.
        """
        return self.n_streams * _CHUNK * dim * len(self.checkpoints)

    @property
    def step(self) -> float:
        """Step actually taken, trimmed so the grid lands on t_end."""
        return _step_grid(self.t_end, self.dt)[1]


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Sample covariances (vacuum = identity convention) and their errors.

    bit_generator names the class of the bit generator that drew the noise.
    """

    times: NDArray[np.float64]
    covariances: NDArray[np.float64]
    stderr: NDArray[np.float64]
    bit_generator: str


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
    """Factors L with L L^T = N / 2 of one N or a stack (..., d, d).

    A diagonal N takes the square roots of its diagonal, any other Cholesky.
    """
    half = 0.5 * np.asarray(n, dtype=float)
    diagonal = np.where(np.eye(half.shape[-1], dtype=bool), half, 0.0)
    plain = (half == diagonal).all(axis=(-2, -1))
    if np.any(diagonal[plain] < 0.0):
        raise NumericalError("negative diagonal diffusion")
    factors = np.sqrt(diagonal, out=np.zeros_like(half), where=plain[..., None, None])
    try:
        factors[~plain] = np.linalg.cholesky(half[~plain])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"diffusion matrix is not positive semidefinite: {exc}") from exc
    return factors


def _sample_covariance(r: NDArray[np.float64]) -> NDArray[np.float64]:
    """Vacuum-normalized covariance estimate 2 <r r^T> for zero-mean r."""
    return 2.0 * (r.T @ r) / r.shape[0]


def _stderr(v_hat: NDArray[np.float64], n_traj: int) -> NDArray[np.float64]:
    """Gaussian standard error of each entry of the estimator above."""
    d = np.diag(v_hat)
    return np.sqrt((np.outer(d, d) + v_hat**2) / n_traj)


def _streams(seed: int, n_streams: int) -> list[np.random.Generator]:
    """SFC64 streams, stream c keyed by child c of SeedSequence(seed).

    Stream c feeds the chunk of trajectories c _CHUNK to (c + 1) _CHUNK - 1.
    SFC64 draws normals faster than Philox and PCG64, and the draws are
    most of an ensemble's time (the module docstring gives the ratios).
    """
    return [
        np.random.Generator(np.random.SFC64(child))
        for child in np.random.SeedSequence(seed).spawn(n_streams)
    ]


def _step_map(
    model: LinearGaussianModel, t_mid: float | NDArray[np.float64], h: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The weak order-2 step r -> r @ p + xi @ q of length h around t_mid.

    A and L are sampled once, at the midpoint t_mid, or at every midpoint of
    an array of them in one drift_at and one diffusion_at call; returns
    p = (I + hA + h^2 A^2 / 2)^T and q = sqrt(h) ((I + hA/2) L)^T, stacked
    like t_mid.
    """
    ha = h * np.asarray(model.drift_at(t_mid), dtype=float)
    eye = np.eye(ha.shape[-1])
    p = eye + ha + 0.5 * (ha @ ha)
    q = np.sqrt(h) * ((eye + 0.5 * ha) @ _noise_matrix(model.diffusion_at(t_mid)))
    return p.swapaxes(-1, -2), q.swapaxes(-1, -2)


def _interval_law(
    steps: tuple[NDArray[np.float64], NDArray[np.float64]],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Compose the steps r -> r @ p + xi @ q of one interval into its law.

    steps is _step_map's stacked (p, q) of the interval's steps in order.
    Returns the transfer p_0 ... p_{k-1} and an upper-triangular noise
    factor R, so that the end state is r @ transfer + xi @ R with one
    standard normal d-vector xi.  R^T R is the covariance sum_j g_j^T g_j of
    the per-step noise sum, with gains g_j = q_j p_{j+1} ... p_{k-1}; R
    comes from a QR decomposition of the stacked gains, so C itself is never
    formed.
    """
    ps, qs = steps
    d = ps.shape[-1]
    gains = np.empty((len(ps), d, d))
    transfer = np.eye(d)
    for j in range(len(ps) - 1, -1, -1):
        gains[j] = qs[j] @ transfer
        transfer = ps[j] @ transfer
    return transfer, np.linalg.qr(gains.reshape(-1, d), mode="r")


def simulate_ensemble(
    model: LinearGaussianModel,
    v0: CovarianceMatrix | NDArray[np.float64],
    spec: EnsembleSpec,
) -> EnsembleResult:
    """Weak order-2 ensemble of the model's classical Langevin equation.

    Initial points are drawn from the Gaussian with covariance v0, from one
    stream per chunk of _CHUNK trajectories.  The steps between consecutive
    checkpoints (spec.checkpoints) are composed into one transfer map and
    one noise factor, and each stream then draws one (_CHUNK, d) block of
    standard normals for the interval, so the whole ensemble advances by
    two d x d products per interval.  Each interval's law samples the model
    in one drift_at and one diffusion_at call on its step midpoints, and a
    constant model composes each distinct interval length once.  The
    padding of a partial last chunk is stepped but left out of every
    estimate and of the finiteness check.
    """
    start = _entries_in(model.basis, v0)
    if model.fastest_rate > 0.0 and spec.dt > (limit := _default_dt(model, EM_RESOLUTION)):
        raise ParameterError(
            f"dt = {spec.dt:g} too coarse for rate {model.fastest_rate:g}; need dt <= {limit:g}"
        )
    d = model.basis.dim
    h = spec.step
    checkpoints = spec.checkpoints

    streams = _streams(spec.seed, spec.n_streams)
    try:
        l0 = np.linalg.cholesky(0.5 * start)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"initial covariance is not positive definite: {exc}") from exc
    # Stream c fills noise[c]; row i of flat and of r is trajectory i.
    noise = np.empty((len(streams), _CHUNK, d))
    for g, out in zip(streams, noise):
        g.standard_normal(out=out)
    flat = noise.reshape(-1, d)
    r = flat @ l0.T

    # Each interval's law samples the model once, on the interval's step
    # midpoints; a constant model's law depends only on the interval length.
    laws: dict[int, tuple[NDArray[np.float64], NDArray[np.float64]]] = {}

    times = [0.0]
    covs = [_sample_covariance(r[: spec.n_traj])]
    for lo, hi in zip(checkpoints[:-1], checkpoints[1:]):
        key = hi - lo if model.is_time_independent else lo
        if key not in laws:
            laws[key] = _interval_law(_step_map(model, (np.arange(lo, hi) + 0.5) * h, h))
        transfer, factor = laws[key]
        for g, out in zip(streams, noise):
            g.standard_normal(out=out)
        r = r @ transfer
        r += flat @ factor
        live = r[: spec.n_traj]
        if not np.all(np.isfinite(live)):
            raise NumericalError(f"ensemble diverged at t = {hi * h:g}")
        times.append(hi * h)
        covs.append(_sample_covariance(live))

    t_arr = np.array(times)
    v_arr = np.stack(covs)
    err = np.stack([_stderr(v, spec.n_traj) for v in v_arr])
    for arr in (t_arr, v_arr, err):
        arr.flags.writeable = False
    return EnsembleResult(
        times=t_arr,
        covariances=v_arr,
        stderr=err,
        bit_generator=type(streams[0].bit_generator).__name__,
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
