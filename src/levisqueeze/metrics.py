"""Squeezing figures of merit and parameter sweeps.

The mechanical 2x2 covariance block is reduced to its eigen-variances: v_sq
(smallest), v_asq (largest), their ratio eta, and the angle of the squeezed
axis measured from x toward p in [0, pi).  In the vacuum = identity
convention a state is nonclassical exactly when v_sq < 1.  Eigenvalues are
invariant under frame rotations, so rotating-frame and lab-frame models can
be compared without undoing the rotation; only the angle is frame-dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .dynamics import EvolutionResult, _constant_parts, _steady_states, evolve
from .errors import (
    BasisError,
    IntegrationError,
    NumericalError,
    ParameterError,
    UnstableModelError,
)
from .gaussian import LinearGaussianModel, QuadratureBasis
from .models import SystemParams, initial_covariance

MECH_LABELS = ("x", "p")


@dataclass(frozen=True)
class SqueezingReport:
    """Eigen-variances of a mechanical covariance block."""

    v_sq: float
    v_asq: float
    eta: float
    angle: float
    nonclassical: bool
    time: float | None = None
    #: True when a time optimum is the first or last stored sample, so the
    #: window rather than the dynamics may have set it.
    at_edge: bool = False


def mechanical_block(covs: NDArray[np.float64], basis: QuadratureBasis) -> NDArray[np.float64]:
    """The (x, p) blocks (..., 2, 2) of covariances (..., d, d) in the given basis.

    A basis without x and p, or one that does not fit the shape, raises BasisError.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.shape[-2:] != (basis.dim, basis.dim):
        raise BasisError(f"covariances of shape {covs.shape} do not fit {basis.labels}")
    idx = [basis.index(label) for label in MECH_LABELS]
    return covs[..., idx, :][..., idx]


def _squeezing_reports(
    blocks: NDArray[np.float64], time: float | None = None
) -> list[SqueezingReport]:
    """Reduce stacked (k, 2, 2) covariances with one batched eigh."""
    eigvals, eigvecs = np.linalg.eigh(0.5 * (blocks + blocks.transpose(0, 2, 1)))
    return [
        SqueezingReport(
            v_sq=v_sq,
            v_asq=v_asq,
            eta=v_sq / v_asq,
            angle=math.atan2(vec[1][0], vec[0][0]) % math.pi,
            nonclassical=v_sq < 1.0,
            time=time,
        )
        for (v_sq, v_asq), vec in zip(eigvals.tolist(), eigvecs.tolist())
    ]


def squeezing_metrics(v: NDArray[np.float64], time: float | None = None) -> SqueezingReport:
    """Reduce a 2x2 covariance to its squeezing figures of merit."""
    m = np.asarray(v, dtype=float)
    if m.shape != (2, 2):
        raise ParameterError(f"need a 2x2 mechanical block, got shape {m.shape}")
    return _squeezing_reports(m[None], time)[0]


def rotate_covariance(v: NDArray[np.float64], theta: float) -> NDArray[np.float64]:
    """Rotate a 2x2 covariance by angle theta in the (x, p) plane.

    With theta = omega_x * t this undoes free phase-space precession, so a
    lab-frame trajectory can be read off in the co-rotating frame where
    squeezing along a fixed quadrature is visible.  The spectrum, and hence
    v_sq and v_asq, is unchanged.
    """
    m = np.asarray(v, dtype=float)
    if m.shape != (2, 2):
        raise ParameterError(f"need a 2x2 mechanical block, got shape {m.shape}")
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, s], [-s, c]])
    return r @ m @ r.T


#: Columns of :func:`mechanical_trajectory`.
TRAJECTORY_COLUMNS = ("t", "Vxx", "Vxp", "Vpp", "v_sq", "v_asq", "eta")


def mechanical_trajectory(result: EvolutionResult) -> NDArray[np.float64]:
    """Mechanical covariance and eigen-variances at every stored time.

    One row per stored time, with the columns TRAJECTORY_COLUMNS.
    """
    mech = mechanical_block(result.covariances, result.basis)
    a, b, c = mech[:, 0, 0], mech[:, 0, 1], mech[:, 1, 1]
    mean, rad = 0.5 * (a + c), np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    v_sq, v_asq = mean - rad, mean + rad
    return np.column_stack((result.times, a, b, c, v_sq, v_asq, v_sq / v_asq))


def vsq_trajectory(result: EvolutionResult) -> NDArray[np.float64]:
    """Smallest mechanical eigen-variance at every stored time."""
    return mechanical_trajectory(result)[:, TRAJECTORY_COLUMNS.index("v_sq")]


def _parabolic_vertex(
    t: Sequence[float], v: Sequence[float]
) -> tuple[float, float] | None:
    """Vertex of the parabola through three points, None if not convex."""
    t0, t1, t2 = t
    v0, v1, v2 = v
    d0 = (v1 - v0) / (t1 - t0)
    d1 = (v2 - v1) / (t2 - t1)
    curv = (d1 - d0) / (t2 - t0)
    if curv <= 0.0:
        return None
    # Vertex of the Newton-form parabola v0 + d0 (t - t0) + curv (t - t0)(t - t1).
    t_star = 0.5 * (t0 + t1) - d0 / (2.0 * curv)
    if not t0 <= t_star <= t2:
        return None
    v_star = v0 + d0 * (t_star - t0) + curv * (t_star - t0) * (t_star - t1)
    return t_star, v_star


def optimize_over_time(result: EvolutionResult) -> SqueezingReport:
    """Best (smallest) v_sq over a stored trajectory.

    The discrete minimum is refined by a parabola through its neighbors when
    it falls in the interior of the grid; v_asq, eta and angle are reported
    at the unrefined grid point.  A minimum on the first or last stored
    sample is reported with at_edge set.
    """
    traj = vsq_trajectory(result)
    i = int(np.argmin(traj))
    block = mechanical_block(result.covariances[i], result.basis)
    base = squeezing_metrics(block, time=float(result.times[i]))
    if i in (0, len(traj) - 1):
        return replace(base, at_edge=True)
    refined = _parabolic_vertex(result.times[i - 1 : i + 2], traj[i - 1 : i + 2])
    if refined is not None and 0.0 < refined[1] <= base.v_sq:
        t_star, v_star = refined
        return replace(
            base, v_sq=v_star, eta=v_star / base.v_asq, nonclassical=v_star < 1.0, time=t_star
        )
    return base


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    """Named parameter grid; name must be a SystemParams field or q_m."""

    name: str
    values: tuple[float, ...]

    @staticmethod
    def linear(name: str, start: float, stop: float, points: int) -> "SweepAxis":
        if points < 1:
            raise ParameterError(f"need at least one grid point, got {points}")
        return SweepAxis(name, tuple(float(x) for x in np.linspace(start, stop, points)))

    @staticmethod
    def log(name: str, start: float, stop: float, points: int) -> "SweepAxis":
        if start <= 0.0 or stop <= 0.0:
            raise ParameterError("log axis needs positive endpoints")
        if points < 1:
            raise ParameterError(f"need at least one grid point, got {points}")
        return SweepAxis(
            name, tuple(float(x) for x in np.geomspace(start, stop, points))
        )


@dataclass(frozen=True)
class SweepPoint:
    value: float
    params: SystemParams
    status: str  # "ok", "unstable" or "failed"
    report: SqueezingReport | None
    detail: str = ""


@dataclass(frozen=True)
class SweepTable:
    axis: SweepAxis
    evaluation: str
    points: tuple[SweepPoint, ...]


def _steady_points(build, params: list[SystemParams], values: Sequence[float]) -> list[SweepPoint]:
    """Steady points of a sweep, solved as one stack and reduced with one batched eigh."""
    models = [build(p) for p in params]
    stack = _steady_states(*_constant_parts(models))
    reports = iter(_squeezing_reports(mechanical_block(stack.covariances, models[0].basis)))
    points = []
    for value, p, error in zip(values, params, stack.errors):
        if error is None:
            points.append(SweepPoint(value, p, "ok", next(reports)))
        else:
            status = "unstable" if isinstance(error, UnstableModelError) else "failed"
            points.append(SweepPoint(value, p, status, None, str(error)))
    return points


def _transient_point(
    build, params: SystemParams, value: float, t_end: float, dt: float | None
) -> SweepPoint:
    model = build(params)
    try:
        result = evolve(model, initial_covariance(params, model.basis), t_end, dt)
        return SweepPoint(value, params, "ok", optimize_over_time(result))
    except (NumericalError, IntegrationError) as exc:
        return SweepPoint(value, params, "failed", None, str(exc))


def sweep(
    axis: SweepAxis,
    build: Callable[[SystemParams], LinearGaussianModel],
    params: SystemParams,
    evaluation: str,
    t_end: float | None = None,
    dt: float | None = None,
) -> SweepTable:
    """Evaluate squeezing metrics along one parameter axis.

    evaluation "steady" reads the algebraic steady state (points beyond an
    instability are marked, not fatal); "transient" integrates from the
    thermal initial state of each point and optimizes over time, which
    requires t_end.  The points follow axis.values.
    """
    if evaluation not in ("steady", "transient"):
        raise ParameterError(f"evaluation must be steady or transient, got {evaluation!r}")
    if evaluation == "transient" and t_end is None:
        raise ParameterError("transient sweeps need t_end")

    if evaluation == "steady":
        point_params = [params.with_value(axis.name, value) for value in axis.values]
        points = _steady_points(build, point_params, axis.values)
    else:
        points = [
            _transient_point(build, params.with_value(axis.name, value), value, float(t_end), dt)
            for value in axis.values
        ]
    return SweepTable(axis=axis, evaluation=evaluation, points=tuple(points))
