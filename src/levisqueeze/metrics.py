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

from .dynamics import EvolutionResult, evolve, steady_state
from .errors import (
    IntegrationError,
    NumericalError,
    ParameterError,
    UnstableModelError,
)
from .gaussian import CovarianceMatrix, LinearGaussianModel
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


def mechanical_block(v: CovarianceMatrix) -> CovarianceMatrix:
    """The (x, p) sub-covariance; identity on two-dimensional input."""
    if v.basis.labels == MECH_LABELS:
        return v
    return v.block(MECH_LABELS)


def squeezing_metrics(
    v: CovarianceMatrix | NDArray[np.float64], time: float | None = None
) -> SqueezingReport:
    """Reduce a 2x2 covariance to its squeezing figures of merit."""
    if isinstance(v, CovarianceMatrix):
        v = mechanical_block(v)
        m = v.entries
    else:
        m = np.asarray(v, dtype=float)
    if m.shape != (2, 2):
        raise ParameterError(f"need a 2x2 mechanical block, got shape {m.shape}")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (m + m.T))
    v_sq, v_asq = float(eigvals[0]), float(eigvals[1])
    angle = math.atan2(eigvecs[1, 0], eigvecs[0, 0]) % math.pi
    return SqueezingReport(
        v_sq=v_sq,
        v_asq=v_asq,
        eta=v_sq / v_asq,
        angle=angle,
        nonclassical=v_sq < 1.0,
        time=time,
    )


def rotate_covariance(
    v: CovarianceMatrix | NDArray[np.float64], theta: float
) -> NDArray[np.float64]:
    """Rotate a 2x2 covariance by angle theta in the (x, p) plane.

    With theta = omega_x * t this undoes free phase-space precession, so a
    lab-frame trajectory can be read off in the co-rotating frame where
    squeezing along a fixed quadrature is visible.  The spectrum, and hence
    v_sq and v_asq, is unchanged.
    """
    if isinstance(v, CovarianceMatrix):
        v = mechanical_block(v).entries
    m = np.asarray(v, dtype=float)
    if m.shape != (2, 2):
        raise ParameterError(f"need a 2x2 mechanical block, got shape {m.shape}")
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, s], [-s, c]])
    return r @ m @ r.T


def _mech_indices(result: EvolutionResult) -> list[int]:
    return [result.basis.index(label) for label in MECH_LABELS]


#: Columns of :func:`mechanical_trajectory`.
TRAJECTORY_COLUMNS = ("t", "Vxx", "Vxp", "Vpp", "v_sq", "v_asq", "eta")


def mechanical_trajectory(result: EvolutionResult) -> NDArray[np.float64]:
    """Mechanical covariance and eigen-variances at every stored time.

    One row per stored time, with the columns TRAJECTORY_COLUMNS.
    """
    ix, ip = _mech_indices(result)
    stack = result.covariances
    a, b, c = stack[:, ix, ix], stack[:, ix, ip], stack[:, ip, ip]
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
    idx = _mech_indices(result)
    base = squeezing_metrics(result.covariances[i][np.ix_(idx, idx)], time=float(result.times[i]))
    if i in (0, len(traj) - 1):
        return replace(base, at_edge=True)
    refined = _parabolic_vertex(result.times[i - 1 : i + 2], traj[i - 1 : i + 2])
    if refined is not None and 0.0 < refined[1] <= base.v_sq:
        t_star, v_star = refined
        return replace(
            base, v_sq=v_star, eta=v_star / base.v_asq, nonclassical=v_star < 1.0, time=t_star
        )
    return base


def quasistationary_vsq(result: EvolutionResult, period: float | None = None) -> float:
    """v_sq averaged over the last full mechanical period of a run.

    Intended for marginally stable or slowly breathing late-time dynamics
    where a single-time readout would alias the oscillation.
    """
    if period is None:
        params = result.descriptor.params
        if not isinstance(params, SystemParams):
            raise ParameterError("no period given and none derivable from the model")
        period = 2.0 * math.pi / params.omega_x
    t_end = float(result.times[-1])
    mask = result.times >= t_end - period
    if not np.any(mask):
        raise ParameterError(f"period {period:g} longer than the stored run")
    return float(np.mean(vsq_trajectory(result)[mask]))


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


def _steady_point(build, params: SystemParams, value: float) -> SweepPoint:
    try:
        result = steady_state(build(params))
        report = squeezing_metrics(mechanical_block(result.covariance))
        return SweepPoint(value, params, "ok", report)
    except UnstableModelError as exc:
        return SweepPoint(value, params, "unstable", None, str(exc))
    except (NumericalError, IntegrationError) as exc:
        return SweepPoint(value, params, "failed", None, str(exc))


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

    def job(value: float) -> SweepPoint:
        point_params = params.with_value(axis.name, value)
        if evaluation == "steady":
            return _steady_point(build, point_params, value)
        return _transient_point(build, point_params, value, float(t_end), dt)

    points = tuple(job(v) for v in axis.values)
    return SweepTable(axis=axis, evaluation=evaluation, points=points)
