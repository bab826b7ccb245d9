"""Squeezing figures of merit and parameter sweeps.

Every mechanical 2x2 covariance block [[a, b], [b, c]] goes through one
closed form: v_asq = (a + c)/2 + sqrt(((a - c)/2)^2 + b^2), v_sq =
(a c - b^2) / v_asq, eta = v_sq / v_asq, and the angle of the squeezed axis,
from x toward p in [0, pi), is atan2(-2 b, c - a) / 2.  The difference
(a + c)/2 - sqrt(...) would lose digits in proportion to v_asq / v_sq (1.3e8
at the instability threshold); the determinant loses them in proportion to
b^2 / (a c - b^2) only, which stays small while the squeezed axis lies near
x or p.  In the vacuum = identity convention a state is nonclassical exactly
when v_sq < 1.  Eigenvalues are invariant under frame rotations, so
rotating-frame and lab-frame models can be compared without undoing the
rotation; only the angle is frame-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .dynamics import MAX_STORED, EvolutionResult, _constant_parts, _steady_states, evolve
from .errors import (
    BasisError,
    IntegrationError,
    NumericalError,
    ParameterError,
    UnstableModelError,
)
from .gaussian import LinearGaussianModel, QuadratureBasis, _checked_diagonals
from .models import SystemParams, initial_covariance

MECH_LABELS = ("x", "p")


@dataclass(frozen=True)
class SqueezingReport:
    """Eigen-variances of a mechanical covariance block."""

    v_sq: float
    v_asq: float
    angle: float
    time: float | None = None
    #: True when a time optimum is the first or last stored sample, so the
    #: window rather than the dynamics may have set it.
    at_edge: bool = False

    @property
    def eta(self) -> float:
        return self.v_sq / self.v_asq

    @property
    def nonclassical(self) -> bool:
        return self.v_sq < 1.0


def mechanical_block(covs: NDArray[np.float64], basis: QuadratureBasis) -> NDArray[np.float64]:
    """The (x, p) blocks (..., 2, 2) of covariances (..., d, d) in the given basis.

    A basis without x and p, or one that does not fit the shape, raises BasisError.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.shape[-2:] != (basis.dim, basis.dim):
        raise BasisError(f"covariances of shape {covs.shape} do not fit {basis.labels}")
    idx = [basis.index(label) for label in MECH_LABELS]
    return covs[..., idx, :][..., idx]


def _eigen_variances(blocks: NDArray[np.float64]) -> tuple[NDArray[np.float64], ...]:
    """v_sq, v_asq and angle of blocks (..., 2, 2); b is the off-diagonals' mean, halved first."""
    a, c = blocks[..., 0, 0], blocks[..., 1, 1]
    b = 0.5 * blocks[..., 0, 1] + 0.5 * blocks[..., 1, 0]
    v_asq = 0.5 * (a + c) + np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    return (a * c - b**2) / v_asq, v_asq, np.mod(0.5 * np.arctan2(-2.0 * b, c - a), np.pi)


def _squeezing_reports(blocks: NDArray[np.float64]) -> list[SqueezingReport]:
    """Reduce stacked (k, 2, 2) covariances to one report each."""
    return [SqueezingReport(*row) for row in zip(*(x.tolist() for x in _eigen_variances(blocks)))]


def squeezing_metrics(v: NDArray[np.float64]) -> SqueezingReport:
    """Reduce a 2x2 covariance to its squeezing figures of merit."""
    m = np.asarray(v, dtype=float)
    if m.shape != (2, 2):
        raise ParameterError(f"need a 2x2 mechanical block, got shape {m.shape}")
    _checked_diagonals(m)
    return _squeezing_reports(m[None])[0]


#: Columns of :func:`mechanical_trajectory`.
TRAJECTORY_COLUMNS = ("t", "Vxx", "Vxp", "Vpp", "v_sq", "v_asq", "eta")


def mechanical_trajectory(result: EvolutionResult) -> NDArray[np.float64]:
    """Mechanical covariance and eigen-variances at every stored time.

    One row per stored time, with the columns TRAJECTORY_COLUMNS.
    """
    mech = mechanical_block(result.covariances, result.basis)
    v_sq, v_asq, _ = _eigen_variances(mech)
    entries = (mech[:, 0, 0], mech[:, 0, 1], mech[:, 1, 1])
    return np.column_stack((result.times, *entries, v_sq, v_asq, v_sq / v_asq))


def vsq_trajectory(result: EvolutionResult) -> NDArray[np.float64]:
    """Smallest mechanical eigen-variance at every stored time."""
    return _eigen_variances(mechanical_block(result.covariances, result.basis))[0]


def _grid_minimum(x: Sequence[float], v: Sequence[float]) -> tuple[int, bool, tuple | None]:
    """Index of the smallest v on the increasing grid x, whether it is the first or last, and
    the vertex (x, v) of the parabola through it and the samples beside it (None on an edge).

    argmin takes the first minimum, so an interior one has v0 > v1 <= v2: the parabola is
    convex and its vertex lies in [(x0 + x1)/2, (x1 + x2)/2], for finite samples whose
    slopes neither overflow nor underflow.
    """
    i = int(np.argmin(v))
    if i in (0, len(v) - 1):
        return i, True, None
    x0, x1, x2 = x[i - 1 : i + 2]
    v0, v1, v2 = v[i - 1 : i + 2]
    d0 = (v1 - v0) / (x1 - x0)
    d1 = (v2 - v1) / (x2 - x1)
    curv = (d1 - d0) / (x2 - x0)
    # Vertex of the Newton-form parabola v0 + d0 (x - x0) + curv (x - x0)(x - x1).
    x_star = 0.5 * (x0 + x1) - d0 / (2.0 * curv)
    return i, False, (x_star, v0 + d0 * (x_star - x0) + curv * (x_star - x0) * (x_star - x1))


def optimize_over_time(result: EvolutionResult) -> SqueezingReport:
    """Best (smallest) v_sq over a stored trajectory.

    The trajectory is reduced once and reported at its smallest sample, which
    is refined by a parabola through the samples beside it when it is in the
    interior of the grid; v_asq and angle stay those of the sample.  A
    minimum on the first or last stored sample is reported with at_edge set.
    """
    v_sq, v_asq, angle = _eigen_variances(mechanical_block(result.covariances, result.basis))
    i, at_edge, vertex = _grid_minimum(result.times, v_sq)
    best = SqueezingReport(v_sq[i], v_asq[i], angle[i], result.times[i], at_edge)
    if vertex is not None and 0.0 < vertex[1] <= best.v_sq:
        return replace(best, v_sq=vertex[1], time=vertex[0])
    return best


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _grid_size(points: int) -> int:
    """A grid size, refused with ParameterError outside 1 to MAX_STORED, as stored samples are."""
    if not 1 <= points <= MAX_STORED:
        raise ParameterError(f"need 1 to {MAX_STORED} grid points, got {points}")
    return points


@dataclass(frozen=True)
class SweepAxis:
    """Named parameter grid; name must be a SystemParams field or q_m."""

    name: str
    values: tuple[float, ...]

    @staticmethod
    def linear(name: str, start: float, stop: float, points: int) -> "SweepAxis":
        return SweepAxis(
            name, tuple(float(x) for x in np.linspace(start, stop, _grid_size(points)))
        )

    @staticmethod
    def log(name: str, start: float, stop: float, points: int) -> "SweepAxis":
        if start <= 0.0 or stop <= 0.0:
            raise ParameterError("log axis needs positive endpoints")
        return SweepAxis(
            name, tuple(float(x) for x in np.geomspace(start, stop, _grid_size(points)))
        )


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: its report, or the exception its solve raised."""

    value: float
    report: SqueezingReport | None
    error: Exception | None = None

    @property
    def status(self) -> str:
        """The outcome: ok, unstable (no steady state) or failed (any other solver error)."""
        if self.error is None:
            return "ok"
        return "unstable" if isinstance(self.error, UnstableModelError) else "failed"


@dataclass(frozen=True)
class SweepTable:
    points: tuple[SweepPoint, ...]


def _steady_reports(
    drifts: NDArray[np.float64], noises: NDArray[np.float64], basis: QuadratureBasis
) -> list[SqueezingReport | Exception]:
    """Each stacked point's steady squeezing report, or the exception steady_state raises for it.

    The points are solved as one stack and reduced by one closed form.
    """
    stack = _steady_states(drifts, noises)
    reports = iter(_squeezing_reports(mechanical_block(stack.covariances, basis)))
    return [next(reports) if error is None else error for error in stack.errors]


def _transient_point(
    build, params: SystemParams, value: float, t_end: float, dt: float | None
) -> SweepPoint:
    model = build(params)
    try:
        result = evolve(model, initial_covariance(params, model.basis), t_end, dt)
        return SweepPoint(value, optimize_over_time(result))
    except (NumericalError, IntegrationError) as exc:
        return SweepPoint(value, None, exc)


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
        models = [build(params.with_value(axis.name, value)) for value in axis.values]
        outcomes = _steady_reports(*_constant_parts(models), models[0].basis)
        points = [
            SweepPoint(value, None, out)
            if isinstance(out, Exception)
            else SweepPoint(value, out)
            for value, out in zip(axis.values, outcomes)
        ]
    else:
        points = [
            _transient_point(build, params.with_value(axis.name, value), value, float(t_end), dt)
            for value in axis.values
        ]
    return SweepTable(tuple(points))
