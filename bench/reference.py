"""A fixed reference computation that gauges the machine's current speed.

The benchmark shares a small host whose speed drifts: a pure-Python loop
runs between 1.0x and 1.9x its best time, in phases from under a second to
minutes long.  Wall times taken in a slow phase and in a fast one differ
more than any bound a benchmark can hold.  So the runner times this unit
before the first pass and after every pass, and likewise around the
set-ups, and reports the pass time and the set-up time at reference speed:

    trimmed_mean(walls) * REFERENCE_S / trimmed_mean(units)

A mean grows linearly with the share of time the host spent in slow phases,
for the passes and the units alike, so the ratio cancels that share; the
medians of long passes and of short units do not move together like that.
Trimming the fastest and the slowest tenth drops single stalls.

``REFERENCE_S`` is a constant, so a program that gets faster reads faster
by the same factor.  The unit does the two kinds of work the workloads do,
written independently of levisqueeze so that no change to the program can
move it: steady states of 4x4 Lyapunov equations at many small parameter
points (dataclass parameters, a stability check, a Kronecker solve, a CSV
row each), and an Euler-Maruyama update of a 10 000 x 4 ensemble.  Of the
units we tried, this mix followed the slow phases of the passes most
closely; a plain interpreter loop and an RK4 loop over 4x4 products slowed
down less than the passes did.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

import numpy as np

#: A typical time of one unit on the 2-core Xeon the bounds were set on.
#: Scaled times are seconds on a machine where the unit takes this long.
REFERENCE_S = 0.3

_EYE = np.eye(4)
_DIFFUSION = np.diag([0.0, 0.1, 0.0, 0.3])


@dataclasses.dataclass(frozen=True)
class _Point:
    omega: float
    kappa: float
    coupling: float


def _steady_points(n: int) -> list[str]:
    rows = []
    for k in range(n):
        point = dataclasses.replace(_Point(1.0, 0.2, 0.0), coupling=0.16 * (k % 40))
        g = point.coupling
        drift = np.array([[0.0, point.omega, 0.0, 0.0],
                          [-point.omega, -point.kappa, g, 0.0],
                          [0.0, 0.0, 0.0, 1.0],
                          [g, 0.0, -25.0, -0.2]])
        try:
            if np.linalg.eigvals(drift).real.max() >= 0.0:
                raise ArithmeticError(point)
        except ArithmeticError:
            continue
        lyap = np.kron(_EYE, drift) + np.kron(drift, _EYE)
        cov = np.linalg.solve(lyap, -_DIFFUSION.ravel()).reshape(4, 4)
        cov = 0.5 * (cov + cov.T)
        low = np.linalg.eigvalsh(cov[:2, :2])[0]
        rows.append(",".join(repr(float(x)) for x in
                             (g, low, cov[0, 0], math.atan2(cov[0, 1], cov[0, 0]))))
    return rows


def _ensemble(steps: int, n_traj: int = 10_000) -> float:
    drift = np.array([[0.0, 1.0, 0.0, 0.0],
                      [-1.0, -0.1, 0.2, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.2, 0.0, -25.0, -0.2]])
    rng = np.random.default_rng(0)
    x = np.zeros((n_traj, 4))
    for _ in range(steps):
        x = x + 1e-3 * (x @ drift.T) + 0.03 * rng.standard_normal(x.shape)
    return float(x.var())


def unit_seconds() -> float:
    """Wall time of one reference unit (typically about REFERENCE_S)."""
    start = time.perf_counter()
    _steady_points(1600)
    _ensemble(100)
    return time.perf_counter() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth (at least one each from three values on)."""
    ordered = sorted(values)
    cut = max(1, round(0.1 * len(ordered))) if len(ordered) > 2 else 0
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def at_reference_speed(walls: list[float], units: list[float]) -> float:
    """Typical wall time of walls, scaled by the units timed in the same run."""
    return trimmed_mean(walls) * REFERENCE_S / trimmed_mean(units)
