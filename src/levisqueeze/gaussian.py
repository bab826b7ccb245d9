"""Linear-Gaussian plumbing shared by every model in the package.

Conventions
-----------
Quadratures are ordered in canonical pairs, one (position-like,
momentum-like) pair per bosonic mode.  Covariances are kept in the
"vacuum = identity" normalization

    V_ij = <r_i r_j + r_j r_i> - 2 <r_i><r_j>,

so a pure vacuum state has V = I and a thermal state with occupation n has
V = (2n + 1) I.  With [x, p] = i the commutators read [r_i, r_j] = i Omega_ij
and physical states satisfy V + i Omega >= 0.

A model is the pair (A, N) of drift and diffusion generating the Lyapunov
flow dV/dt = A V + V A^T + N; both may depend on time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import BasisError, CovarianceError, ParameterError

# Tolerances used across the package: symmetry is relative to the largest
# entry, physicality is an absolute floor on the eigenvalues of V + i Omega.
SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9


def _frozen(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Copy an array and make it read-only."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _symmetrized(covs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Covariances (..., d, d) made symmetric, halved first: only a diverged one is non-finite."""
    return 0.5 * covs + 0.5 * np.swapaxes(covs, -1, -2)


def _checked_diagonals(covs: NDArray[np.float64]) -> None:
    """Raise CovarianceError for the first covariance of a (..., d, d) stack with a diagonal
    entry not above 0, NaN included.
    """
    diags = np.diagonal(covs, axis1=-2, axis2=-1).reshape(-1, covs.shape[-1])
    bad = np.any(~(diags > 0.0), axis=1)
    if bad.any():
        raise CovarianceError(f"non-positive diagonal entries {diags[bad.argmax()]}")


@dataclass(frozen=True)
class QuadratureBasis:
    """Ordered quadrature labels, two per mode."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0 or len(self.labels) % 2 != 0:
            raise BasisError(f"need an even, nonzero number of labels, got {self.labels!r}")
        if len(set(self.labels)) != len(self.labels):
            raise BasisError(f"duplicate quadrature labels in {self.labels!r}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BasisError(f"label {label!r} not in basis {self.labels!r}") from None


#: Cavity quadratures followed by the mechanical pair.
CAVITY_MECH = QuadratureBasis(("X", "Y", "x", "p"))
#: Mechanical pair alone, for models with the cavity integrated out.
MECH = QuadratureBasis(("x", "p"))


@cache
def _omega(dim: int) -> NDArray[np.float64]:
    """Symplectic form for dim quadratures, built once per dimension and read-only."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return _frozen(np.kron(np.eye(dim // 2), block))


def symplectic_form(basis: QuadratureBasis) -> NDArray[np.float64]:
    """The symplectic form Omega of the given basis, read-only."""
    return _omega(basis.dim)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric covariance matrix tied to a quadrature basis.

    The constructor enforces the structural invariants (symmetry within
    SYMMETRY_TOL relative to the largest entry, strictly positive diagonal)
    and stores a read-only symmetrized copy.
    """

    basis: QuadratureBasis
    entries: NDArray[np.float64]

    def __post_init__(self) -> None:
        v = np.asarray(self.entries, dtype=float)
        if v.shape != (self.basis.dim, self.basis.dim):
            raise CovarianceError(
                f"shape {v.shape} does not match basis dimension {self.basis.dim}"
            )
        if not np.all(np.isfinite(v)):
            raise CovarianceError("covariance has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(v))))
        asym = float(np.max(np.abs(v - v.T)))
        if asym > SYMMETRY_TOL * scale:
            raise CovarianceError(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e} * {scale:.3e}")
        _checked_diagonals(v)
        object.__setattr__(self, "entries", _frozen(_symmetrized(v)))


def _entries_in(
    basis: QuadratureBasis, v: CovarianceMatrix | NDArray[np.float64]
) -> NDArray[np.float64]:
    """Validated entries of an initial covariance for a model in the given basis.

    An array is validated as a CovarianceMatrix in that basis; a
    CovarianceMatrix in another basis raises BasisError.
    """
    if not isinstance(v, CovarianceMatrix):
        v = CovarianceMatrix(basis, np.asarray(v, dtype=float))
    elif v.basis.labels != basis.labels:
        raise BasisError(
            f"initial covariance basis {v.basis.labels} does not match "
            f"model basis {basis.labels}"
        )
    return v.entries


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """Drift/diffusion pair generating dV/dt = A V + V A^T + N.

    drift_at / diffusion_at return dense arrays for any time: a float gives
    one (d, d) matrix, an array of times of shape s a stack of shape
    s + (d, d), so a solver samples a whole grid of times in one call.  Models
    built from time-independent physics set is_time_independent so solvers
    can take the cheap path.  fastest_rate is the largest rate appearing in
    the generator and fixes the default integration step; a model built with
    0 needs an explicit dt.
    """

    basis: QuadratureBasis
    drift_at: Callable[[float | NDArray[np.float64]], NDArray[np.float64]]
    diffusion_at: Callable[[float | NDArray[np.float64]], NDArray[np.float64]]
    is_time_independent: bool
    fastest_rate: float

    @staticmethod
    def constant(
        basis: QuadratureBasis,
        drift: NDArray[np.float64],
        diffusion: NDArray[np.float64],
        fastest_rate: float,
    ) -> "LinearGaussianModel":
        a = _frozen(drift)
        n = _frozen(diffusion)
        if a.shape != (basis.dim, basis.dim) or n.shape != (basis.dim, basis.dim):
            raise BasisError(f"drift/diffusion shapes {a.shape}, {n.shape} do not fit {basis!r}")
        # Read-only views of the frozen arrays, one per requested time.
        return LinearGaussianModel(
            basis=basis,
            drift_at=lambda t: np.broadcast_to(a, np.shape(t) + a.shape),
            diffusion_at=lambda t: np.broadcast_to(n, np.shape(t) + n.shape),
            is_time_independent=True,
            fastest_rate=fastest_rate,
        )


def drift_from_quadratic(
    h_mat: NDArray[np.float64], decay: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Drift matrix A = Omega H - diag(decay) for H = (1/2) r^T H r.

    Batched over the leading axes of a (..., d, d) stack of forms; each form
    is checked on its own.

    Parameters
    ----------
    h_mat:
        Symmetric quadratic form of the Hamiltonian in the quadrature basis.
    decay:
        Per-quadrature amplitude decay rates, all >= 0, shape (d,) or any
        (..., d) that broadcasts against the stack.
    """
    h = np.asarray(h_mat, dtype=float)
    d = np.asarray(decay, dtype=float)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or h.shape[-1] % 2 != 0:
        raise BasisError(f"quadratic form must be square with even dimension, got {h.shape}")
    dim = h.shape[-1]
    flat = h.shape[:-2] + (dim * dim,)
    scale = np.fmax(1.0, np.abs(h).reshape(flat).max(axis=-1))
    asym = np.abs(h - h.swapaxes(-1, -2)).reshape(flat).max(axis=-1)
    if (asym > SYMMETRY_TOL * scale).any():
        raise CovarianceError("quadratic form is not symmetric")
    # The decay's leading axes must broadcast against the stack's.
    if d.shape[-1:] != (dim,) or d.ndim >= h.ndim or any(
        n not in (1, m) for n, m in zip(d.shape[-2::-1], h.shape[-3::-1])
    ):
        raise BasisError(f"decay vector shape {d.shape} does not match dimension {dim}")
    if (d < 0.0).any():
        raise ParameterError(f"negative decay rates {d}")
    a = _omega(dim) @ h
    # The diagonal of each (fresh, contiguous) drift is every (dim + 1)-th entry.
    a.reshape(flat)[..., :: dim + 1] -= d
    return a


def lyapunov_residual(
    a: NDArray[np.float64], v: NDArray[np.float64], n: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Residual A V + V A^T + N of the algebraic Lyapunov equation.

    Batched over the leading axes of stacked (..., d, d) arguments.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    n = np.asarray(n, dtype=float)
    return a @ v + v @ np.swapaxes(a, -1, -2) + n


def uncertainty_floor(covs: NDArray[np.float64], basis: QuadratureBasis) -> NDArray[np.float64]:
    """Smallest eigenvalue of V + i Omega for every covariance of a (..., d, d) stack.

    One eigvalsh call serves the stack.  Physical states have a floor of at least
    -PHYSICALITY_TOL, vacuum and pure states 0.  A stack that does not fit the basis
    raises BasisError.
    """
    if np.shape(covs)[-2:] != (basis.dim, basis.dim):
        raise BasisError(f"covariances of shape {np.shape(covs)} do not fit {basis.labels}")
    return np.linalg.eigvalsh(np.add(covs, 1j * _omega(basis.dim)))[..., 0]
