"""Exception taxonomy.

Every error belongs to one of two families.  InputError (a ValueError)
signals bad inputs, rejected before any real work starts; SolverError (a
RuntimeError) signals a numerical failure of an otherwise well-posed
computation.  The CLI maps the former to exit code 2 and the latter to exit
code 3.
"""


class InputError(ValueError):
    """Bad inputs: the family of the errors the CLI exits with code 2 on."""


class SolverError(RuntimeError):
    """Numerical failure: the family of the errors the CLI exits with code 3 on."""


class ConfigError(InputError):
    """Malformed run configuration or command-line arguments."""


class ParameterError(InputError):
    """Physical parameters out of range or inconsistent."""


class BasisError(InputError):
    """Quadrature basis mismatch or malformed basis."""


class CovarianceError(InputError):
    """Covariance matrix violating structural invariants."""


class BracketError(InputError):
    """Root bracket whose endpoints do not straddle a sign change."""


class UnstableModelError(SolverError):
    """Steady state requested for a model with a non-decaying drift."""


class IntegrationError(SolverError):
    """Fixed-step integration failed its step-halving accuracy check."""


class NumericalError(SolverError):
    """Linear algebra failure (singular system, non-finite result)."""
