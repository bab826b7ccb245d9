"""Gaussian-state toolkit for squeezing a cavity-levitated nanoparticle.

The package models the linearized optomechanics of a dielectric particle
trapped at an intensity minimum inside a driven cavity, where coherent
scattering couples the particle motion to the cavity field.  Second moments
evolve under a Lyapunov flow; the modules split as

``gaussian``
    quadrature bases, covariance checks, the uncertainty floor, model contracts.
``models``
    the concrete physical models: full two-mode dynamics, adiabatically
    eliminated single-mode reductions, and the resonant dissipative scheme.
``dynamics``
    time evolution, steady states, stability, instability thresholds.
``metrics``
    squeezing figures of merit and parameter sweeps.
``montecarlo``
    stochastic trajectory cross-checks of the deterministic moments.
``figures``
    canned parameter studies reproducing the headline phenomenology.
"""

from .dynamics import (
    EvolutionResult,
    PeriodicSteadyState,
    evolve,
    find_threshold,
    periodic_steady_state,
    stability,
    steady_state,
)
from .errors import (
    BasisError,
    BracketError,
    ConfigError,
    CovarianceError,
    IntegrationError,
    NumericalError,
    ParameterError,
    UnstableModelError,
)
from .gaussian import (
    CAVITY_MECH,
    MECH,
    CovarianceMatrix,
    LinearGaussianModel,
    QuadratureBasis,
    drift_from_quadratic,
    lyapunov_residual,
    symplectic_form,
    uncertainty_floor,
)
from .metrics import (
    SqueezingReport,
    SweepAxis,
    mechanical_block,
    mechanical_trajectory,
    optimize_over_time,
    squeezing_metrics,
    sweep,
    vsq_trajectory,
)
from .models import (
    SystemParams,
    bogoliubov_coefficients,
    bogoliubov_ground_variance,
    build_bogoliubov_dissipative,
    build_eliminated_detuned,
    build_eliminated_modulated,
    build_full_cs,
    build_full_modulated,
    builder_for,
    effective_detuned,
    effective_modulated,
    initial_covariance,
    threshold_coupling,
)
from .montecarlo import EnsembleSpec, compare, simulate_ensemble

__version__ = "0.1.0"

__all__ = [
    "BasisError",
    "BracketError",
    "CAVITY_MECH",
    "ConfigError",
    "CovarianceError",
    "CovarianceMatrix",
    "EnsembleSpec",
    "EvolutionResult",
    "IntegrationError",
    "LinearGaussianModel",
    "MECH",
    "NumericalError",
    "ParameterError",
    "PeriodicSteadyState",
    "QuadratureBasis",
    "SqueezingReport",
    "SweepAxis",
    "SystemParams",
    "UnstableModelError",
    "bogoliubov_coefficients",
    "bogoliubov_ground_variance",
    "build_bogoliubov_dissipative",
    "build_eliminated_detuned",
    "build_eliminated_modulated",
    "build_full_cs",
    "build_full_modulated",
    "builder_for",
    "compare",
    "drift_from_quadratic",
    "effective_detuned",
    "effective_modulated",
    "evolve",
    "find_threshold",
    "initial_covariance",
    "lyapunov_residual",
    "mechanical_block",
    "mechanical_trajectory",
    "optimize_over_time",
    "periodic_steady_state",
    "simulate_ensemble",
    "squeezing_metrics",
    "stability",
    "steady_state",
    "sweep",
    "symplectic_form",
    "threshold_coupling",
    "uncertainty_floor",
    "vsq_trajectory",
]
