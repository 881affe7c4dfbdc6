"""Explicit p-harmonic functions and p-harmonic measure in planar sectors."""

from .exponent import (
    DomainError,
    conjugate_exponent,
    dk_dnu,
    dk_dp,
    exponent_condition_residual,
    radial_exponent,
    radial_exponent_inf,
    radial_exponent_roots,
)
from .measure import (
    MeasureProblem,
    MeasureSolution,
    SlopeFit,
    comparability_constants,
    fit_slope,
    mc_harmonic_measure,
    solve_measure,
)
from .pde import (
    ResidualReport,
    inf_lap_residual,
    polar_plap_residual,
    separation_residual,
)
from .profile import (
    AngleMap,
    AngularProfile,
    PolarPoint,
    ProfileInvariantError,
    build_profile,
    eval_u,
    phi_of_theta,
    theta_of_phi,
    write_profile_csv,
)

__version__ = "1.0.0"

__all__ = [
    "AngleMap",
    "AngularProfile",
    "DomainError",
    "MeasureProblem",
    "MeasureSolution",
    "PolarPoint",
    "ProfileInvariantError",
    "ResidualReport",
    "SlopeFit",
    "build_profile",
    "comparability_constants",
    "conjugate_exponent",
    "dk_dnu",
    "dk_dp",
    "eval_u",
    "exponent_condition_residual",
    "fit_slope",
    "inf_lap_residual",
    "mc_harmonic_measure",
    "phi_of_theta",
    "polar_plap_residual",
    "radial_exponent",
    "radial_exponent_inf",
    "radial_exponent_roots",
    "separation_residual",
    "solve_measure",
    "theta_of_phi",
    "write_profile_csv",
]
