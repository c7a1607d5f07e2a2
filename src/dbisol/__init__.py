"""Numerical workbench for solitons of square-root (DBI) topological models.

Solves the first-order profiles of the planar and three-dimensional sectors,
evaluates their energies and charges against closed forms, and certifies the
strain-eigenvalue energy bounds of the square-root model.
"""

from .errors import DbisolError, NoSolitonError, OptimizerError, SectorMismatchError
from .model import (Chart, KineticLaw, ModelParams, PotentialSpec, Sector,
                    fit_vacuum_exponent, make_potential)
from .bps import EomResidualReport, eom_residual
from .profiles import (GridSpec, LocalizationClass, SolitonProfile, angular_profile,
                       baby_old_exact, baby_old_radius, classify_localization,
                       endpoint_asymptotics, profile_field_at,
                       profile_on_grid, skyrme_bps_exact, skyrme_bps_radius,
                       skyrme_standard_exact, skyrme_standard_implicit_lhs,
                       skyrme_standard_radius, solve_profile, tail_fit,
                       write_profile_csv)
from .observables import (BetaSweepResult, EnergyReport, MuSweepResult,
                          baby_energy_closed, bps_energy_integral,
                          charge_quadrature, compute_energy_report, energy_quadrature,
                          energy_per_charge_average, large_beta_sweep,
                          power_family_energy_per_charge, skyrme_bps_energy_closed,
                          skyrme_standard_energy_closed, small_mu_sweep)
from .bounds import (PAVLOVSKII_REFERENCE, BoundCertificate, RayProof, bound_constant,
                     bound_energy, certify, compare_reference, optimize_bound, pointwise_slack,
                     prove_ray, sharpness, taylor_coefficients, verify_pointwise,
                     weights_for_alpha)

__version__ = "0.1.0"
