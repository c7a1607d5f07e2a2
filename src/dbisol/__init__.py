"""Numerical workbench for solitons of square-root (DBI) topological models.

Solves the first-order profiles of the planar and three-dimensional sectors,
evaluates their energies and charges against closed forms, and certifies the
strain-eigenvalue energy bounds of the square-root model.

`import dbisol` loads only the exception types: every other public name is
imported from its module on first use (PEP 562), so a program that needs
the bounds never compiles the solver, and the reverse.
"""

import importlib

from .errors import DbisolError, NoSolitonError, OptimizerError, SectorMismatchError

__version__ = "0.1.0"

_EXPORTS = {
    "model": ("Chart", "KineticLaw", "ModelParams", "PotentialSpec", "Sector",
              "fit_vacuum_exponent", "make_potential"),
    "bps": ("EomResidualReport", "eom_residual"),
    "profiles": ("GridSpec", "LocalizationClass", "SolitonProfile", "angular_profile",
                 "baby_old_exact", "baby_old_radius", "classify_localization",
                 "endpoint_asymptotics", "profile_field_at", "profile_on_grid",
                 "skyrme_bps_exact", "skyrme_bps_radius", "skyrme_standard_exact",
                 "skyrme_standard_implicit_lhs", "skyrme_standard_radius", "solve_profile",
                 "tail_fit", "write_profile_csv"),
    "observables": ("BetaSweepResult", "EnergyReport", "MuSweepResult", "baby_energy_closed",
                    "bps_energy_integral", "charge_quadrature", "compute_energy_report",
                    "energy_quadrature", "energy_per_charge_average", "large_beta_sweep",
                    "power_family_energy_per_charge", "skyrme_bps_energy_closed",
                    "skyrme_standard_energy_closed", "small_mu_sweep"),
    "bounds": ("PAVLOVSKII_REFERENCE", "BoundCertificate", "RayProof", "bound_constant",
               "bound_energy", "certify", "compare_reference", "optimize_bound",
               "pointwise_slack", "prove_ray", "sharpness", "taylor_coefficients",
               "verify_pointwise", "weights_for_alpha"),
}
# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["DbisolError", "NoSolitonError", "OptimizerError", "SectorMismatchError",
           *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
