"""Energies, topological charges and the limit laws built on top of them.

Quadrature energies are computed in field space: along a first-order profile
every density is a closed function of the field, so the coordinate integral
transforms exactly into an integral over the traversed field range with the
inverse-map Jacobian.  This keeps the quadrature away from the slope
singularities at compact edges; what remains is algebraic behaviour at the
vacuum end, which the tanh-sinh rule of `numerics` resolves to machine
precision.  Target-space averages use the same rule, and the charge of a
first-order profile is in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bps import BpsLaw, bps_law_for, kinetic_density
from .errors import DbisolError, NoSolitonError, SectorMismatchError
from .model import (ModelParams, PotentialSpec, Sector, _eta,
                    make_potential, target_measure, validate_params)
from .numerics import tanh_sinh
from .profiles import (GridSpec, SolitonProfile, _chart_prefactor, _slope_scale,
                       baby_old_radius, profile_field_at, skyrme_bps_radius,
                       solve_profile)

__all__ = [
    "EnergyReport", "compute_energy_report",
    "energy_quadrature", "charge_quadrature", "bps_energy_integral",
    "baby_energy_closed", "skyrme_standard_energy_closed", "skyrme_bps_energy_closed",
    "energy_per_charge_average", "power_family_energy_per_charge",
    "small_mu_sweep", "large_beta_sweep", "limiting_baby_slope",
    "MuSweepResult", "BetaSweepResult", "SKYRME_CHART_FACTOR",
]

# Jacobian constant of the 3-D radial chart: the cubic substitution that
# linearizes the first-order law compresses the volume element by this factor
# relative to the planar chart, so per-charge averages pick it up.  It is
# fixed by requiring the average route to reproduce the chart quadrature and
# both closed-form energies, and is independent of beta, mu and sigma.
SKYRME_CHART_FACTOR = 1.0 / 3.0


def _check_sector(profile: SolitonProfile, model: ModelParams, potential: PotentialSpec):
    if profile.sector is not model.sector:
        raise SectorMismatchError("profile and model sectors differ")
    anti = 1.0 if model.sector is Sector.BABY2D else math.pi
    if abs(potential.domain[1] - anti) > 1e-12:
        raise SectorMismatchError("potential domain does not match the model sector")


def bps_energy_integral(model: ModelParams, potential: PotentialSpec,
                        field_range: tuple[float, float] | None = None) -> float:
    """Chart energy of the first-order profile by tanh-sinh quadrature.

    Integrates the energy density against the inverse-map Jacobian over the
    traversed field range.  At the vacuum the integrand vanishes like a power
    of the field; where B0 underflows to zero it is taken as its limit 0.
    """
    validate_params(model)
    if model.mu == 0.0:
        return 0.0
    law = bps_law_for(model, potential)
    lo, hi = field_range if field_range is not None else (0.0, potential.domain[1])
    scale = _slope_scale(model.sector, model)

    def integrand(f):
        v = np.asarray(potential.evaluate(f), dtype=float)
        b0 = np.asarray(law.of_potential(v), dtype=float)
        dens = kinetic_density(model, b0) + model.mu ** 2 * v
        jac = 1.0 if model.sector is Sector.BABY2D else np.sin(f) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(b0 > 0.0, dens * jac / (scale * b0), 0.0)

    return _chart_prefactor(model) * tanh_sinh(integrand, lo, hi) * model.energy_scale


def energy_quadrature(profile: SolitonProfile, model: ModelParams,
                      potential: PotentialSpec) -> float:
    """Total chart energy of a profile over the field range it traverses."""
    _check_sector(profile, model, potential)
    return bps_energy_integral(model, potential, profile.field_range())


def charge_quadrature(profile: SolitonProfile, model: ModelParams | None = None) -> float:
    """Integrated topological charge; equals the integer charge for full profiles.

    On the first-order law the charge density integrates in closed form over
    the traversed field range: n (hi - lo) planar, n (2/pi) (eta(hi) - eta(lo))
    in 3-D, with eta the incomplete volume.
    """
    params = model if model is not None else profile.params
    if model is not None and profile.sector is not model.sector:
        raise SectorMismatchError("profile and model sectors differ")
    n = params.charge
    lo, hi = profile.field_range()
    if profile.sector is Sector.BABY2D:
        return n * (hi - lo)
    return n * (2.0 / math.pi) * float(_eta(hi) - _eta(lo))


# ---------------------------------------------------------------------------
# closed forms

def baby_energy_closed(params: ModelParams) -> float:
    """Energy of the planar compacton of the linear potential."""
    validate_params(params)
    if params.mu == 0.0:
        raise DbisolError("closed form undefined at mu = 0 (no soliton)")
    v = 8.0 * math.pi ** 2 * params.mu ** 4 / params.beta ** 2
    xt = baby_old_radius(params) / abs(params.charge)
    sv = math.sqrt(v)
    val = xt * math.sqrt(1.0 + v * xt * xt) - math.asinh(sv * xt) / sv
    return abs(params.charge) * math.pi * params.beta ** 2 * val * params.energy_scale


def skyrme_standard_energy_closed(params: ModelParams) -> float:
    """Chart energy of the standard-potential compacton.

    E = sqrt(2) |n| beta / (3 pi sigma) * [ (1-s)^2 sqrt(s)
        + (1-s)(1+s)^2 arctan(1/sqrt(s)) + (8/3) s^(3/2) ],  s = sigma.

    Obtained by integrating the on-law energy density against the implicit
    profile; it agrees with direct quadrature and with the per-charge target
    average to machine precision for all sigma.
    """
    validate_params(params)
    if params.mu == 0.0:
        raise DbisolError("closed form undefined at mu = 0 (no soliton)")
    s = params.sigma
    rs = math.sqrt(s)
    bracket = (1.0 - s) ** 2 * rs + (1.0 - s) * (1.0 + s) ** 2 * math.atan(1.0 / rs) \
        + (8.0 / 3.0) * s * rs
    return math.sqrt(2.0) * abs(params.charge) * params.beta / (3.0 * math.pi * s) \
        * bracket * params.energy_scale


def skyrme_bps_energy_closed(params: ModelParams) -> float:
    """Chart energy of the cubic-vacuum-potential compacton."""
    validate_params(params)
    if params.mu == 0.0:
        raise DbisolError("closed form undefined at mu = 0 (no soliton)")
    s = params.sigma
    z0 = skyrme_bps_radius(s)
    val = z0 * math.sqrt(1.0 + (z0 / s) ** 2) - s * math.asinh(z0 / s)
    return math.sqrt(2.0) * params.beta / (6.0 * math.pi) * abs(params.charge) \
        * val * params.energy_scale


# ---------------------------------------------------------------------------
# target-space averages

def energy_per_charge_average(model: ModelParams, potential: PotentialSpec) -> float:
    """Energy per unit charge from the unit-mass target average.

    (mu / sqrt(2)) <sqrt(mu^2 V^2 / beta^2 + 2 V)> times the chart Jacobian
    factor of the sector; equals energy_quadrature / |n| on solutions of the
    first-order law.
    """
    validate_params(model)
    if not model.kinetic_law.is_dbi:
        raise DbisolError("the square-root average applies to the DBI law; use "
                          "power_family_energy_per_charge instead")
    if model.mu == 0.0:
        warnings.warn("mu = 0 admits no soliton; returning zero energy", stacklevel=2)
        return 0.0

    def root(s):
        v = np.asarray(potential.evaluate(s), dtype=float)
        return np.sqrt(model.mu ** 2 * v * v / model.beta ** 2 + 2.0 * v)

    chart = 1.0 if model.sector is Sector.BABY2D else SKYRME_CHART_FACTOR
    return model.mu / math.sqrt(2.0) * chart * target_measure(model.sector).average(root) \
        * model.energy_scale


def power_family_energy_per_charge(model: ModelParams, potential: PotentialSpec) -> float:
    """Per-charge energy of the pure-power law from the target average."""
    validate_params(model)
    law = model.kinetic_law
    if law.is_dbi or law.alpha_k is None or law.alpha_k <= 0.5:
        raise DbisolError("power_family_energy_per_charge requires a power law with "
                          "exponent above 1/2")
    a = law.alpha_k
    if model.mu == 0.0:
        return 0.0
    expo = 1.0 - 1.0 / (2.0 * a)
    avg = target_measure(model.sector).average(
        lambda s: np.asarray(potential.evaluate(s), dtype=float) ** expo)
    return 2.0 * a * ((2.0 * a - 1.0) / model.mu ** 2) ** (1.0 / (2.0 * a) - 1.0) \
        * avg * model.energy_scale


# ---------------------------------------------------------------------------
# limit laws

def _check_planar(model: ModelParams) -> None:
    if model.sector is not Sector.BABY2D:
        raise SectorMismatchError(
            f"sweeps run in the planar sector only, not {model.sector.value}")


@dataclass(frozen=True)
class MuSweepResult:
    mus: tuple[float, ...]
    energies: tuple[float, ...]
    slope: float


def small_mu_sweep(model: ModelParams, mus: Sequence[float],
                   potential: PotentialSpec | None = None) -> MuSweepResult:
    """Least-squares slope through the origin of E(mu) for the linear potential."""
    _check_planar(model)
    if len(mus) < 3:
        raise DbisolError("need at least 3 mu values for a slope estimate")
    if 0.0 in mus:
        raise NoSolitonError("mu = 0 admits no soliton")
    pot = potential if potential is not None else make_potential("old-baby-power", 1.0)
    energies = [bps_energy_integral(replace(model, mu=float(mu)), pot) for mu in mus]
    mu_arr = np.asarray(mus, dtype=float)
    e_arr = np.asarray(energies)
    slope = float(np.dot(e_arr, mu_arr) / np.dot(mu_arr, mu_arr))
    return MuSweepResult(tuple(map(float, mus)), tuple(map(float, energies)), slope)


def limiting_baby_slope(h, potential: PotentialSpec, params: ModelParams):
    """Slope of the large-beta limiting law in the planar chart.

    dh/dx -> -(2 sqrt2 pi / |n|) mu sqrt(2 V); the relative deviation of the
    full square-root law from it decays like beta^-2.
    """
    v = np.asarray(potential.evaluate(h), dtype=float)
    out = -(2.0 * math.sqrt(2.0) * math.pi / abs(params.charge)) * params.mu \
        * np.sqrt(2.0 * v)
    return out if out.ndim else float(out)


def _limit_law(model: ModelParams, potential: PotentialSpec) -> BpsLaw:
    return BpsLaw(lambda v: 2.0 * model.mu * np.sqrt(np.asarray(v, dtype=float)), potential,
                  -1, "beta-infinity limit")


@dataclass(frozen=True)
class BetaSweepResult:
    betas: tuple[float, ...]
    energies: tuple[float, ...]
    distances: tuple[float, ...]
    exponent: float


def large_beta_sweep(model: ModelParams, betas: Sequence[float],
                     potential: PotentialSpec | None = None) -> BetaSweepResult:
    """Sup-norm distance of profiles to the large-beta limit, with decay fit."""
    _check_planar(model)
    if len(set(betas)) < 3:
        raise DbisolError("need at least 3 distinct beta values for an exponent fit")
    pot = potential if potential is not None else make_potential("old-baby-power", 1.0)
    energies = []
    distances = []
    for beta in betas:
        p = replace(model, beta=float(beta))
        prof = solve_profile(p, pot, GridSpec(count=800))
        energies.append(bps_energy_integral(p, pot))
        limit_field = profile_field_at(p, pot, prof.coordinates, law=_limit_law(p, pot))
        distances.append(float(np.max(np.abs(prof.field - limit_field))))
    fit = np.polyfit(np.log(np.asarray(betas, dtype=float)), np.log(np.asarray(distances)), 1)
    return BetaSweepResult(tuple(map(float, betas)), tuple(map(float, energies)),
                           tuple(map(float, distances)), float(fit[0]))


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class EnergyReport:
    energy_quadrature: float
    energy_closed_form: float | None
    energy_per_charge_avg: float | None
    charge: float
    rel_discrepancy_closed: float | None
    rel_discrepancy_avg: float | None

    def to_json_dict(self) -> dict:
        return {
            "energy_quadrature": self.energy_quadrature,
            "energy_closed_form": self.energy_closed_form,
            "energy_per_charge_avg": self.energy_per_charge_avg,
            "charge": self.charge,
            "rel_discrepancy_closed": self.rel_discrepancy_closed,
            "rel_discrepancy_avg": self.rel_discrepancy_avg,
        }


def _closed_form_for(model: ModelParams, potential: PotentialSpec) -> float | None:
    if not model.kinetic_law.is_dbi:
        return None
    if potential.tag == "old-baby-power" and abs(potential.vacuum_exponent - 1.0) < 1e-12 \
            and model.sector is Sector.BABY2D:
        return baby_energy_closed(model)
    if potential.tag == "skyrme-standard" and model.sector is Sector.SKYRME3D:
        return skyrme_standard_energy_closed(model)
    if potential.tag == "bps-potential" and model.sector is Sector.SKYRME3D:
        return skyrme_bps_energy_closed(model)
    return None


def compute_energy_report(profile: SolitonProfile, model: ModelParams,
                          potential: PotentialSpec) -> EnergyReport:
    """Quadrature energy with closed-form and average-route cross checks."""
    e_quad = energy_quadrature(profile, model, potential)
    charge = charge_quadrature(profile, model)
    closed = _closed_form_for(model, potential)
    if model.kinetic_law.is_dbi:
        avg = energy_per_charge_average(model, potential)
    else:
        avg = power_family_energy_per_charge(model, potential)
    n = abs(model.charge)
    rel_closed = abs(e_quad - closed) / abs(closed) if closed else None
    per = e_quad / n
    rel_avg = abs(avg - per) / abs(per) if per else None
    return EnergyReport(e_quad, closed, avg, charge, rel_closed, rel_avg)
