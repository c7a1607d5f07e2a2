"""Energies, topological charges and the limit laws built on top of them.

Quadrature energies are computed in field space: along a first-order profile
every density is a closed function of the field, so the coordinate integral
transforms exactly into an integral over the traversed field range with the
inverse-map Jacobian.  This keeps the quadrature away from the slope
singularities at compact edges; what remains is algebraic behaviour at the
vacuum end, which the tanh-sinh rule of `numerics` resolves to machine
precision.  The target-space average, one route for both kinetic laws,
uses the same rule on P = K'(B0) from the law, and the charge of a
first-order profile is in closed form.

Each works on the unit-free problem, a function of sigma = beta^2 / mu^2
alone under the DBI law, and returns physical energies in the chart's
energy unit.  The large-beta sweep measures each profile's distance to the
model's profile at sigma = inf, the BPS Skyrme model the DBI model tends to.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DbisolError, NoSolitonError, SectorMismatchError
from .model import ModelParams, PotentialSpec
from .numerics import tanh_sinh
from .profiles import GridSpec, SolitonProfile, _in_range, _InverseMap, solve_profile

__all__ = [
    "EnergyReport", "compute_energy_report",
    "energy_quadrature", "charge_quadrature", "bps_energy_integral",
    "baby_energy_closed", "skyrme_standard_energy_closed", "skyrme_bps_energy_closed",
    "energy_per_charge_average", "power_family_energy_per_charge",
    "small_mu_sweep", "large_beta_sweep", "MuSweepResult", "BetaSweepResult",
]


def _check_sector(profile: SolitonProfile, model: ModelParams) -> None:
    if profile.sector is not model.sector:
        raise SectorMismatchError("profile and model sectors differ")


def bps_energy_integral(model: ModelParams, potential: PotentialSpec,
                        field_range: tuple[float, float] | None = None) -> float:
    """Chart energy of the first-order profile by tanh-sinh quadrature.

    Integrates (k + V) J / b, the unit-free (K + mu^2 V) / mu^2 against the
    inverse-map Jacobian, over the traversed field range, in the chart's energy
    unit.  At the vacuum the integrand vanishes like a power of the field;
    where b underflows to zero it is taken as its limit 0.
    """
    chart = model.sector.chart_for(potential)
    law, sigma = model.kinetic_law, model.sigma
    lo, hi = field_range if field_range is not None else (0.0, chart.anti_vacuum)

    def integrand(f):
        v = np.asarray(potential.evaluate(f), dtype=float)
        b = law.density(v, sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(b > 0.0, (law.kinetic(b, sigma) + v) * chart.jacobian(f) / b, 0.0)

    return chart.energy_unit(model) * tanh_sinh(integrand, lo, hi)


def energy_quadrature(profile: SolitonProfile, model: ModelParams,
                      potential: PotentialSpec) -> float:
    """Total chart energy of a profile over the field range it traverses."""
    _check_sector(profile, model)
    return bps_energy_integral(model, potential, profile.field_range())


def charge_quadrature(profile: SolitonProfile, model: ModelParams | None = None) -> float:
    """Integrated topological charge; equals the integer charge for full profiles.

    On the first-order law the charge density integrates in closed form over
    the traversed field range: n times the unit weight times the chart volume
    between the ends, n (hi - lo) planar and n (2/pi) (eta(hi) - eta(lo)) in
    3-D, with eta the incomplete volume.
    """
    params = model if model is not None else profile.params
    _check_sector(profile, params)
    chart = profile.sector.chart
    lo, hi = profile.field_range()
    return params.charge * chart.unit_weight * float(chart.volume(hi) - chart.volume(lo))


# ---------------------------------------------------------------------------
# closed forms

# Taylor coefficients of sqrt(1 + w^2) - asinh(w)/w in w^2, highest first:
# (-1)^(k+1) binom(2k, k) 4^-k 4k / (4k^2 - 1), i.e. 2/3, -1/5, 3/28, ...
_BABY_SERIES = tuple((-1) ** (k + 1) * math.comb(2 * k, k) / 4 ** k * 4 * k / (4 * k * k - 1)
                     for k in range(10, 0, -1))

# The standard bracket at large s is sqrt(s) (32/15 + sum_m d_m s^-(m+1)), with
# d_m = c_m + c_(m+1) - c_(m+2) - c_(m+3) and c_j = (-1)^j / (2j + 1) the
# coefficients of arctan; d_9 .. d_0, highest first (d_0 = 64/105, d_1 = -32/315)
_STANDARD_SERIES = tuple((-1) ** m * 2.0 * (1.0 / ((2 * m + 1) * (2 * m + 3))
                                            - 1.0 / ((2 * m + 5) * (2 * m + 7)))
                         for m in range(9, -1, -1))


def baby_energy_closed(params: ModelParams) -> float:
    """Energy of the DBI compacton whose potential is the chart volume V = vol(f):
    planar V = h, and 3-D V = eta, so this is `skyrme_bps_energy_closed` too.

    In the chart's energy unit it is int_0^T p dV, T = vol(anti_vacuum): with
    z0 = sqrt(T (T + 2 s)), s = sigma, (z0 hypot(s, z0) - s^2 asinh(z0 / s)) / 2
    below s = 1, and that over sqrt(2 s) above.  With q = T / (2 s), the bracket
    then cancels down to (2/3) w^2 (T (1 + q))^(3/2), w^2 = 4 q (1 + q); below
    w = 0.2 its series in w^2 is used instead (10 terms, within 4e-16), which
    holds s = inf.
    """
    if params.mu == 0.0:
        raise DbisolError("closed form undefined at mu = 0 (no soliton)")
    chart = params.sector.chart
    top = 1.0 / chart.unit_weight
    s = max(params.sigma, math.ulp(0.0))    # an underflowed sigma: s^2 log(s) = 0
    q = top / (2.0 * s)
    w2 = 4.0 * q * (1.0 + q)
    if w2 < 0.04:
        bracket = 0.0
        for c in _BABY_SERIES:
            bracket = bracket * w2 + c
        return chart.energy_unit(params) * (top * (1.0 + q)) ** 1.5 * bracket
    z0 = math.sqrt(top * (top + 2.0 * s))
    h = math.hypot(s, z0)
    val = 0.5 * (z0 * h - s * s * (math.log(z0 + h) - math.log(s)))
    return chart.energy_unit(params) * (val / math.sqrt(2.0 * s) if s >= 1.0 else val)


def skyrme_standard_energy_closed(params: ModelParams) -> float:
    """Chart energy of the standard-potential compacton.

    E = sqrt(2) |n| beta / (3 pi sigma) * [ (1-s)^2 sqrt(s)
        + (1-s)(1+s)^2 arctan(1/sqrt(s)) + (8/3) s^(3/2) ],  s = sigma,

    the chart's energy unit times the bracket over sqrt(2 s) for s >= 1 and the
    bracket below.  Obtained by integrating the on-law energy density against
    the implicit profile.  Above s = 16 the bracket cancels at order s^(5/2)
    down to (32/15) sqrt(s), and its series in 1/s is used instead (10 terms),
    which holds s = inf; both branches are within 5e-14 of mpmath for s in
    [1e-6, 1e8].
    """
    if params.mu == 0.0:
        raise DbisolError("closed form undefined at mu = 0 (no soliton)")
    s = params.sigma
    if s > 16.0:
        tail = 0.0
        for c in _STANDARD_SERIES:
            tail = tail / s + c
        val = (32.0 / 15.0 + tail / s) / math.sqrt(2.0)
    else:
        rs = math.sqrt(s)
        val = (1.0 - s) ** 2 * rs + (1.0 - s) * (1.0 + s) ** 2 * math.atan2(1.0, rs) \
            + (8.0 / 3.0) * s * rs
        if s >= 1.0:
            val /= math.sqrt(2.0) * rs
    return params.sector.chart.energy_unit(params) * val


# the compacton of V = eta on the 3-D chart is that of V = h on the planar one
skyrme_bps_energy_closed = baby_energy_closed


# ---------------------------------------------------------------------------
# target-space averages

def energy_per_charge_average(model: ModelParams, potential: PotentialSpec) -> float:
    """Energy per unit charge from the unit-mass target average, for either law.

    On the first-order law K + mu^2 V = B0 P with P = K'(B0), so the energy
    per charge is the chart's average factor times <P>, with P from
    `KineticLaw.dual`; equals energy_quadrature / |n| on solutions of the law.
    """
    if model.mu == 0.0:
        warnings.warn("mu = 0 admits no soliton; returning zero energy", stacklevel=2)
        return 0.0
    law, sigma = model.kinetic_law, model.sigma
    chart = model.sector.chart
    return chart.average_factor * model.units[1] * chart.average(
        lambda s: law.dual(potential.evaluate(s), sigma))


def power_family_energy_per_charge(model: ModelParams, potential: PotentialSpec) -> float:
    """The average route of energy_per_charge_average, under the power law's name."""
    return energy_per_charge_average(model, potential)


# ---------------------------------------------------------------------------
# limit laws

@dataclass(frozen=True)
class MuSweepResult:
    mus: tuple[float, ...]
    energies: tuple[float, ...]
    slope: float | None
    exponent: float | None = None


def small_mu_sweep(model: ModelParams, mus: Sequence[float],
                   potential: PotentialSpec) -> MuSweepResult:
    """Least-squares slope through the origin of E(mu) under the DBI law; under the
    power law, E ~ mu^(2 - 1/alpha_k) exactly, the slope of log E against log mu.

    Under the DBI law the slope tends to |n| c <sqrt V> as mu -> 0, with c the
    chart's average_factor and <.> its target average.  A potential of
    another sector's chart raises SectorMismatchError.
    """
    if len(mus) < 3:
        raise DbisolError("need at least 3 mu values for a slope estimate")
    if 0.0 in mus:
        raise NoSolitonError("mu = 0 admits no soliton")
    energies = [_in_range("energy", bps_energy_integral(replace(model, mu=float(mu)), potential))
                for mu in mus]
    mu_arr = np.asarray(mus, dtype=float)
    e_arr = np.asarray(energies)
    mus, energies = tuple(map(float, mus)), tuple(map(float, energies))
    if model.kinetic_law.mu_exponent is None:
        norm = np.dot(mu_arr, mu_arr)
        if norm < np.finfo(float).tiny:
            raise DbisolError(f"the slope fit's sum of mu^2 underflows to {norm:.17g}; "
                              f"the largest mu must be at least 1.5e-154")
        return MuSweepResult(mus, energies, float(np.dot(e_arr, mu_arr) / norm))
    if len(set(mus)) < 3:
        raise DbisolError("need at least 3 distinct mu values for an exponent fit")
    exponent = np.polyfit(np.log(mu_arr), np.log(e_arr), 1)[0]
    return MuSweepResult(mus, energies, None, float(exponent))


@dataclass(frozen=True)
class BetaSweepResult:
    betas: tuple[float, ...]
    energies: tuple[float, ...]
    distances: tuple[float, ...]
    exponent: float


def large_beta_sweep(model: ModelParams, betas: Sequence[float],
                     potential: PotentialSpec) -> BetaSweepResult:
    """Sup-norm distance of profiles to the large-beta limit, with decay fit.

    The limit is the model's profile at sigma = inf, B0 = 2 mu sqrt(V), at the
    same coordinates; the distance decays like beta^-2.  Rounding adds up to 4
    ulps of the anti-vacuum value (measured), 1/16 of a distance within 64
    ulps, which raises DbisolError naming its beta: there a factor-2 step in
    beta could move the fitted exponent by 0.2.  A potential of another
    sector's chart raises SectorMismatchError.  A model under the power law,
    which has no beta, raises DbisolError.
    """
    if model.kinetic_law.mu_exponent is not None:
        raise DbisolError("the large-beta limit is the DBI law's; the power law has no beta")
    if len(set(betas)) < 3:
        raise DbisolError("need at least 3 distinct beta values for an exponent fit")
    chart = model.sector.chart_for(potential)
    limit = _InverseMap(model, potential, math.inf)
    energies = []
    distances = []
    for beta in betas:
        p = replace(model, beta=float(beta))
        prof = solve_profile(p, potential, GridSpec(count=800))
        energies.append(_in_range("energy", bps_energy_integral(p, potential)))
        # the limit's length unit is p's at its U_B = mu
        unit = chart.length_unit(p) * (p.units[0] / p.mu)
        distance = float(np.max(np.abs(prof.field - limit.field_at(prof.coordinates, unit))))
        if distance <= 64 * math.ulp(chart.anti_vacuum):
            raise DbisolError(f"at beta = {float(beta):.17g} the profile equals the large-beta "
                              f"limit's to rounding; the decay fit needs smaller beta")
        distances.append(distance)
    fit = np.polyfit(np.log(np.asarray(betas, dtype=float)), np.log(np.asarray(distances)), 1)
    return BetaSweepResult(tuple(map(float, betas)), tuple(map(float, energies)),
                           tuple(map(float, distances)), float(fit[0]))


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class EnergyReport:
    energy_quadrature: float
    energy_closed_form: float | None
    energy_per_charge_avg: float
    charge: float
    rel_discrepancy_closed: float | None
    rel_discrepancy_avg: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _closed_form_for(model: ModelParams, potential: PotentialSpec) -> float | None:
    if not model.kinetic_law.is_dbi:
        return None
    # the tag pins the sector: the energy quadrature has already checked the
    # potential's domain against the model's chart
    if potential.tag == "bps-potential" or (
            potential.tag == "old-baby-power" and abs(potential.vacuum_exponent - 1.0) < 1e-12):
        return baby_energy_closed(model)
    if potential.tag == "skyrme-standard":
        return skyrme_standard_energy_closed(model)
    return None


def compute_energy_report(profile: SolitonProfile, model: ModelParams,
                          potential: PotentialSpec) -> EnergyReport:
    """Quadrature energy with closed-form and average-route cross checks."""
    e_quad = _in_range("energy", energy_quadrature(profile, model, potential))
    charge = charge_quadrature(profile, model)
    closed = _closed_form_for(model, potential)
    avg = energy_per_charge_average(model, potential)
    n = abs(model.charge)
    rel_closed = abs(e_quad - closed) / abs(closed) if closed is not None else None
    per = e_quad / n
    rel_avg = abs(avg - per) / abs(per) if per else None
    return EnergyReport(e_quad, closed, avg, charge, rel_closed, rel_avg)
