"""Soliton profile construction and classification.

Profiles are built by quadrature of the separable inverse map: the
first-order law gives the slope as a function of the field alone, so the
coordinate is the integral of 1/slope from the anti-vacuum boundary, taken
in s = ln(field), and in the unit-free coordinate of the chart's length
unit, where it depends on the couplings only through sigma = beta^2 / mu^2,
the only DBI shape parameter; profiles are sampled in physical coordinates.
There the integrand behaves like exp(kappa s) at the vacuum, kappa half the
threshold margin: a tail (kappa <= 0) is resolved down to FIELD_FLOOR, and
a compacton's piece below a small field is summed in closed form.  A composite Gauss-Legendre rule (numerics.CumulativeIntegral)
reaches machine precision on the rest; it evaluates the integrand once per
node, and inverts the map on the interpolants through those node values.
This quadrature is the only profile solver; the tests check it against an
mpmath oracle written apart from the package.  The DBI law's large-beta
limit is its profile at sigma = inf.

Closed-form evaluators for the three exactly solvable cases live here too,
together with tail classification.

A profile CSV writes each value as exactly b"%.17g" % v of the stored
double; dbisol._csv describes its kernel.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._files import write_atomic
from .errors import DbisolError, NoSolitonError
from .model import KineticLaw, ModelParams, PotentialSpec, Sector, _eta
from .numerics import CumulativeIntegral, bisect_monotone, uniform_mesh

__all__ = [
    "LocalizationClass", "GridSpec", "SolitonProfile",
    "solve_profile", "profile_on_grid", "profile_field_at",
    "baby_old_exact", "baby_old_radius",
    "skyrme_standard_exact", "skyrme_standard_radius", "skyrme_standard_implicit_lhs",
    "skyrme_bps_exact", "skyrme_bps_radius",
    "angular_profile", "classify_localization", "tail_fit", "endpoint_asymptotics",
    "write_profile_csv",
]


class LocalizationClass(enum.Enum):
    COMPACTON = "compacton"
    EXPONENTIAL = "exponential"
    POWER_LAW = "power-law"
    AMBIGUOUS = "ambiguous"


# field value down to which solve_profile resolves a profile with an infinite tail
FIELD_FLOOR = 1e-9
# field below which a compacton's inverse map is summed in closed form from
# its leading vacuum power, with an error of order 1e-16^(kappa + delta)
_COMPACTON_SPLIT = 1e-16


@dataclass(frozen=True)
class GridSpec:
    """Sampling request for solve_profile.

    count uniform samples span the extent.  Non-compact profiles are
    resolved down to FIELD_FLOOR; compact profiles get 10 exact-zero
    samples past the radius.
    """

    count: int = 1000

    def __post_init__(self):
        if self.count < 2:
            raise DbisolError(f"grid needs at least 2 samples, got {self.count}")


@dataclass(frozen=True)
class SolitonProfile:
    coordinates: np.ndarray
    field: np.ndarray
    derivative: np.ndarray
    energy_density: np.ndarray
    charge_density: np.ndarray
    compacton_radius: float | None
    params: ModelParams
    potential: PotentialSpec
    field_floor: float = 0.0

    def __post_init__(self):
        for arr in (self.coordinates, self.field, self.derivative,
                    self.energy_density, self.charge_density):
            arr.setflags(write=False)

    @property
    def sector(self) -> Sector:
        return self.params.sector

    @property
    def anti_vacuum(self) -> float:
        return self.sector.chart.anti_vacuum

    def field_range(self) -> tuple[float, float]:
        """Traversed field interval (min, max); 0 once the vacuum or the floor is reached."""
        lo = float(self.field.min())
        return (0.0 if lo <= self.field_floor else lo, float(self.field[0]))

    def validate_invariants(self, boundary_tol: float = 1e-8) -> None:
        f = self.field
        if np.any(np.diff(f) > 1e-12):
            raise DbisolError("field is not monotone non-increasing")
        if abs(f[0] - self.anti_vacuum) > boundary_tol:
            raise DbisolError("profile does not start at the anti-vacuum value")
        if f[-1] > max(boundary_tol, 10.0 * self.field_floor):
            raise DbisolError("profile does not reach the vacuum")
        sgn = 1.0 if self.params.charge > 0 else -1.0
        if np.any(sgn * self.charge_density < -1e-14):
            raise DbisolError("charge density changes sign against the topological charge")
        if not np.all(np.isfinite(self.energy_density)):
            raise DbisolError("energy density is not finite everywhere")


def angular_profile(theta):
    """tan(theta/2); the solution of the polar equation with g(0) = 0."""
    th = np.asarray(theta, dtype=float)
    if np.any((th < 0) | (th >= math.pi)):
        raise DbisolError("theta must lie in [0, pi); the map has a pole at pi")
    out = np.tan(0.5 * th)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# closed forms

def baby_old_radius(params: ModelParams) -> float:
    return abs(params.charge) / (2.0 * math.pi) * math.hypot(1.0 / params.mu,
                                                             1.0 / (math.sqrt(2.0) * params.beta))


def baby_old_exact(x, params: ModelParams):
    """Planar compacton of the linear potential V = h under the DBI law: with
    nu = U_B / mu, kappa = U_B / (sqrt2 beta) and u = (x0 - x) / length_unit,
    h = 2 u^2 / (nu^2 + sqrt(nu^4 + 4 kappa^2 u^2))."""
    xx = np.asarray(x, dtype=float)
    if np.any(xx < 0):
        raise DbisolError("coordinate must be non-negative")
    x0 = baby_old_radius(params)
    b_unit = params.units[0]
    nu2 = (b_unit / params.mu) ** 2
    kappa = b_unit / (math.sqrt(2.0) * params.beta)
    u = (x0 - xx) / params.sector.chart.length_unit(params)
    h = 2.0 * u * u / (nu2 + np.hypot(nu2, 2.0 * kappa * u))
    out = np.where(xx <= x0, h, 0.0)
    return out if out.ndim else float(out)


def skyrme_standard_implicit_lhs(xi, sigma: float):
    """Left side of the implicit profile relation, in half-angle form.

    Monotone decreasing from the radius value at xi = 0 to 0 at xi = pi.
    With s2, c2 = sin^2, cos^2(xi / 2) and q = sigma + s2 it is
    (q + c2 - 2 s2) sqrt(c2 q) + (1 - sigma^2) arctan(sqrt(y)), y = c2 / q.
    Above sigma = 16 the two terms cancel like sigma eps, and their sum in
    series of y <= 1 / sigma is used instead (13 terms):
    sqrt(c2 q) (c2 (1 + T) + y ((1 + s2) S - 2 s2 T)), S = sum (-y)^m / (2m + 1)
    and T = sum (-y)^m / (2m + 3) the series of arctan.
    """
    x = np.asarray(xi, dtype=float)
    s2 = np.sin(0.5 * x) ** 2
    c2 = np.cos(0.5 * x) ** 2
    if sigma > 16.0:
        q = sigma + s2
        y = c2 / q
        ser = tser = 0.0
        for m in range(12, -1, -1):
            ser = 1.0 / (2 * m + 1) - y * ser
            tser = 1.0 / (2 * m + 3) - y * tser
        out = np.sqrt(c2 * q) * (c2 * (1.0 + tser) + y * ((1.0 + s2) * ser - 2.0 * s2 * tser))
    else:
        out = (sigma + 1.0 - 2.0 * s2) * np.sqrt(c2 * (sigma + s2)) \
            + (1.0 - sigma * sigma) * np.arctan(np.sqrt(c2 / (sigma + s2)))
    return out if out.ndim else float(out)


def skyrme_standard_radius(sigma: float) -> float:
    """The compacton's z radius, the implicit relation at xi = 0."""
    if sigma > 16.0:
        return skyrme_standard_implicit_lhs(0.0, sigma)
    rs = math.sqrt(sigma)
    return rs * (1.0 + sigma) + (1.0 - sigma * sigma) * math.atan2(1.0, rs)


def skyrme_standard_exact(z, sigma: float):
    """Profile of the standard potential by bisection on the implicit relation.

    Within a machine-level band of the radius the implicit relation is
    quadratically degenerate and bisection returns square-root-of-epsilon
    noise, so the edge asymptote xi = sqrt(2 (z0 - z)) / sigma^(1/4) is used
    there instead (its own error in that band is far below 1e-12).
    """
    if sigma <= 0:
        raise DbisolError("sigma must be positive")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    z0 = skyrme_standard_radius(sigma)
    xi = bisect_monotone(lambda t: skyrme_standard_implicit_lhs(t, sigma), zz,
                         0.0, math.pi, increasing=False)
    u = z0 - zz
    edge = np.sqrt(2.0 * np.clip(u, 0.0, None)) * sigma ** -0.25
    xi = np.where(u < 1e-9 * max(1.0, z0), edge, xi)
    # a square-root edge turns machine-level disagreement about the radius
    # into sqrt(eps)-level field noise, so snap to the vacuum inside a band
    # a few hundred ulps wide
    xi = np.where(u < 1e-12 * max(1.0, z0), 0.0, xi)
    xi = np.where(zz <= 0.0, math.pi, xi)
    return xi if np.ndim(z) else float(xi[0])


def skyrme_bps_radius(sigma: float) -> float:
    return 0.5 * math.sqrt(math.pi) * math.sqrt(math.pi + 4.0 * sigma)


def skyrme_bps_exact(z, sigma: float):
    """Profile of the cubic-vacuum potential: eta = d^2 / (sigma + hypot(sigma, d)) at
    d = z0 - z, inverted to xi."""
    if sigma <= 0:
        raise DbisolError("sigma must be positive")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    z0 = skyrme_bps_radius(sigma)
    d = z0 - np.clip(zz, 0.0, z0)
    xi = bisect_monotone(_eta, d * d / (sigma + np.hypot(sigma, d)), 0.0, math.pi, increasing=True)
    xi = np.where(zz >= z0, 0.0, xi)
    xi = np.where(zz <= 0.0, math.pi, xi)
    return xi if np.ndim(z) else float(xi[0])


def endpoint_asymptotics(sigma: float) -> tuple[float, float]:
    """(edge, core) coefficients of the standard-potential profile.

    Near the radius xi ~ edge * sqrt(2 (z0 - z)); near the origin
    xi ~ pi - core * z^(1/3).
    """
    if sigma <= 0:
        raise DbisolError("sigma must be positive")
    edge = sigma ** -0.25
    core = 6.0 ** (1.0 / 3.0) * (1.0 + sigma) ** (1.0 / 6.0) / (2.0 + sigma) ** (1.0 / 3.0)
    return edge, core


# ---------------------------------------------------------------------------
# classification

def classify_localization(vacuum_exponent: float, sector: Sector,
                          kinetic_law: KineticLaw = KineticLaw.dbi()) -> LocalizationClass:
    """Localization type from the near-vacuum power A of the potential.

    B0 vanishes like the field to the power A/2 (DBI law) or A/(2 alpha_k)
    (power law); twice that power is compared with the chart's threshold, 2
    planar and 6 in the 3-D radial chart.
    """
    if vacuum_exponent <= 0:
        raise DbisolError("vacuum exponent must be positive")
    margin = kinetic_law.threshold_margin(vacuum_exponent, sector.chart.threshold)
    if abs(margin) < 1e-12:
        return LocalizationClass.EXPONENTIAL
    if margin > 0:
        return LocalizationClass.COMPACTON
    return LocalizationClass.POWER_LAW


def tail_fit(profile: SolitonProfile) -> LocalizationClass:
    """Empirical localization class from the solved tail.

    Finite-radius termination wins immediately.  Otherwise log(field) is
    fitted against the coordinate and against log(coordinate) over the last
    decade of field magnitude (at least 10 samples) and the better
    correlation decides; fits whose r^2 differ by less than 1e-6 are
    reported as Ambiguous.
    """
    if profile.compacton_radius is not None:
        return LocalizationClass.COMPACTON
    f = profile.field
    x = profile.coordinates
    pos = f > 0
    if f[pos].min() > 1e-3:
        raise DbisolError("tail not resolved below 1e-3; solve deeper before fitting")
    fmin = f[pos].min()
    sel = pos & (f <= 10.0 * fmin) & (x > 0)
    if sel.sum() < 10:
        raise DbisolError("insufficient tail samples for a fit")
    logf = np.log(f[sel])

    def r2(u):
        c = np.corrcoef(u, logf)[0, 1]
        return c * c

    r2_exp = r2(x[sel])
    r2_pow = r2(np.log(x[sel]))
    if abs(r2_exp - r2_pow) < 1e-6:
        return LocalizationClass.AMBIGUOUS
    return LocalizationClass.EXPONENTIAL if r2_exp > r2_pow else LocalizationClass.POWER_LAW


# ---------------------------------------------------------------------------
# solver

def _profile_on_law(model: ModelParams, potential: PotentialSpec, coords: np.ndarray,
                    field: np.ndarray, compacton_radius: float | None,
                    field_floor: float = 0.0) -> SolitonProfile:
    """Profile of field samples on the first-order law, with its derived columns.

    Derivative, energy density and charge density follow from the field
    through the law; samples at the vacuum (field 0) are zero in every column.
    """
    chart = model.sector.chart
    law, sigma = model.kinetic_law, model.sigma
    length = chart.length_unit(model)
    inside = field > 0.0
    deriv = np.zeros_like(field)
    edens = np.zeros_like(field)
    cdens = np.zeros_like(field)
    f = field[inside]
    v = np.asarray(potential.evaluate(f), dtype=float)
    b = law.density(v, sigma)
    # an energy density past the double range fails validate_invariants; where
    # the Jacobian vanishes at the anti-vacuum boundary, the slope itself diverges
    with np.errstate(all="ignore"):
        edens[inside] = chart.energy_unit(model) / length * (law.kinetic(b, sigma) + v)
        y = -b / length    # the Jacobian times the slope
        deriv[inside] = y / chart.jacobian(f)
    if chart.slope_pole:
        deriv[inside & (field >= chart.anti_vacuum - 1e-12)] = -np.inf
    cdens[inside] = model.charge * chart.unit_weight * np.abs(y)
    return SolitonProfile(
        coordinates=coords,
        field=field,
        derivative=deriv,
        energy_density=edens,
        charge_density=cdens,
        compacton_radius=compacton_radius,
        params=model,
        potential=potential,
        field_floor=field_floor,
    )


def _in_range(name: str, value: float) -> float:
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise DbisolError(f"the {name} {value:g} leaves the double range at these couplings")
    return value


class _InverseMap:
    """Cumulative inverse map X(field) of one first-order profile at shape sigma, in
    the unit-free coordinate X = x / length_unit, and its inverse."""

    def __init__(self, model: ModelParams, potential: PotentialSpec, sigma: float):
        chart = model.sector.chart_for(potential)
        if model.mu == 0.0:
            raise NoSolitonError(
                "mu = 0 removes the potential term; the first-order law degenerates to "
                "a vanishing slope and cannot connect the anti-vacuum boundary to the vacuum")
        law = model.kinetic_law

        def g(s):
            # |dX/d(ln field)|
            f = np.exp(np.asarray(s, dtype=float))
            return f * (chart.jacobian(f) / law.density(potential.evaluate(f), sigma))

        exponent = potential.vacuum_exponent
        self.compact = classify_localization(exponent, model.sector,
                                             law) is LocalizationClass.COMPACTON
        self.anti = chart.anti_vacuum
        # a compacton's g vanishes like exp(kappa s), kappa half the threshold
        # margin, so its piece below lo is g(ln lo) / kappa, up to an error of
        # order lo^(kappa + delta), delta >= 0.01 the next power in B0; lo
        # keeps V(lo) a normal double.  A tail stops at FIELD_FLOOR.
        self._kappa = 0.5 * law.threshold_margin(exponent, chart.threshold)
        self._lo = max(_COMPACTON_SPLIT, 1e-300 ** (1.0 / exponent)) if self.compact \
            else FIELD_FLOOR
        if not potential.evaluate(self._lo) > 0.0:
            raise DbisolError(f"the potential V underflows to 0 at the field floor "
                              f"{self._lo:g}, so the inverse map cannot reach it")
        mesh = uniform_mesh(math.log(self._lo), math.log(self.anti))
        # an integrand that overflows, divides by zero or turns NaN (b
        # underflowing where V does not) leaves a non-finite total
        with np.errstate(all="ignore"):
            self._cum = CumulativeIntegral(g, mesh)
            self._below = float(g(mesh[0])) / self._kappa if self.compact else 0.0
        self.extent = self._below + self._cum.total
        if not math.isfinite(self.extent) or self.extent <= 0:
            raise DbisolError("inverse map integral is not finite for this model and potential")

    def field_at(self, coords, unit: float) -> np.ndarray:
        """Field at each coordinate, in a length unit; exactly the anti-vacuum value
        at coordinates <= 0 and, for a compacton, 0 at and past unit * extent."""
        x = np.asarray(coords, dtype=float)
        # X from the vacuum end, exact where it is small
        y = (unit * self.extent - x) / unit
        field = np.exp(self._cum.invert(y - self._below))
        if self.compact:
            # below lo the integral from the vacuum is below * (field / lo)^kappa
            field = np.where(y < self._below, self._lo * np.clip(y / self._below, 0.0, 1.0)
                             ** (1.0 / self._kappa), field)
        return np.where(x <= 0.0, self.anti, field)


def profile_field_at(model: ModelParams, potential: PotentialSpec, coords) -> np.ndarray:
    """Field values of the first-order profile at arbitrary coordinates."""
    unit = model.sector.chart.length_unit(model)
    return _InverseMap(model, potential, model.sigma).field_at(coords, unit)


def solve_profile(model: ModelParams, potential: PotentialSpec,
                  grid_spec: GridSpec | None = None) -> SolitonProfile:
    """Construct the symmetric profile of the first-order law.

    The inverse map X(field) of the unit-free problem is integrated by a
    composite Gauss-Legendre rule in ln(field) and then inverted on a uniform
    coordinate grid, x = length_unit X.  Compact profiles report their radius
    and are padded with 10 exact-zero samples; others are resolved down to
    FIELD_FLOOR.  An extent past the normal doubles raises DbisolError.
    """
    grid = grid_spec or GridSpec()
    inv = _InverseMap(model, potential, model.sigma)
    unit = model.sector.chart.length_unit(model)
    extent = _in_range("profile's extent", unit * inv.extent)
    coords = np.linspace(0.0, extent, grid.count)
    field = inv.field_at(coords, unit)
    if inv.compact:
        coords = np.concatenate([coords, coords[-1] + (coords[1] - coords[0]) * np.arange(1, 11)])
        field = np.concatenate([field, np.zeros(10)])
        return _profile_on_law(model, potential, coords, field, extent)
    return _profile_on_law(model, potential, coords, field, None, FIELD_FLOOR)


def profile_on_grid(field_fn: Callable[[np.ndarray], np.ndarray], model: ModelParams,
                    potential: PotentialSpec, *, spacing: float | None = None,
                    count: int | None = None, extent: float,
                    compacton_radius: float | None = None) -> SolitonProfile:
    """Sample an exact evaluator on a uniform grid and attach law-based columns."""
    if spacing is not None:
        coords = np.arange(0.0, extent + 0.5 * spacing, spacing)
    else:
        coords = np.linspace(0.0, extent, count or 1000)
    field = np.asarray(field_fn(coords), dtype=float)
    return _profile_on_law(model, potential, coords, field, compacton_radius)


def write_profile_csv(profile: SolitonProfile, path) -> None:
    """Export the sample table atomically; each value is b"%.17g" of the stored double."""
    # imported here: without cached bytecode every import compiles the
    # kernel, which only a CSV writer needs
    from ._csv import csv_rows

    table = np.column_stack([profile.coordinates, profile.field, profile.derivative,
                             profile.energy_density, profile.charge_density])
    write_atomic(path, b"coordinate,field,derivative,energy_density,charge_density\n"
                 + csv_rows(table))
