"""Potentials, couplings, kinetic laws and target-space geometry shared by every solver.

Two sectors are supported.  The planar one works on the chart h in [0, 1]
with the vacuum at h = 0, the three-dimensional one on xi in [0, pi] with the
vacuum at xi = 0; every potential has its vacuum at 0.  Each sector's `Chart`
(`Sector.chart`) holds every fact that tells the two apart, its length and
energy units and the unit-mass target average (`Chart.average`) among them,
and the solvers read it in place of branching on the sector.  Likewise the
`KineticLaw` holds every fact that tells the DBI square root from the pure
power, each in the couplings' own scale: sigma = beta^2 / mu^2 is the only
shape parameter of the DBI law and the power law has none, so every solver
works on a unit-free problem that the units turn into physical coordinates
and energies.  The large-beta limit, the BPS Skyrme model, is sigma = inf.
Every chart takes both laws.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DbisolError, SectorMismatchError
from .numerics import tanh_sinh

__all__ = [
    "Sector", "Chart", "KineticLaw", "PotentialSpec", "ModelParams",
    "make_potential", "fit_vacuum_exponent",
]


class Sector(enum.Enum):
    BABY2D = "baby"
    SKYRME3D = "skyrme"

    @property
    def chart(self) -> Chart:
        return CHARTS[self]

    def chart_for(self, potential: PotentialSpec) -> Chart:
        """The sector's chart, once the potential's domain is checked against it."""
        chart = self.chart
        if abs(potential.domain[1] - chart.anti_vacuum) > 1e-12 or potential.domain[0] != 0.0:
            raise SectorMismatchError(
                f"potential domain {potential.domain} does not match sector {self.value}")
        return chart


@dataclass(frozen=True)
class KineticLaw:
    """Kinetic term K(B0) of the static energy density K(B0) + mu^2 V.

    Square-root (DBI) when alpha_k is None, K = beta^2 (1 - sqrt(1 - B0^2 / (2 beta^2))),
    else the pure power K = (B0^2)^alpha_k.  Each fact that tells the two apart
    lives here, in units (U_B, U_P) with U_B U_P = mu^2: B0 = U_B b,
    P = K'(B0) = U_P p and K = mu^2 k, where b, p, k and K' / U_P depend on the
    couplings only through sigma (DBI) and not at all under the power law.
    """

    alpha_k: float | None = None

    def __post_init__(self):
        if self.alpha_k is not None and not 0.5 < self.alpha_k < math.inf:
            raise DbisolError(
                "power-family exponent must be finite and exceed 1/2; at and below 1/2 the "
                "first-order law cannot meet the vacuum boundary condition "
                f"(got {self.alpha_k})")

    @staticmethod
    def dbi() -> "KineticLaw":
        return KineticLaw()

    @staticmethod
    def power(alpha_k: float) -> "KineticLaw":
        return KineticLaw(float(alpha_k))

    @property
    def is_dbi(self) -> bool:
        return self.alpha_k is None

    @property
    def mu_exponent(self) -> float | None:
        """2 - 1/alpha_k, the power of mu in every energy of the power law, which has no
        shape parameter; None under the DBI law, whose shape sigma moves with mu."""
        return None if self.is_dbi else 2.0 - 1.0 / self.alpha_k

    def units(self, beta: float, mu: float, sigma: float) -> tuple[float, float]:
        """(U_B, U_P), formed without beta^2 or mu^2; past the double range, inf or 0.

        DBI: (mu, mu) for sigma >= 1, else (sqrt2 beta, mu (mu / beta) / sqrt2), so
        that b is of order one at every sigma.  Power: (mu^(1/alpha_k), mu^(2 - 1/alpha_k)).
        """
        if self.is_dbi:
            r2 = math.sqrt(2.0)
            return (mu, mu) if sigma >= 1.0 else (r2 * beta, mu * (mu / beta) / r2)
        with np.errstate(over="ignore"):
            b_unit, p_unit = np.power(mu, [1.0 / self.alpha_k, self.mu_exponent]).tolist()
        # an underflowed U_B stays positive, so that a length unit past the range is inf
        return max(b_unit, math.ulp(0.0)), p_unit

    def kinetic(self, b, sigma: float) -> np.ndarray:
        """k = K(B0) / mu^2 at b = B0 / U_B; DBI in nu = U_B / mu, kappa = U_B / (sqrt2 beta)."""
        b = np.asarray(b, dtype=float)
        if self.is_dbi:
            nu2, kappa2 = (1.0, 0.5 / sigma) if sigma >= 1.0 else (2.0 * sigma, 1.0)
            return 0.5 * nu2 * b * b / (1.0 + np.sqrt(np.maximum(1.0 - kappa2 * b * b, 0.0)))
        return np.power(b * b, self.alpha_k)

    def kinetic_slope(self, b, sigma: float) -> np.ndarray:
        """K'(B0) / U_P at b = B0 / U_B; DBI 1 - B0^2 / (2 beta^2) is clamped at 1e-300."""
        b = np.asarray(b, dtype=float)
        if self.is_dbi:
            nu2, kappa2 = (1.0, 0.5 / sigma) if sigma >= 1.0 else (2.0 * sigma, 1.0)
            return nu2 * b / (2.0 * np.sqrt(np.maximum(1.0 - kappa2 * b * b, 1e-300)))
        return 2.0 * self.alpha_k * np.sign(b) * np.power(np.abs(b), 2.0 * self.alpha_k - 1.0)

    def density(self, v, sigma: float) -> np.ndarray:
        """b = B0 / U_B >= 0 on the first-order law B0 K'(B0) - K(B0) = mu^2 V, at V >= 0.

        DBI, with t = sigma / (sigma + V) in (0, 1]: B0 = mu sqrt(2 V t (1 + t)) for
        sigma >= 1 and sqrt2 beta sqrt((1 - t)(1 + t)) below, 1 - t = V / (sigma + V).
        Neither subtracts; the first is exact as t -> 1, at sigma = inf too, where
        B0 = 2 mu sqrt(V), the large-beta limit, and the second as t -> 0.
        Power: (V / (2 alpha_k - 1))^(1 / (2 alpha_k)).
        """
        v = np.asarray(v, dtype=float)
        if np.any(v < 0):
            raise DbisolError("potential value must be non-negative")
        if not self.is_dbi:
            return np.power(v / (2.0 * self.alpha_k - 1.0), 1.0 / (2.0 * self.alpha_k))
        if sigma >= 1.0:
            t = 1.0 / (1.0 + v / sigma)
            return np.sqrt(2.0 * v * t * (1.0 + t))
        # 1 - t; a sigma that underflowed to 0 stays positive, so t = 0 wherever V > 0
        q = v / (max(sigma, math.ulp(0.0)) + v)
        return np.sqrt(q * (2.0 - q))

    def dual(self, v, sigma: float) -> np.ndarray:
        """p = P / U_P, P = K'(B0) on the first-order law, at V >= 0.

        On the law K + mu^2 V = B0 P, which makes the energy per charge a
        target average of P.  DBI: P = B0 / (2 t), p = b (1 + V / sigma) / 2 for
        sigma >= 1 and (sigma + V) b below; power:
        2 alpha_k (V / (2 alpha_k - 1))^(1 - 1 / (2 alpha_k)).
        """
        v = np.asarray(v, dtype=float)
        if not self.is_dbi:
            a2 = 2.0 * self.alpha_k
            return a2 * np.power(v / (a2 - 1.0), 1.0 - 1.0 / a2)
        return self.density(v, sigma) * (0.5 * (1.0 + v / sigma) if sigma >= 1.0 else sigma + v)

    def threshold_margin(self, vacuum_exponent: float, threshold: float) -> float:
        """threshold less twice the power, A/2 (DBI) or A/(2 alpha_k), with which B0 vanishes
        where V vanishes like the field to A; formed so that it does not cancel near 0."""
        k = 1.0 if self.is_dbi else self.alpha_k
        return (k * threshold - vacuum_exponent) / k


@dataclass(frozen=True)
class PotentialSpec:
    """A potential on a one-dimensional target chart.

    evaluate and derivative accept floats or numpy arrays.  The vacuum is at
    the domain's lower end, 0 on every chart; vacuum_exponent is the leading
    power of V there, used for localization classification and endpoint
    handling in the profile solver.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]
    vacuum_exponent: float
    tag: str


@dataclass(frozen=True)
class ModelParams:
    """Couplings, charge, sector and kinetic law of one model.

    Checked once, at construction (and so by dataclasses.replace too): an
    invalid combination raises DbisolError and no such instance exists.
    """

    beta: float
    mu: float
    charge: int
    sector: Sector
    kinetic_law: KineticLaw = field(default_factory=KineticLaw.dbi)

    def __post_init__(self):
        for name in ("beta", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise DbisolError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta <= 0:
            raise DbisolError(f"beta must be positive, got {self.beta}")
        if self.mu < 0:
            raise DbisolError(f"mu must be non-negative, got {self.mu}")
        n = self.charge
        # int() raises on a NaN or an infinity, so those are caught first
        if not (isinstance(n, int) or math.isfinite(n)) or int(n) != n or n == 0:
            raise DbisolError(f"topological charge must be a nonzero integer, got {n}")
        if not isinstance(self.sector, Sector):
            raise DbisolError(f"unknown sector {self.sector!r}")

    @property
    def sigma(self) -> float:
        """beta^2 / mu^2, the one shape parameter of the DBI law in either sector; inf
        at mu = 0 and past the double range, where t = 1 to rounding."""
        ratio = self.beta / self.mu if self.mu else math.inf
        return ratio * ratio

    @property
    def units(self) -> tuple[float, float]:
        """(U_B, U_P) of `KineticLaw.units` at these couplings."""
        return self.kinetic_law.units(self.beta, self.mu, self.sigma)


# numerically stable 1 - cos(xi) and (xi - cos xi sin xi)/2

def _one_minus_cos(xi):
    xi = np.asarray(xi, dtype=float)
    return 2.0 * np.sin(0.5 * xi) ** 2


# Taylor coefficients of (xi - cos xi sin xi) / xi^3 in xi^2, highest first:
# (-1)^(k+1) 4^k / (2k + 1)!, i.e. 2/3, -2/15, 4/315, ...
_ETA_SERIES = tuple((-1) ** (k + 1) * 4 ** k / math.factorial(2 * k + 1)
                    for k in range(10, 0, -1))


def _eta(xi):
    xi = np.asarray(xi, dtype=float)
    x2 = xi * xi
    # the direct expression xi - cos(xi) sin(xi) cancels like 1.5 / xi^2, so
    # below 1 the series is used instead (10 terms; the first one dropped is
    # below 3e-16 relative); both are within 6e-16 of mpmath
    series = 0.0
    for c in _ETA_SERIES:
        series = series * x2 + c
    exact = xi - np.cos(xi) * np.sin(xi)
    return 0.5 * np.where(np.abs(xi) < 1.0, xi * x2 * series, exact)


def _eta_deriv(xi):
    return np.sin(np.asarray(xi, dtype=float)) ** 2


@dataclass(frozen=True)
class Chart:
    """The target chart of one sector: each fact that tells the sectors apart.

    The field runs from the vacuum at 0 to anti_vacuum.  B0 vanishes at the
    vacuum like a power of the field; twice that power below threshold gives
    a compacton, at it an exponential tail, above it a power-law tail.

    In X = x / length_unit the first-order profile has |J df/dX| = b and the
    energy is energy_unit int J p df (`KineticLaw`); both units take (beta, mu,
    n, law), and what the package returns is physical, scaled by them.
    """

    anti_vacuum: float
    threshold: float
    average_factor: float    # of the per-charge target average
    slope_pole: bool         # the slope diverges at the anti-vacuum value
    jacobian: Callable       # volume element in the field; planar, the scalar 1.0
    volume: Callable         # primitive of jacobian
    length_unit: Callable    # params -> coordinate per unit-free coordinate X
    energy_unit: Callable    # params -> energy per unit-free energy
    radial: Callable         # (radius, params) -> coordinate of the reduced problem

    @functools.cached_property
    def unit_weight(self) -> float:
        """1 / volume(anti_vacuum): unit_weight * jacobian has unit mass on the chart."""
        return 1.0 / float(self.volume(self.anti_vacuum))

    def coordinate_map(self, r, params: ModelParams):
        """Coordinate of the reduced problem at radius r >= 0."""
        rr = np.asarray(r, dtype=float)
        if np.any(rr < 0):
            raise DbisolError("radius must be non-negative")
        out = self.radial(rr, params)
        return out if out.ndim else float(out)

    def average(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Average of fn, a vectorized function of the field, over the unit-mass
        target measure unit_weight * jacobian on [0, anti_vacuum]."""
        return tanh_sinh(
            lambda s: np.full(np.shape(s), self.unit_weight) * self.jacobian(s) * fn(s),
            0.0, self.anti_vacuum)


CHARTS = {
    # h in [0, 1] in the chart x = r^2 / 2, with |dh/dx| = 2 pi B0 / |n| and the
    # energy density 2 pi (K + mu^2 V).  The inverse map int 1 / B0
    # converges at the vacuum exactly when B0 vanishes with a power below 1.
    Sector.BABY2D: Chart(
        anti_vacuum=1.0, threshold=2.0, average_factor=1.0, slope_pole=False,
        jacobian=lambda h: 1.0,
        volume=lambda h: h,
        length_unit=lambda p: abs(p.charge) / (2.0 * math.pi * p.units[0]),
        energy_unit=lambda p: abs(p.charge) * p.units[1],
        radial=lambda r, p: 0.5 * r * r,
    ),
    # xi in [0, pi] in the cubic radial chart z = 2 sqrt2 beta pi^2 r^3 / |n|, with
    # |sin^2 xi dxi/dz| = B0 / (sqrt2 beta) and the energy density
    # sqrt2 |n| (K + mu^2 V) / (3 pi beta).  The inverse map int sin^2 / B0
    # converges at the vacuum exactly when B0 vanishes with a power below 3,
    # as for both built-in potentials.  The energy energy_unit int J p is
    # energy_unit <p> / unit_weight, so on every chart
    # average_factor |n| unit_weight U_P = energy_unit: the 1/3 is that of 2 / (3 pi).
    Sector.SKYRME3D: Chart(
        anti_vacuum=math.pi, threshold=6.0, average_factor=1.0 / 3.0, slope_pole=True,
        jacobian=_eta_deriv,
        volume=_eta,
        length_unit=lambda p: math.sqrt(2.0) * (p.beta / p.units[0]),
        energy_unit=lambda p: 2.0 * abs(p.charge) * p.units[1] / (3.0 * math.pi),
        radial=lambda r, p: 2.0 * math.sqrt(2.0) * p.beta * math.pi ** 2 / abs(p.charge) * r ** 3,
    ),
}


def make_potential(tag: str, alpha: float | None = None, *,
                   evaluate: Callable | None = None,
                   derivative: Callable | None = None,
                   domain: tuple[float, float] | None = None,
                   vacuum_coordinate: float | None = None,
                   vacuum_exponent: float | None = None) -> PotentialSpec:
    """Build one of the built-in potentials or wrap a custom one.

    Tags: "old-baby-power" (requires alpha > 0), "skyrme-standard",
    "bps-potential", "custom" (requires evaluate, derivative, domain and
    vacuum_exponent; the declared vacuum_exponent is cross-checked against a
    log-log fit).  Every chart has its vacuum at 0, so vacuum_coordinate may
    be given only as 0.
    """
    if tag == "old-baby-power":
        if alpha is None or alpha <= 0:
            raise DbisolError(f"old-baby-power requires a positive exponent, got {alpha}")
        a = float(alpha)
        return PotentialSpec(
            evaluate=lambda h: np.power(np.asarray(h, dtype=float), a),
            derivative=lambda h: a * np.power(np.asarray(h, dtype=float), a - 1.0),
            domain=(0.0, 1.0),
            vacuum_exponent=a,
            tag=tag,
        )
    if tag == "skyrme-standard":
        return PotentialSpec(
            evaluate=_one_minus_cos,
            derivative=lambda xi: np.sin(np.asarray(xi, dtype=float)),
            domain=(0.0, math.pi),
            vacuum_exponent=2.0,
            tag=tag,
        )
    if tag == "bps-potential":
        return PotentialSpec(
            evaluate=_eta,
            derivative=_eta_deriv,
            domain=(0.0, math.pi),
            vacuum_exponent=3.0,
            tag=tag,
        )
    if tag == "custom":
        missing = [name for name, v in (("evaluate", evaluate), ("derivative", derivative),
                                        ("domain", domain), ("vacuum_exponent", vacuum_exponent))
                   if v is None]
        if missing:
            raise DbisolError(f"custom potential requires {', '.join(missing)}")
        if vacuum_coordinate not in (None, 0.0):
            raise DbisolError(f"the vacuum is at 0 on every chart, got vacuum_coordinate "
                              f"{vacuum_coordinate}")
        if vacuum_exponent <= 0:
            raise DbisolError(f"vacuum_exponent must be positive, got {vacuum_exponent}")
        spec = PotentialSpec(evaluate, derivative, tuple(map(float, domain)),
                             float(vacuum_exponent), tag)
        fitted = fit_vacuum_exponent(spec)
        if not math.isclose(fitted, spec.vacuum_exponent, rel_tol=0.15):
            raise DbisolError(
                f"declared vacuum_exponent {spec.vacuum_exponent} disagrees with the "
                f"log-log fit near the vacuum ({fitted:.4f})")
        return spec
    raise DbisolError(f"unknown potential tag {tag!r}")


def fit_vacuum_exponent(potential: PotentialSpec) -> float:
    """Least-squares slope of log V against log(distance to the vacuum).

    Fitted on 25 distances above the domain's lower end, the vacuum, from
    1e-6 to 1e-3 of the domain width.
    """
    lo, hi = potential.domain
    d = np.logspace(-6.0, -3.0, 25) * (hi - lo)
    v = np.asarray(potential.evaluate(lo + d), dtype=float)
    if np.any(v <= 0):
        raise DbisolError("potential is not positive next to its vacuum")
    slope = np.polyfit(np.log(d), np.log(v), 1)[0]
    return float(slope)
