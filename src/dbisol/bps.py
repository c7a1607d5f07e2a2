"""First-order reduction of the static problem.

The static energy density depends on the field only through the charge
density B0 and the potential, so the second-order equations integrate once to
an algebraic relation B0 = W(field).  This module provides that relation in
closed form for the square-root (DBI) and pure-power energy densities, a
numeric root-finder that recovers it from an arbitrary density F(W, field),
and a finite-difference residual check of the reduced second-order equations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DbisolError
from .model import ModelParams, PotentialSpec

__all__ = [
    "BpsLaw", "EomResidualReport", "bps_law_for", "static_density",
    "dbi_bps_density", "power_bps_density", "numeric_bps_density", "eom_residual",
]


def _rel_ceiling(v_over_b2):
    """sqrt(1 - (1 + e)^-2) written as sqrt(e(2+e))/(1+e), exact for tiny e."""
    e = np.asarray(v_over_b2, dtype=float)
    return np.sqrt(e * (2.0 + e)) / (1.0 + e)


def dbi_bps_density(v_value, params: ModelParams):
    """Charge density B0 solving the DBI first-order law at potential value V.

    B0 = sqrt(2) beta sqrt(1 - (mu^2 V / beta^2 + 1)^-2); monotone in V and
    bounded by sqrt(2) beta.
    """
    if not params.kinetic_law.is_dbi:
        raise DbisolError("dbi_bps_density requires the DBI kinetic law")
    v = np.asarray(v_value, dtype=float)
    if np.any(v < 0):
        raise DbisolError("potential value must be non-negative")
    out = math.sqrt(2.0) * params.beta * _rel_ceiling(params.mu ** 2 * v / params.beta ** 2)
    return out if out.ndim else float(out)


def power_bps_density(v_value, mu: float, alpha_k: float):
    """Charge density for the pure-power density (B0^2)^alpha_k + mu^2 V."""
    if alpha_k <= 0.5:
        raise DbisolError(f"power-family exponent must exceed 1/2, got {alpha_k}")
    v = np.asarray(v_value, dtype=float)
    if np.any(v < 0):
        raise DbisolError("potential value must be non-negative")
    out = np.power(mu ** 2 * v / (2.0 * alpha_k - 1.0), 1.0 / (2.0 * alpha_k))
    return out if out.ndim else float(out)


def static_density(params: ModelParams, b0, v):
    """Static energy density K(B0) + mu^2 V at charge density B0 and potential value V."""
    b0 = np.asarray(b0, dtype=float)
    if params.kinetic_law.is_dbi:
        r = b0 * b0 / (2.0 * params.beta ** 2)
        kinetic = params.beta ** 2 * r / (1.0 + np.sqrt(np.maximum(1.0 - r, 0.0)))
    else:
        kinetic = np.power(b0 * b0, params.kinetic_law.alpha_k)
    return kinetic + params.mu ** 2 * v


def numeric_bps_density(F: Callable[[float, float], float], field_value: float, *,
                        dF_dW: Callable[[float, float], float] | None = None,
                        w_max: float | None = None, tol: float = 1e-12) -> float:
    """Root W >= 0 of W dF/dW - F = 0 at fixed field value.

    Bracketing bisection refined by Newton steps.  When no analytic dF/dW is
    supplied, a central difference is used and a warning is emitted.
    """
    if dF_dW is None:
        warnings.warn("numeric_bps_density: derivative unavailable, falling back to "
                      "central finite differences", stacklevel=2)

        def dF_dW(w, s, _F=F):
            d = 1e-7 * max(1.0, abs(w))
            return (_F(w + d, s) - _F(max(w - d, 0.0), s)) / (d + min(w, d))

    def g(w):
        return w * dF_dW(w, field_value) - F(w, field_value)

    if abs(F(0.0, field_value)) <= tol:
        return 0.0
    lo, glo = 0.0, g(0.0)
    if glo > 0:
        raise DbisolError("no sign change found in the search bracket")
    if w_max is not None:
        hi = w_max
        if g(hi) < 0:
            raise DbisolError("no sign change found in the search bracket")
    else:
        hi = 1.0
        for _ in range(80):
            if g(hi) > 0:
                break
            hi *= 2.0
        else:
            raise DbisolError("no sign change found in the search bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    w = 0.5 * (lo + hi)
    # Newton polish on g; falls back to the bisection value if a step escapes
    for _ in range(4):
        d = 1e-8 * max(1.0, abs(w))
        gp = (g(w + d) - g(w - d)) / (2.0 * d)
        if gp == 0:
            break
        step = g(w) / gp
        if not (lo - tol <= w - step <= hi + tol):
            break
        w -= step
    return float(w)


@dataclass(frozen=True)
class BpsLaw:
    """The relation B0 = W(field) for one model and potential.

    B0 depends on the field only through the potential value: of_potential
    maps V >= 0 to B0 >= 0, so a caller that needs V anyway evaluates it once.
    Profiles decrease from the anti-vacuum boundary to the vacuum, so the
    slope is -B0 times the chart's slope scale over its Jacobian.
    """

    of_potential: Callable[[np.ndarray], np.ndarray]
    potential: PotentialSpec

    def density(self, field):
        """B0 at target coordinates."""
        return self.of_potential(self.potential.evaluate(field))


def bps_law_for(model: ModelParams, potential: PotentialSpec) -> BpsLaw:
    """Closed-form first-order law for the model's kinetic prescription."""
    if model.kinetic_law.is_dbi:
        return BpsLaw(lambda v: dbi_bps_density(v, model), potential)
    ak = model.kinetic_law.alpha_k
    return BpsLaw(lambda v: power_bps_density(v, model.mu, ak), potential)


# 100 interior samples plus the two at each end that lack a full stencil
EOM_MIN_SAMPLES = 104


@dataclass(frozen=True)
class EomResidualReport:
    grid_spacing: float
    max_abs_residual: float
    residuals: np.ndarray
    coordinates: np.ndarray

    def __post_init__(self):
        self.residuals.setflags(write=False)
        self.coordinates.setflags(write=False)


def eom_residual(profile, *, edge_margin: float | None = None) -> EomResidualReport:
    """Central-difference residual of the reduced second-order equation.

    Evaluated on interior samples only: full stencils, inside the support of
    the field (above 1e-12), and at least edge_margin away from any support
    edge (default 5 grid spacings), where the derivative of a compact profile
    degenerates.  The profile needs at least EOM_MIN_SAMPLES samples.
    For a profile on the first-order law the maximum residual decays like the
    square of the spacing.
    """
    params = profile.params
    x = profile.coordinates
    f = profile.field
    if len(x) < EOM_MIN_SAMPLES:
        raise DbisolError(f"need at least {EOM_MIN_SAMPLES} samples "
                          f"({EOM_MIN_SAMPLES - 4} with a full stencil), got {len(x)}")
    steps = np.diff(x)
    delta = float(steps[0])
    if not np.allclose(steps, delta, rtol=1e-8, atol=1e-12):
        raise DbisolError("profile grid is not uniform")
    if edge_margin is None:
        edge_margin = 5.0 * delta

    pot = profile.potential
    chart = profile.sector.chart
    u = np.full_like(f, np.nan)
    u[1:-1] = (f[2:] - f[:-2]) / (2.0 * delta)
    with np.errstate(invalid="ignore", divide="ignore"):
        G = chart.eom_flux(u, f, params)
        R = np.full_like(f, np.nan)
        dG = (G[3:-1] - G[1:-3]) / (2.0 * delta)
        # V' may diverge at the vacuum padding, which the support mask drops
        dV = np.asarray(pot.derivative(f[2:-2]), dtype=float)
        R[2:-2] = chart.eom_operator(dG, f[2:-2], dV, params)

    support = f > 1e-12
    # distance to the nearest support edge, counting domain endpoints
    idx = np.arange(len(x))
    in_support = idx[support]
    mask = np.zeros(len(x), dtype=bool)
    if in_support.size:
        lo_edge = x[in_support[0]]
        hi_edge = x[in_support[-1]]
        mask = support & ~np.isnan(R)
        mask &= (x - lo_edge >= edge_margin) & (hi_edge - x >= edge_margin)
        mask[:2] = False
        mask[-2:] = False
    res = R[mask]
    coords = x[mask]
    max_abs = float(np.max(np.abs(res))) if res.size else 0.0
    return EomResidualReport(delta, max_abs, res, coords)
