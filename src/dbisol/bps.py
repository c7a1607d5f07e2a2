"""First-order reduction of the static problem.

The static energy density K(B0) + mu^2 V depends on the field only through
the charge density B0 and the potential, so the second-order equations
integrate once to the first-order law B0 K'(B0) - K(B0) = mu^2 V, an
algebraic relation B0 = W(field).  The kinetic law (`model.KineticLaw`)
solves it in closed form, in units of U_B as a function of V and
sigma = beta^2 / mu^2 alone (`KineticLaw.density`), so a caller that needs V
anyway evaluates it once.  This module checks a profile
against the one Euler-Lagrange equation of every chart and law by a
finite-difference residual, kept a margin of whole samples away from the
support edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DbisolError

__all__ = ["EomResidualReport", "eom_residual"]


# 100 interior samples plus the two at each end that lack a full stencil
EOM_MIN_SAMPLES = 104


@dataclass(frozen=True)
class EomResidualReport:
    grid_spacing: float
    max_abs_residual: float
    residuals: np.ndarray
    coordinates: np.ndarray
    rounding_floor: float

    def __post_init__(self):
        self.residuals.setflags(write=False)
        self.coordinates.setflags(write=False)


def eom_residual(profile, *, margin: int = 5) -> EomResidualReport:
    """Central-difference residual of the second-order (Euler-Lagrange) equation.

    With b = -J df/dX in the unit-free X = x / length_unit, J the chart's
    Jacobian, the energy density K(B0) + mu^2 V(f) has the one equation of
    every chart and law, in units of mu^2:

        R = -J d/dX (K'(B0) / U_P) - V'(f) = 0.

    Evaluated on interior samples only: full stencils, inside the support of
    the field (above 1e-12), and at least margin samples away from any support
    edge, where the derivative of a compact profile degenerates.  The margin
    is counted by index, so that no rounding of the coordinates decides.  The
    profile needs at least EOM_MIN_SAMPLES samples.  On the first-order law
    the maximum residual decays like the square of the spacing, down to
    rounding_floor = eps/step^2 (step in X): f's rounding, differenced.
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

    chart = profile.sector.chart
    step = delta / chart.length_unit(params)
    inner = f[2:-2]
    R = np.full_like(f, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        b = -chart.jacobian(f[1:-1]) * (f[2:] - f[:-2]) / (2.0 * step)
        flux = params.kinetic_law.kinetic_slope(b, params.sigma)
        # V' may diverge at the vacuum padding, which the support mask drops
        dV = np.asarray(profile.potential.derivative(inner), dtype=float)
        R[2:-2] = -chart.jacobian(inner) * (flux[2:] - flux[:-2]) / (2.0 * step) - dV

    support = f > 1e-12
    # distance to the nearest support edge, counting domain endpoints
    idx = np.arange(len(x))
    in_support = idx[support]
    mask = np.zeros(len(x), dtype=bool)
    if in_support.size:
        first, last = in_support[0], in_support[-1]
        mask = support & ~np.isnan(R) & (idx - first >= margin) & (last - idx >= margin)
        mask[:2] = False
        mask[-2:] = False
    res = R[mask]
    coords = x[mask]
    max_abs = float(np.max(np.abs(res))) if res.size else 0.0
    return EomResidualReport(delta, max_abs, res, coords, float(np.finfo(float).eps / step ** 2))
