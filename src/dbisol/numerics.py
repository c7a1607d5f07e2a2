"""Small vectorized quadrature and root-finding helpers.

Every quadrature rule of the package lives here.  A fixed-level tanh-sinh
rule computes the definite integrals (energies, target-space averages),
whose integrands behave like algebraic powers at the vacuum endpoint.
A composite 12-point Gauss-Legendre rule computes the cumulative integrals
of the inverse profile maps, smooth and positive in the log of the field,
on SEGMENTS uniform segments, evaluating the integrand once, at the nodes.
The inverse is a Newton iteration on each segment's Legendre interpolant
through its node values, bracketed by the segment, since the derivative of
a prefix integral is the integrand itself.  Plain bisection inverts the
other monotone functions (closed-form profiles, the bound weights' root) for
whole arrays of targets.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# tanh-sinh step 2^-6: every energy and average lands within 1e-15 of a
# 20-digit reference over the whole coupling range
_TS_LEVEL = 6
# segments of a CumulativeIntegral mesh: with 500 every profile family
# matches the mpmath oracle to 1e-12
SEGMENTS = 500
# Gauss-Legendre nodes per segment
_GL_POINTS = 12
# cap on the Newton steps of CumulativeIntegral.invert; the profile
# integrands take 1 to 3, a few targets near a 3-D core 4 or 5
_NEWTON_STEPS = 8


@functools.cache
def _segment_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes x and weights w on [-1, 1], and two maps from node values.

    Row n of the interpolation map gives the n-th Legendre coefficient of
    the interpolant through the 12 node values, (2n + 1)/2 sum_k w_k P_n(x_k) y_k,
    exact because the rule integrates P_n times a degree-11 polynomial
    exactly.  The integral map gives the 13 coefficients of the
    interpolant's integral from -1.
    """
    # numpy.polynomial is imported on first use: commands that solve no
    # profile never load it
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(_GL_POINTS)
    n = np.arange(_GL_POINTS)
    interpolate = (n[:, None] + 0.5) * legendre.legvander(x, _GL_POINTS - 1).T * w[None, :]
    return x, w, interpolate, legendre.legint(interpolate, lbnd=-1.0)


@functools.cache
def _ts_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh nodes on [0, 1] as distances from both ends, with weights.

    Node k sits at t = k h, h = 2^-_TS_LEVEL, |t| <= 6, i.e. at the fraction
    1 / (1 + exp(-2u)) of the interval with u = (pi/2) sinh t.  The distances
    from the lower and the upper end are formed separately, so neither loses
    digits to cancellation; the outermost nodes are about 1e-275 from the ends.
    """
    h = 2.0 ** -_TS_LEVEL
    t = h * np.arange(-6 * 2 ** _TS_LEVEL, 6 * 2 ** _TS_LEVEL + 1)
    u = 0.5 * math.pi * np.sinh(t)
    lo = 1.0 / (1.0 + np.exp(-2.0 * u))
    hi = 1.0 / (1.0 + np.exp(2.0 * u))
    return lo, hi, h * math.pi * np.cosh(t) * lo * hi


def tanh_sinh(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integral of f over (a, b) by the tanh-sinh rule (Takahasi and Mori, 1974).

    f is called once, on the array of nodes.  The nodes crowd double
    exponentially towards both ends, so algebraic endpoint behaviour (a
    bounded power, or an integrable singularity at an end at zero) converges
    to machine precision.  f is never evaluated at a or b: nodes that round
    onto an end are dropped.
    """
    lo, hi, w = _ts_nodes()
    span = b - a
    x = np.where(lo <= 0.5, a + span * lo, b - span * hi)
    keep = (x > a) & (x < b)
    return span * float(np.dot(w[keep], f(x[keep])))


def uniform_mesh(a: float, b: float) -> np.ndarray:
    """Edges of SEGMENTS equal segments of [a, b]."""
    return np.linspace(float(a), float(b), SEGMENTS + 1)


class CumulativeIntegral:
    """Prefix integral of f over a mesh, and its inverse.

    f is called once, on the 12 Gauss-Legendre nodes of every segment, and
    never again.  prefix[j] is the integral of f from edges[0] to edges[j]:
    the running sum of the segment integrals with the exact rounding error
    of each addition (TwoSum) added back, so it carries about one rounding
    in all, not one per segment.  Each segment keeps its degree-11
    interpolant through the node values in Legendre form, with the
    interpolant's integral from the segment start; the rule integrates
    degree 23 exactly, so the interpolant's integral over a whole segment is
    the segment integral, and the inverse is continuous across edges.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray):
        x, w, interpolate, integrate = _segment_rule()
        self.edges = np.asarray(edges, dtype=float)
        self._mid = 0.5 * (self.edges[:-1] + self.edges[1:])
        self._half = 0.5 * (self.edges[1:] - self.edges[:-1])
        values = f(self._mid[:, None] + self._half[:, None] * x[None, :])
        # Legendre coefficients in tau in [-1, 1] of the interpolant and of
        # its integral from the segment start, one column per segment, scaled
        # by the half-width: the integral in t and its tau derivative
        scaled = (self._half[:, None] * values).T
        self._slope = interpolate @ scaled
        self._integral = integrate @ scaled
        seg = self._half * (values @ w)
        run = np.cumsum(seg)
        prev = np.concatenate([[0.0], run[:-1]])
        # TwoSum: the exact error of prev + seg = run
        back = run - prev
        err = (prev - (run - back)) + (seg - back)
        self.prefix = np.concatenate([[0.0], run + np.cumsum(err)])

    @property
    def total(self) -> float:
        return float(self.prefix[-1])

    def invert(self, targets: np.ndarray) -> np.ndarray:
        """Solve prefix-integral(t) = target for each target (f >= 0).

        The result is relatively accurate only where f > 0 at the start of
        the target's segment: the stop rule below is absolute in the segment
        coordinate, and a Newton step from a flat start leaves the bracket.

        Safeguarded Newton iteration on the interpolant of the segment that
        holds each target, in the segment's own coordinate tau in [-1, 1].
        The residual is prefix[j] less the target plus the interpolant's
        integral from the segment start, and its derivative is the
        interpolant itself, both summed by Clenshaw's recurrence (numpy's
        legval); f is not called.  The start is tau = 2u - 1, u the fraction
        of the segment integral below the target.  Each residual shrinks the
        bracket [-1, 1] by its sign; a step that is not finite or leaves the
        closed bracket falls back to the bracket midpoint.  A target's
        iteration stops after a step that moves it by at most 1e-6 of its
        segment: the next correction would be of order 1e-12 of a
        segment, below the rounding noise of the residual.  Targets 0 and
        total map exactly to the ends of the mesh.
        """
        targets = np.clip(np.asarray(targets, dtype=float), 0.0, self.total)
        out = np.where(targets <= 0.0, self.edges[0], self.edges[-1])
        inner = (targets > 0.0) & (targets < self.total)
        out[inner] = self._newton(targets[inner])
        return out

    def _newton(self, targets: np.ndarray) -> np.ndarray:
        # 0 < target < total, so prefix[j] < target <= prefix[j + 1]
        legval = np.polynomial.legendre.legval
        j = np.searchsorted(self.prefix, targets) - 1
        gap = self.prefix[j] - targets
        tau = -2.0 * gap / (self.prefix[j + 1] - self.prefix[j]) - 1.0
        lo = np.full_like(tau, -1.0)
        hi = np.ones_like(tau)
        todo = np.arange(tau.size)
        # the interpolant may vanish inside a segment or at its ends; the
        # bracket and the fallback absorb the division
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_NEWTON_STEPS):
                t = tau[todo]
                segment = j[todo]
                r = gap[todo] + legval(t, self._integral[:, segment], tensor=False)
                slope = legval(t, self._slope[:, segment], tensor=False)
                a = np.where(r < 0.0, t, lo[todo])
                b = np.where(r > 0.0, t, hi[todo])
                tn = t - r / slope
                tn = np.where(np.isfinite(tn) & (a <= tn) & (tn <= b), tn, 0.5 * (a + b))
                tau[todo], lo[todo], hi[todo] = tn, a, b
                # a step of at most 1e-6 of the segment ends a target's iteration
                todo = todo[np.abs(tn - t) > 2e-6]
                if not todo.size:
                    break
        return self._mid[j] + self._half[j] * tau


def bisect_monotone(f: Callable[[np.ndarray], np.ndarray], targets: np.ndarray,
                    lo: float, hi: float, increasing: bool) -> np.ndarray:
    """Invert a monotone scalar function for an array of targets by 60 bisection steps."""
    targets = np.asarray(targets, dtype=float)
    a = np.full(targets.shape, float(lo))
    b = np.full(targets.shape, float(hi))
    for _ in range(60):
        mid = 0.5 * (a + b)
        val = f(mid)
        below = (val < targets) if increasing else (val > targets)
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# bracket width at which golden_max stops
_GOLDEN_TOL = 1e-13


def golden_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [a, b]."""
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= _GOLDEN_TOL:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(_GOLDEN_TOL / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    if yc > yd:
        return c, yc
    return d, yd
