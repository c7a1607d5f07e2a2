"""Small vectorized quadrature and root-finding helpers.

Every quadrature rule of the package lives here.  A fixed-level tanh-sinh
rule computes the definite integrals (energies, target-space averages),
whose integrands behave like algebraic powers at the vacuum endpoint.
Composite Gauss-Legendre rules are used for the cumulative integrals of the
inverse profile maps, which need prefix integrals and are arranged to be
smooth by endpoint substitutions; they are inverted by a Newton iteration
bracketed by the mesh segment, since the derivative of a prefix integral is
the integrand itself.  Plain bisection inverts the other monotone functions
(closed-form profiles, the bound weights' root) for whole arrays of targets.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_TS_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
# tanh-sinh step 2^-6: every energy and average lands within 1e-15 of a
# 20-digit reference over the whole coupling range
_TS_LEVEL = 6
# cap on the Newton steps of CumulativeIntegral.invert; the profile
# integrands converge in 1-2
_NEWTON_STEPS = 8


def _gl_nodes(deg: int) -> tuple[np.ndarray, np.ndarray]:
    if deg not in _GL_CACHE:
        _GL_CACHE[deg] = np.polynomial.legendre.leggauss(deg)
    return _GL_CACHE[deg]


def _ts_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh nodes on [0, 1] as distances from both ends, with weights.

    Node k sits at t = k h, h = 2^-level, |t| <= 6, i.e. at the fraction
    1 / (1 + exp(-2u)) of the interval with u = (pi/2) sinh t.  The distances
    from the lower and the upper end are formed separately, so neither loses
    digits to cancellation; the outermost nodes are about 1e-275 from the ends.
    """
    if level not in _TS_CACHE:
        h = 2.0 ** -level
        t = h * np.arange(-6 * 2 ** level, 6 * 2 ** level + 1)
        u = 0.5 * math.pi * np.sinh(t)
        lo = 1.0 / (1.0 + np.exp(-2.0 * u))
        hi = 1.0 / (1.0 + np.exp(2.0 * u))
        _TS_CACHE[level] = (lo, hi, h * math.pi * np.cosh(t) * lo * hi)
    return _TS_CACHE[level]


def tanh_sinh(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integral of f over (a, b) by the tanh-sinh rule (Takahasi and Mori, 1974).

    f is called once, on the array of nodes.  The nodes crowd double
    exponentially towards both ends, so algebraic endpoint behaviour (a
    bounded power, or an integrable singularity at an end at zero) converges
    to machine precision.  f is never evaluated at a or b: nodes that round
    onto an end are dropped.
    """
    lo, hi, w = _ts_nodes(_TS_LEVEL)
    span = b - a
    x = np.where(lo <= 0.5, a + span * lo, b - span * hi)
    keep = (x > a) & (x < b)
    return span * float(np.dot(w[keep], f(x[keep])))


class CumulativeIntegral:
    """Prefix integral of f on [a, b] over a uniform mesh of 1500 segments.

    prefix[j] approximates the integral of f from a to edges[j].  Segment
    integrals use a fixed 12-point Gauss-Legendre rule, so the result is
    accurate to machine precision for analytic integrands and fully
    deterministic.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
        self.f = f
        self.a = float(a)
        self.b = float(b)
        x, w = _gl_nodes(12)
        self.edges = np.linspace(self.a, self.b, 1501)
        h = self.edges[1] - self.edges[0]
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        nodes = mids[:, None] + 0.5 * h * x[None, :]
        seg = 0.5 * h * (f(nodes) * w[None, :]).sum(axis=1)
        self.prefix = np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def total(self) -> float:
        return float(self.prefix[-1])

    def partial(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Integral of f over (lo_i, hi_i), vectorized."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        x, w = _gl_nodes(12)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[None, :] + half[None, :] * x[:, None]
        return half * (self.f(nodes) * w[:, None]).sum(axis=0)

    def invert(self, targets: np.ndarray) -> np.ndarray:
        """Solve prefix-integral(t) = target for each target (f >= 0).

        Safeguarded Newton iteration inside the mesh segment that holds each
        target, started from linear interpolation of the prefix.  The
        derivative of the prefix integral is f itself.  Each residual shrinks
        the segment bracket by its sign; a step that is not finite or leaves
        the closed bracket falls back to the bracket midpoint.  The loop
        stops after a step that moves no sample by more than 1e-6 of a
        segment: the next correction would be of order 1e-12 of a segment,
        below the rounding noise of the residual.  A step costs 13
        evaluations of f per target (55 bisection steps took 660), and the
        profile integrands take 1-2 steps.  Targets 0 and total map exactly
        to a and b, and f is not evaluated for them.
        """
        targets = np.clip(np.asarray(targets, dtype=float), 0.0, self.total)
        out = np.where(targets <= 0.0, self.a, self.b)
        inner = (targets > 0.0) & (targets < self.total)
        out[inner] = self._newton(targets[inner])
        return out

    def _newton(self, targets: np.ndarray) -> np.ndarray:
        # 0 < target < total, so prefix[j] < target <= prefix[j + 1]
        j = np.searchsorted(self.prefix, targets) - 1
        lo = self.edges[j]
        hi = self.edges[j + 1]
        start = lo
        base = self.prefix[j]
        t = lo + (targets - base) / (self.prefix[j + 1] - base) * (hi - lo)
        tol = 1e-6 * (self.b - self.a) / (len(self.edges) - 1)
        # a segment end may hold 0*inf (compacton chart) or 1/0 (where B0
        # rounds to 0); the bracket and the midpoint fallback absorb it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_NEWTON_STEPS):
                r = base + self.partial(start, t) - targets
                lo = np.where(r < 0.0, t, lo)
                hi = np.where(r > 0.0, t, hi)
                tn = t - r / self.f(t)
                ok = np.isfinite(tn) & (lo <= tn) & (tn <= hi)
                tn = np.where(ok, tn, 0.5 * (lo + hi))
                moved = np.max(np.abs(tn - t), initial=0.0)
                t = tn
                if moved <= tol:
                    break
        return t


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
