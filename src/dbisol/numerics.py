"""Small vectorized quadrature and root-finding helpers.

Composite Gauss-Legendre rules are used for cumulative integrals of smooth
integrands (the inverse profile maps are arranged to be smooth by endpoint
substitutions), and plain bisection is used wherever a monotone function has
to be inverted for a whole array of targets at once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(deg: int) -> tuple[np.ndarray, np.ndarray]:
    if deg not in _GL_CACHE:
        _GL_CACHE[deg] = np.polynomial.legendre.leggauss(deg)
    return _GL_CACHE[deg]


class CumulativeIntegral:
    """Prefix integral of f on [a, b] over a uniform segment mesh.

    prefix[j] approximates the integral of f from a to edges[j].  Segment
    integrals use a fixed Gauss-Legendre rule, so the result is accurate to
    machine precision for analytic integrands and fully deterministic.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 segments: int = 1500, deg: int = 12):
        self.f = f
        self.a = float(a)
        self.b = float(b)
        self.deg = deg
        x, w = _gl_nodes(deg)
        self.edges = np.linspace(self.a, self.b, segments + 1)
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
        x, w = _gl_nodes(self.deg)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[None, :] + half[None, :] * x[:, None]
        return half * (self.f(nodes) * w[:, None]).sum(axis=0)

    def invert(self, targets: np.ndarray, iters: int = 55) -> np.ndarray:
        """Solve prefix-integral(t) = target for each target (increasing f >= 0)."""
        targets = np.asarray(targets, dtype=float)
        targets = np.clip(targets, 0.0, self.total)
        j = np.clip(np.searchsorted(self.prefix, targets) - 1, 0, len(self.edges) - 2)
        lo = self.edges[j].copy()
        hi = self.edges[j + 1].copy()
        base = self.prefix[j]
        start = self.edges[j]
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            val = base + self.partial(start, mid)
            go_up = val < targets
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
        return 0.5 * (lo + hi)


def bisect_monotone(f: Callable[[np.ndarray], np.ndarray], targets: np.ndarray,
                    lo: float, hi: float, increasing: bool, iters: int = 60) -> np.ndarray:
    """Invert a monotone scalar function for an array of targets by bisection."""
    targets = np.asarray(targets, dtype=float)
    a = np.full(targets.shape, float(lo))
    b = np.full(targets.shape, float(hi))
    for _ in range(iters):
        mid = 0.5 * (a + b)
        val = f(mid)
        below = (val < targets) if increasing else (val > targets)
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(f: Callable[[float], float], a: float, b: float,
               tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [a, b]."""
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
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
