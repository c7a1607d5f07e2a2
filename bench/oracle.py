"""High-precision reference values, written apart from the program.

Every formula here is taken from the paper's first-order reduction and
coded from scratch in mpmath; nothing is imported from dbisol.  The
workloads compare the program's outputs with these values.

Conventions (see the package README): planar chart h in [0, 1] with the
vacuum at 0, 3-D chart xi in [0, pi] with the vacuum at 0.  The charge
density on the first-order law is

    DBI:    B0 = sqrt2 beta sqrt(e (2 + e)) / (1 + e),  e = mu^2 V / beta^2
    power:  B0 = (mu^2 V / (2 a - 1))^(1 / (2 a))

and the inverse-map Jacobian |d coordinate / d field| is
|n| / (2 pi B0) (planar) or sqrt2 beta sin^2(xi) / B0 (3-D).
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 20
# where a profile that never reaches the vacuum is cut off; mirrors the
# program's default GridSpec.field_floor
FIELD_FLOOR = 1e-9
# the oracle's own quadrature error must stay this far below the checks'
# tolerances (1e-9 relative); quad reports an error estimate per call
_OWN_TOL = 1e-13


def _mpf(x):
    return mp.mpf(repr(float(x))) if isinstance(x, float) else mp.mpf(x)


def potential(tag: str):
    """V as an mpmath function of the field for a potential tag."""
    if tag.startswith("old:") or tag.startswith("power:"):
        a = _mpf(float(tag.split(":", 1)[1]))
        return lambda s: s ** a
    if tag == "standard":
        return lambda s: 2 * mp.sin(s / 2) ** 2
    if tag == "bps":
        return _bps_v
    raise ValueError(f"unknown potential {tag!r}")


def _bps_v(s):
    # (xi - cos xi sin xi) / 2 = sum_{k>=1} (-1)^(k+1) 4^k xi^(2k+1) / (2 (2k+1)!)
    if s < mp.mpf("0.5"):
        total = mp.mpf(0)
        term = s
        k = 0
        while True:
            k += 1
            term = term * 4 * s * s / ((2 * k) * (2 * k + 1))
            piece = term if k % 2 else -term
            total += piece
            if abs(term) < abs(total) * mp.mpf(10) ** (-DPS - 5):
                break
        return total / 2
    return (s - mp.cos(s) * mp.sin(s)) / 2


class Soliton:
    """Reference quantities of one first-order soliton."""

    def __init__(self, sector: str, tag: str, beta: float, mu: float, n: int,
                 alpha_k: float | None = None):
        self.sector = sector
        self.beta = _mpf(beta)
        self.mu = _mpf(mu)
        self.n = int(n)
        self.alpha_k = None if alpha_k is None else _mpf(alpha_k)
        self.V = potential(tag)
        self.anti = mp.mpf(1) if sector == "baby" else +mp.pi
        exponent = float(tag.split(":", 1)[1]) if ":" in tag else {"standard": 2.0,
                                                                   "bps": 3.0}[tag]
        self.density_exponent = exponent / 2.0 if alpha_k is None else exponent / (2.0 * alpha_k)
        self.tail = localization(sector, self.density_exponent)
        self.floor = mp.mpf(0) if self.tail == "compacton" else _mpf(FIELD_FLOOR)

    def b0(self, s):
        v = self.V(s)
        if self.alpha_k is None:
            e = self.mu ** 2 * v / self.beta ** 2
            return mp.sqrt(2) * self.beta * mp.sqrt(e * (2 + e)) / (1 + e)
        return (self.mu ** 2 * v / (2 * self.alpha_k - 1)) ** (1 / (2 * self.alpha_k))

    def jacobian(self, s):
        if self.sector == "baby":
            return abs(self.n) / (2 * mp.pi * self.b0(s))
        return mp.sqrt(2) * self.beta * mp.sin(s) ** 2 / self.b0(s)

    def coordinates(self, fields) -> list[float]:
        """z(f) = integral of the Jacobian from f to the anti-vacuum value, for each f.

        The integral is accumulated piece by piece between the sorted field
        values, so the whole list costs about as much as one extent.
        """
        order = sorted(range(len(fields)), key=lambda i: -float(fields[i]))
        out = [0.0] * len(fields)
        total = mp.mpf(0)
        upper = self.anti
        for i in order:
            f = _mpf(fields[i])
            if f < upper:
                total += self._piece(f, upper)
                upper = f
            out[i] = float(total)
        return out

    def extent(self) -> float:
        """Compacton radius, or the coordinate where the field reaches its floor."""
        return self.coordinates([self.floor])[0]

    def _piece(self, lo, hi):
        if self.tail == "compacton":
            # f = t^p with p = 1/(threshold - a) cancels the Jacobian's
            # power-law growth at the vacuum, leaving a bounded integrand
            threshold = 1.0 if self.sector == "baby" else 3.0
            p = mp.mpf(1) / (_mpf(threshold) - _mpf(self.density_exponent))
            return _quad(lambda t: self.jacobian(t ** p) * p * t ** (p - 1),
                         [lo ** (1 / p), hi ** (1 / p)])
        # log variable: the Jacobian grows like a power of 1/f at the vacuum
        a, b = mp.log(lo), mp.log(hi)
        pts = mp.linspace(a, b, max(2, int(math.ceil(float(b - a) / 6.0)) + 1))
        return _quad(lambda u: self.jacobian(mp.exp(u)) * mp.exp(u), pts)

    def energy(self) -> float:
        """|n| times the energy per charge from the target-space average."""
        if self.alpha_k is None:
            mu, beta = self.mu, self.beta

            def root(s):
                v = self.V(s)
                return mp.sqrt(mu ** 2 * v ** 2 / beta ** 2 + 2 * v)
            avg = _average(self.sector, root, self.anti)
            chart = 1 if self.sector == "baby" else mp.mpf(1) / 3
            return float(abs(self.n) * mu / mp.sqrt(2) * chart * avg)
        a = self.alpha_k
        avg = _average(self.sector, lambda s: self.V(s) ** (1 - 1 / (2 * a)), self.anti)
        per = 2 * a * ((2 * a - 1) / self.mu ** 2) ** (1 / (2 * a) - 1) * avg
        return float(abs(self.n) * per)


def _average(sector: str, fn, anti):
    if sector == "baby":
        return _quad(fn, [0, mp.mpf("0.25"), mp.mpf("0.5"), 1])
    return _quad(lambda s: 2 / mp.pi * mp.sin(s) ** 2 * fn(s), [0, anti / 4, anti / 2, anti])


def _quad(fn, pts):
    with mp.workdps(DPS):
        val, err = mp.quad(fn, pts, error=True)
        if not err <= _OWN_TOL * max(abs(val), mp.mpf(1e-300)):
            raise ArithmeticError(f"oracle quadrature unresolved: {val} +- {err}")
        return val


def localization(sector: str, density_exponent: float) -> str:
    """Tail class from the power with which B0 vanishes at the vacuum.

    The inverse-map integrand behaves like f^-a (planar) or f^(2-a) (3-D),
    so the profile ends at a finite radius when a < 1 (planar) or a < 3
    (3-D), decays exponentially at equality and as a power above.
    """
    threshold = 1.0 if sector == "baby" else 3.0
    if density_exponent < threshold:
        return "compacton"
    if density_exponent == threshold:
        return "exponential"
    return "power-law"


def baby_old1_closed(beta: float, mu: float, n: int) -> float:
    """Closed-form energy of the planar compacton of V = h (the paper's case)."""
    beta, mu = _mpf(beta), _mpf(mu)
    v = 8 * mp.pi ** 2 * mu ** 4 / beta ** 2
    xt = mp.sqrt(1 / (2 * beta ** 2) + 1 / mu ** 2) / (2 * mp.pi)
    sv = mp.sqrt(v)
    return float(abs(n) * mp.pi * beta ** 2 * (xt * mp.sqrt(1 + v * xt ** 2) - mp.asinh(sv * xt) / sv))


def taylor_coefficients(order: int) -> list:
    """c_k of 1 - sqrt(1 - x) = sum_k c_k x^k, k = 1..order."""
    return [-mp.binomial(mp.mpf(1) / 2, k) * (-1) ** k for k in range(1, order + 1)]


def bound_constant(order: int) -> float:
    """C_N = 3^(3/2) sum c_k x^k / x^(3/2), x the root of sum k c_k x^k / sum c_k x^k = 3/2.

    The left side of the root equation increases with x from 1 (x -> 0) to
    N (x -> infinity), so bisection on a bracket that grows until it holds
    the root always converges.
    """
    with mp.workdps(DPS):
        c = taylor_coefficients(order)

        def mean_power(x):
            terms = [ck * x ** (k + 1) for k, ck in enumerate(c)]
            return sum((k + 1) * t for k, t in enumerate(terms)) / sum(terms)

        lo, hi = mp.mpf("1e-6"), mp.mpf(1)
        while mean_power(hi) < 1.5:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if mean_power(mid) < 1.5:
                lo = mid
            else:
                hi = mid
        x = (lo + hi) / 2
        total = sum(ck * x ** (k + 1) for k, ck in enumerate(c))
        return float(3 ** mp.mpf(1.5) * total / x ** mp.mpf(1.5))


def self_test() -> None:
    """Check the oracle against values the paper states in closed form."""
    c3 = bound_constant(3)
    if abs(c3 - 3.5) > 1e-14:
        raise AssertionError(f"oracle C_3 = {c3!r}, the paper gives 7/2")
    c2 = bound_constant(2)
    if abs(c2 - 1.5 * math.sqrt(3.0)) > 1e-14:
        raise AssertionError(f"oracle C_2 = {c2!r}, expected 3^(3/2)/2")
    sol = Soliton("baby", "old:1", 1.0, 1.0, 1)
    closed = baby_old1_closed(1.0, 1.0, 1)
    paper = math.sqrt(1.5) - math.log(2.0 + math.sqrt(3.0)) / (2.0 * math.sqrt(2.0))
    if abs(closed - paper) > 1e-14 or abs(sol.energy() - closed) > 1e-14 * closed:
        raise AssertionError(f"oracle planar old:1 energy {sol.energy()!r} vs closed {paper!r}")
    radius = math.sqrt(1.5) / (2.0 * math.pi)
    if abs(sol.extent() - radius) > 1e-14 * radius:
        raise AssertionError(f"oracle planar old:1 radius {sol.extent()!r} vs {radius!r}")
