"""mpmath reference values for first-order solitons, written apart from dbisol.

Nothing here imports the package or reuses one of its formulas: every
quantity is coded in mpmath from the paper's first-order reduction, so a
test that compares dbisol with this module compares two separate codes.
tests/test_mp_oracle.py checks the module itself against the closed forms
the paper states.

Charts: the planar field h in [0, 1] on x = r^2 / 2, the 3-D field xi in
[0, pi] on z = 2 sqrt2 beta pi^2 r^3 / |n|; the vacuum is at field 0.  On
the first-order law, with e = mu^2 V / beta^2, the charge density and the
kinetic term are

    DBI:    B0 = sqrt2 beta sqrt(e (2 + e)) / (1 + e),
            K = beta^2 (1 - sqrt(1 - B0^2 / (2 beta^2)))
    power:  B0 = (mu^2 V / (2 a - 1))^(1 / (2 a)),   K = (B0^2)^a

and the profile runs down from the anti-vacuum value with
|d coordinate / d field| = J, the inverse-map Jacobian:

    planar: J = |n| / (2 pi B0)          3-D: J = sqrt2 beta sin^2 xi / B0

The energy is 2 pi int (K + mu^2 V) dx planar and, since
4 pi r^2 dr = sqrt2 |n| dz / (3 pi beta), sqrt2 |n| / (3 pi beta)
int (K + mu^2 V) dz in 3-D; each becomes a field-space integral through J.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

DPS = 30
# the oracle's own quadrature error stays this far below every check that
# uses it (1e-12 relative and tighter); mp.quad estimates it on each call
OWN_TOL = mp.mpf("1e-18")


def _precise(fn):
    """Run fn, and whatever it calls, at DPS digits."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with mp.workdps(DPS):
            return fn(*args, **kwargs)
    return run


def _quad(fn, pts):
    val, err = mp.quad(fn, pts, error=True)
    if not err <= OWN_TOL * max(abs(val), mp.mpf("1e-300")):
        raise ArithmeticError(f"oracle quadrature unresolved: {val} +- {err}")
    return val


def _half_volume(xi):
    """(xi - sin xi cos xi) / 2, from its Taylor series where the difference cancels."""
    if xi >= mp.mpf("0.5"):
        return (xi - mp.sin(xi) * mp.cos(xi)) / 2
    # (2 xi - sin 2 xi) / 4 = sum_{k>=1} (-1)^(k+1) (2 xi)^(2k+1) / (4 (2k+1)!)
    term = 2 * xi
    total = mp.mpf(0)
    k = 0
    while True:
        k += 1
        term *= -(2 * xi) ** 2 / ((2 * k) * (2 * k + 1))
        total -= term
        if abs(term) <= abs(total) * mp.eps:
            return total / 4


def potential(tag: str):
    """(V, vacuum exponent) for a potential tag: old:A, power:A, standard or bps."""
    if tag.startswith(("old:", "power:")):
        a = mp.mpf(float(tag.split(":", 1)[1]))
        return (lambda s: s ** a), a
    if tag == "standard":
        return (lambda s: 2 * mp.sin(s / 2) ** 2), mp.mpf(2)
    if tag == "bps":
        return _half_volume, mp.mpf(3)
    raise ValueError(f"unknown potential {tag!r}")


def kinetic(b0, beta, alpha_k=None):
    """K(B0): the DBI square root when alpha_k is None, else (B0^2)^alpha_k."""
    if alpha_k is None:
        # 1 - sqrt(1 - r) = -expm1(log1p(-r) / 2), free of cancellation
        return -beta ** 2 * mp.expm1(mp.log1p(-b0 ** 2 / (2 * beta ** 2)) / 2)
    return (b0 ** 2) ** alpha_k


class Soliton:
    """Reference quantities of one first-order soliton.

    sector is "baby" (planar) or "skyrme" (3-D); alpha_k None is the DBI law.
    """

    @_precise
    def __init__(self, sector: str, tag: str, beta: float, mu: float, n: int,
                 alpha_k: float | None = None):
        if sector not in ("baby", "skyrme"):
            raise ValueError(f"unknown sector {sector!r}")
        self.planar = sector == "baby"
        # mpf of a double is exact: the oracle sees the couplings the program sees
        self.beta = mp.mpf(beta)
        self.mu = mp.mpf(mu)
        self.n = abs(int(n))
        self.alpha_k = None if alpha_k is None else mp.mpf(alpha_k)
        self.V, exponent = potential(tag)
        self.anti = mp.mpf(1) if self.planar else +mp.pi
        # B0 vanishes like field^d at the vacuum, so J does like field^(w - d)
        # with w = 0 planar and 2 in 3-D: the radius is finite for d < w + 1
        d = exponent / 2 if self.alpha_k is None else exponent / (2 * self.alpha_k)
        self._gap = (1 if self.planar else 3) - d

    def b0(self, s):
        v = self.V(s)
        if self.alpha_k is None:
            e = self.mu ** 2 * v / self.beta ** 2
            return mp.sqrt(2) * self.beta * mp.sqrt(e * (2 + e)) / (1 + e)
        return (self.mu ** 2 * v / (2 * self.alpha_k - 1)) ** (1 / (2 * self.alpha_k))

    def kinetic(self, b0):
        return kinetic(b0, self.beta, self.alpha_k)

    def jacobian(self, s):
        if self.planar:
            return self.n / (2 * mp.pi * self.b0(s))
        return mp.sqrt(2) * self.beta * mp.sin(s) ** 2 / self.b0(s)

    def _piece(self, lo, hi):
        """int_lo^hi J, for 0 <= lo < hi."""
        if lo == 0:
            # field = t^p with p (w + 1 - d) = 1 cancels J's power at the vacuum
            p = 1 / self._gap
            return _quad(lambda t: self.jacobian(t ** p) * p * t ** (p - 1),
                         [0, hi ** (1 / p)])
        # in log field J's power-law growth at the vacuum is a slow exponential
        a, b = mp.log(lo), mp.log(hi)
        pts = mp.linspace(a, b, max(2, int(math.ceil(float(b - a))) + 1))
        return _quad(lambda u: self.jacobian(mp.exp(u)) * mp.exp(u), pts)

    @_precise
    def coordinates(self, fields) -> list:
        """Coordinate at which the profile takes each field value (mpf).

        The integral of J from the anti-vacuum value down is accumulated
        between the sorted fields, so a list costs about as much as one value.
        """
        order = sorted(range(len(fields)), key=lambda i: -mp.mpf(fields[i]))
        out = [None] * len(fields)
        total, upper = mp.mpf(0), self.anti
        for i in order:
            f = mp.mpf(fields[i])
            if not 0 <= f <= self.anti:
                raise ValueError(f"field {fields[i]!r} outside the chart")
            if f < upper:
                total += self._piece(f, upper)
                upper = f
            out[i] = total
        return out

    @_precise
    def fields(self, coords, guesses) -> list:
        """Field at each coordinate, by Newton's method on coordinate(field).

        guesses seed the iteration (each inside the chart, off the vacuum);
        findroot's own check rejects a root that does not solve the equation.
        """
        out = []
        for x, g, zg in zip(coords, guesses, self.coordinates(guesses)):
            g = mp.mpf(g)
            x = mp.mpf(x)
            out.append(mp.findroot(lambda f: zg + self._signed(f, g) - x, g,
                                   solver="newton", df=lambda f: -self.jacobian(f)))
        return out

    def _signed(self, f, g):
        return self._piece(f, g) if f < g else -self._piece(g, f) if f > g else mp.mpf(0)

    @_precise
    def radius(self):
        """Compacton radius: the coordinate of the vacuum."""
        if self._gap <= 0:
            raise ValueError("the profile never reaches the vacuum")
        return self.coordinates([0])[0]

    @_precise
    def energy(self):
        """Total energy from the field-space integral of (K + mu^2 V) J."""
        def integrand(s):
            b0 = self.b0(s)
            if b0 == 0:
                return mp.mpf(0)
            return (self.kinetic(b0) + self.mu ** 2 * self.V(s)) * self.jacobian(s)
        prefactor = 2 * mp.pi if self.planar else mp.sqrt(2) * self.n / (3 * mp.pi * self.beta)
        return prefactor * _quad(integrand, [0, self.anti / 4, self.anti / 2, self.anti])

    @_precise
    def average_energy(self):
        """Total energy from the target-space average of the simplified integrand.

        On the law, (K + mu^2 V) / B0 reduces to (mu / sqrt2) sqrt(2 V + mu^2 V^2 / beta^2)
        (DBI) or 2a ((2a - 1) / mu^2)^(1/(2a) - 1) V^(1 - 1/(2a)) (power), and
        the 3-D energy is 1/3 of the average under the unit measure
        (2 / pi) sin^2 xi on [0, pi].
        """
        if self.alpha_k is None:
            def fn(s):
                v = self.V(s)
                return self.mu / mp.sqrt(2) * mp.sqrt(2 * v + self.mu ** 2 * v ** 2 / self.beta ** 2)
        else:
            a = self.alpha_k

            def fn(s):
                return 2 * a * ((2 * a - 1) / self.mu ** 2) ** (1 / (2 * a) - 1) \
                    * self.V(s) ** (1 - 1 / (2 * a))
        cuts = [0, self.anti / 4, self.anti / 2, self.anti]
        if self.planar:
            return self.n * _quad(fn, cuts)
        return self.n / 3 * _quad(lambda s: 2 / mp.pi * mp.sin(s) ** 2 * fn(s), cuts)

