"""Topological energy bounds for the square-root model on the strain chart.

The energy density, truncated to N terms of its series in the sum of squared
strain eigenvalues, is bounded below by a multiple of the eigenvalue product
via two rounds of arithmetic-geometric mean inequalities.  The multiple is
maximized over the admissible weight simplex in closed form (the Lagrange
condition reduces to one monotone root find), proved exactly on the
equal-eigenvalue ray, certified pointwise by Monte Carlo sampling, and
checked against the one-dimensional minimization on that ray.

The proof.  By AM-GM, lam1 lam2 lam3 <= (s/3)^(3/2) with s the sum of the
squares, so for each s the smallest slack lies on the ray, where it equals
(s/3) r(u) with u = sqrt(s/3)/beta and r(u) = sum_k c_k 3^k u^(2k-2) - C u.
r is convex, so the two tangents at rationals a < u* < b with
r'(a) <= 0 <= r'(b) meet at a lower bound L of r, evaluated exactly in
fractions from the exact c_k and the double C.  L >= 0 proves the bound for
every triple and every beta; `optimize_bound` returns the largest double at
or below its closed form that passes.

The screen.  The slack of any triple splits as
(s/3) r(u) + (C/beta)((s/3)^(3/2) - lam1 lam2 lam3).  When the proof passed,
the first part is >= 0, and for a row whose raw uniforms spread by d the
second is at least (C/beta)(s/3)^(3/2)(sqrt(R) - 1)^2/(1 + R) with
R = 10^(12 d), the worst case putting the middle square at the mean of the
other two.  A row whose bound, less an allowance for the rounding of its
computed slack, exceeds the minimum slack already found on the ray points
cannot set the minimum; it is skipped before its `exp`.  The bound grows
with the largest uniform, so a spread row is skipped once that reaches a
level top.  The uniforms are multiples of 2^-53, so |u0 - u1| is exact and
at most the spread: no row with |u0 - u1| >= SCREEN_SPREAD and, unless
top <= 0, u0 >= top can pass, and a prefilter drops those rows first.  The
rows that pass go through the same affine step, `exp` and `_slack` as
without the screen, so the certified minimum is the same double.

The Monte-Carlo draws are cut into contiguous row chunks, scanned by at most
one worker per usable CPU, each chunk drawn by the worker's own copy of the
seeded generator advanced to the chunk's first draw; the minimum is exact, so
the certified slack is the same bit for bit whatever the number of CPUs.  A
chunk makes five numpy calls over all its rows (draw, subtract, abs,
compare, flatnonzero), each a point where the GIL may pass to another
worker; the rest work on its few candidates, and at beta = 1 almost no
chunk gets past their screen.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DbisolError, OptimizerError
from .numerics import bisect_monotone, golden_max

__all__ = [
    "BoundCertificate", "RayProof", "taylor_coefficients", "weights_for_alpha", "bound_constant",
    "optimize_bound", "prove_ray", "pointwise_slack", "verify_pointwise", "sharpness",
    "bound_energy", "compare_reference", "certify", "PAVLOVSKII_REFERENCE",
]

# hedgehog energy of the unit-charge soliton at beta = 1 in units of the
# squared energy scale, from the literature on the square-root model
PAVLOVSKII_REFERENCE = 8.0 * math.pi * 3.487


def taylor_coefficients(n: int) -> list[Fraction]:
    """Exact coefficients c_k of 1 - sqrt(1 - x) = sum c_k x^k, k = 1..n."""
    if n < 1:
        raise DbisolError("need at least one coefficient")
    coeffs = [Fraction(1, 2)]
    for k in range(1, n):
        coeffs.append(coeffs[-1] * Fraction(2 * k - 1, 2 * k + 2))
    return coeffs


@functools.cache
def _coeff_floats(n: int) -> np.ndarray:
    return np.array([float(c) for c in taylor_coefficients(n)])


def weights_for_alpha(alpha: float) -> tuple[float, float, float]:
    """Three-term weights parametrized by alpha in [1/2, 3/4]."""
    if not 0.5 <= alpha <= 0.75:
        raise DbisolError(f"alpha must lie in [1/2, 3/4], got {alpha}")
    return (alpha, 1.5 - 2.0 * alpha, alpha - 0.5)


def _check_weights(order: int, weights: Sequence[float], tol: float = 1e-10) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if len(w) != order:
        raise DbisolError(f"expected {order} weights, got {len(w)}")
    if np.any(w < -tol):
        raise DbisolError("weights must be non-negative")
    k = np.arange(1, order + 1)
    if abs(w.sum() - 1.0) > tol:
        raise DbisolError(f"weight sum constraint violated by {abs(w.sum() - 1.0):.2e}")
    if abs((k * w).sum() - 1.5) > tol:
        raise DbisolError(
            f"eigenvalue-product exponent constraint violated by {abs((k * w).sum() - 1.5):.2e}")
    return np.clip(w, 0.0, None)


def bound_constant(order: int, weights_or_alpha) -> float:
    """Constant C with truncated density >= (C/beta) * eigenvalue product.

    C = 3^(3/2) * prod_k (c_k / w_k)^(w_k); independent of beta (the 1/beta
    in the final bound carries all of the scale dependence).
    """
    if isinstance(weights_or_alpha, (int, float)):
        if order != 3:
            raise DbisolError("a scalar alpha parametrizes the three-term bound only")
        weights = weights_for_alpha(float(weights_or_alpha))
    else:
        weights = weights_or_alpha
    w = _check_weights(order, weights)
    c = _coeff_floats(order)
    # w log(c/w) -> 0 as w -> 0 (degenerate boundary weights)
    logs = np.where(w > 0, w * np.log(np.where(w > 0, c / np.where(w > 0, w, 1.0), 1.0)), 0.0)
    return float(3.0 ** 1.5 * math.exp(logs.sum()))


@dataclass(frozen=True)
class RayProof:
    """Exact lower bound of the ray function r from the tangents at two rationals.

    lower_bound is L rounded toward -inf; passed is L >= 0, which proves the
    bound for every eigenvalue triple and every beta.
    """
    tangent_points: tuple[str, str]
    lower_bound: float
    passed: bool


@dataclass(frozen=True)
class BoundCertificate:
    order: int
    weights: tuple[float, ...]
    alpha: float | None
    constant: float
    beta: float
    energy_scale: float = 1.0
    samples: int = 0
    min_slack: float | None = None
    proof: RayProof | None = None

    def validate(self, tol: float = 1e-12) -> None:
        _check_weights(self.order, self.weights, tol)


MAX_ORDER = 64
# x_2 = 4, x_3 = 4/3, and x_N decreases to 3/4, the root for the full series
_ROOT_BRACKET = (0.75, 4.0)


def _lagrange_root(order: int) -> float:
    """Root x of sum k c_k x^k / sum c_k x^k = 3/2, the moment condition.

    Solved as p(x) = sum_k (2k - 3) c_k x^(k-1) = 0: only the constant term
    of p is negative, so p increases for x > 0, and p(4) = 0 is exact at
    order 2.
    """
    k = np.arange(1, order + 1)
    p = (2 * k - 3) * _coeff_floats(order)

    def poly(x: np.ndarray) -> np.ndarray:
        return (p * x[:, None] ** (k - 1)).sum(axis=1)

    lo, hi = poly(np.array(_ROOT_BRACKET)).tolist()
    if not lo <= 0.0 <= hi:
        raise OptimizerError(f"moment condition {lo!r}..{hi!r} on {_ROOT_BRACKET} has no "
                             f"sign change at order {order}")
    return float(bisect_monotone(poly, np.zeros(1), *_ROOT_BRACKET, increasing=True)[0])


def _ray_function(order: int, constant: Fraction):
    """Exact r and r' at a rational u: r(u) = sum_k c_k 3^k u^(2k-2) - C u.

    The c_k 3^k share the denominator 2^(2N-1), so both polynomials in w = u^2
    are summed over integers by Horner, homogeneous in w's numerator and
    denominator, and divided once.
    """
    scale = 2 ** (2 * order - 1)
    a = [int(c * 3 ** (k + 1) * scale) for k, c in enumerate(taylor_coefficients(order))]
    da = [k * ak for k, ak in enumerate(a)][1:]

    def horner(coeffs: list[int], p: int, q: int) -> Fraction:
        acc, q_power = coeffs[-1], 1
        for ck in coeffs[-2::-1]:
            q_power *= q
            acc = acc * p + ck * q_power
        return Fraction(acc, scale * q_power)

    def values(u: Fraction) -> tuple[Fraction, Fraction]:
        p, q = u.numerator ** 2, u.denominator ** 2
        r = horner(a, p, q) - constant * u
        slope = 2 * u * horner(da, p, q) - constant
        return r, slope

    return values


# float steps of optimize_bound's constant below its closed form before the
# exact proof is given up
_PROOF_STEPS = 8


@functools.lru_cache(maxsize=256)
def prove_ray(order: int, constant: float) -> RayProof:
    """Exact proof that the bound with this constant holds on the whole ray.

    r is convex, so each tangent lies below it, and the two tangents at
    a < u* < b with r'(a) <= 0 <= r'(b) meet at a lower bound L of r on all
    of R.  The candidate points are the double sqrt(x/3) (x the Lagrange
    root, where the ratio is stationary) and its best rational with a
    denominator below 2^32, which finds u* = 2/3 exactly at order 3; where
    they all lie on one side of u*, doubling steps walk past it.
    """
    values = _ray_function(order, Fraction(constant))
    root = math.sqrt(_lagrange_root(order) / 3.0)
    u0, ulp = Fraction(root), Fraction(math.ulp(root))
    points = {u: values(u) for u in (u0, u0.limit_denominator(1 << 32))}

    def walk(start: Fraction, step: Fraction, stop) -> None:
        # r' increases without bound both ways, so the walk ends
        while not stop(points.setdefault(start + step, values(start + step))[1]):
            step *= 2

    if all(slope > 0 for _, slope in points.values()):
        walk(min(points), -ulp, lambda slope: slope <= 0)
    if all(slope <= 0 for _, slope in points.values()):
        walk(max(points), ulp, lambda slope: slope > 0)
    # r' is strictly increasing, so a < b
    a = max(u for u, (_, slope) in points.items() if slope <= 0)
    b = min(u for u, (_, slope) in points.items() if slope > 0)
    (ra, sa), (rb, sb) = points[a], points[b]
    # the tangents T_a and T_b meet at u = (rb - ra + sa a - sb b) / (sa - sb)
    bound = ra + sa * ((rb - ra + sa * a - sb * b) / (sa - sb) - a)
    lower = float(bound)
    if Fraction(lower) > bound:
        lower = math.nextafter(lower, -math.inf)
    return RayProof((f"{a.numerator}/{a.denominator}", f"{b.numerator}/{b.denominator}"),
                    lower, bound >= 0)


def optimize_bound(order: int, beta: float = 1.0, *,
                   energy_scale: float = 1.0) -> BoundCertificate:
    """Maximize the bound constant over the admissible weights, in closed form.

    Stationarity of sum_k w_k log(c_k / w_k) under both weight constraints
    gives w_k = c_k x^k / sum_j c_j x^j with x the root of the moment
    condition sum_k k w_k = 3/2, and then C = 3^(3/2) sum_k c_k x^k / x^(3/2).
    The returned C is the largest double at or below that closed form which
    `prove_ray` proves; rounding can put the closed form a few ulps above
    the true C_N, never the returned C.  Order 3 also reports alpha = w_1
    (9/14) and keeps C_3 = 7/2 exactly.
    """
    if not 2 <= order <= MAX_ORDER:
        raise DbisolError(f"supported truncation orders are 2..{MAX_ORDER}")
    # the slack's beta^2 and y = s / beta^2 need a positive finite square
    if not (beta > 0.0 and 0.0 < beta * beta < math.inf):
        raise DbisolError(f"beta must be positive and finite, got {beta}, with beta^2 "
                          f"{beta * beta:g}")
    x = _lagrange_root(order)
    k = np.arange(1, order + 1)
    terms = _coeff_floats(order) * x ** k
    total = terms.sum()
    w = terms / total
    miss = abs((k * w).sum() - 1.5)
    if miss > 1e-12:
        raise OptimizerError(f"weights miss sum k w_k = 3/2 by {miss:.2e} at order {order}")
    alpha = float(w[0]) if order == 3 else None
    constant = float(3.0 ** 1.5 * total / x ** 1.5)
    for _ in range(_PROOF_STEPS):
        if prove_ray(order, constant).passed:
            return BoundCertificate(order, tuple(w.tolist()), alpha, constant, beta, energy_scale)
        constant = math.nextafter(constant, 0.0)
    raise OptimizerError(f"the exact ray proof fails {_PROOF_STEPS} steps below the closed-form "
                         f"constant at order {order}")


# Monte-Carlo rows per block.  One call allocates one block of buffers, and
# each of its workers takes a slice of BLOCK_ROWS // workers rows, the size
# of one chunk: its draws and their |u0 - u1|, 32 B per row, at most 1 MB.
# The size was chosen when every row still went through the slack, where
# 2^14-2^15 rows measured fastest on one core.  Now that a chunk without
# survivors ends before `exp`, its cost is mostly the draws and a few GIL
# hand-offs: larger slices hand off less often but cost 32 B for each row
# they add
BLOCK_ROWS = 1 << 15

# rows whose three raw uniforms spread by less than this are always
# evaluated: about 3e-6 of the draws
SCREEN_SPREAD = 1e-3
# allowance, as a share of (C/beta)(s/3)^(3/2), for the rounding of a row's
# computed slack and of its eigenvalues; both stay below 1e-12 of it, and
# the screen's bound at SCREEN_SPREAD is 9.5e-5 of it
_SCREEN_ALLOWANCE = 1e-9


def _series(c: np.ndarray, y):
    """sum_k c_k y^k, k = 1..len(c), by Horner; y a float or an array."""
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = acc * y + ck
    return acc * y


def _slack(cert: BoundCertificate, lam: np.ndarray) -> np.ndarray:
    """Slack of each row of lam: beta^2 sum_k c_k y^k - (C/beta) lam1 lam2 lam3.

    The truncated density sum_k c_k s^k / beta^(2k-2) is summed in
    y = s / beta^2, where its coefficients are the c_k themselves and no power
    of beta can leave the float range.  y^N may pass it, where the slack is
    +inf and never the minimum.  s is summed as (x^2 + z^2) + y^2, the order
    of einsum("ij,ij->i") over three columns, which keeps recorded min_slack
    values reproducible bit for bit.
    """
    x, y, z = lam[:, 0], lam[:, 1], lam[:, 2]
    b2 = cert.beta * cert.beta
    with np.errstate(over="ignore"):
        lhs = b2 * _series(_coeff_floats(cert.order), ((x * x + z * z) + y * y) / b2)
    return lhs - x * y * z * (cert.constant / cert.beta)


def _tight_ray_points(cert: BoundCertificate) -> np.ndarray:
    """Equal-eigenvalue ray including the tightness point, plus degenerate axes."""
    s_star = cert.beta ** 2 * _lagrange_root(cert.order)
    t = np.concatenate([np.logspace(-3, 3, 41), [math.sqrt(s_star / 3.0)]])
    ray = np.repeat(t[:, None], 3, axis=1)
    axes = []
    for a in (1e-3, 1.0, 1e3):
        for b in (1e-3, 1.0, 1e3):
            axes.append([0.0, a, b])
    return np.vstack([ray, np.asarray(axes)])


def pointwise_slack(cert: BoundCertificate, triple) -> float:
    """Slack of the bound at one strain-eigenvalue triple (finite components >= 0).

    slack = sum_k c_k s^k / beta^(2k-2) - (C/beta) lam1 lam2 lam3 with
    s the sum of squared components; non-negative for a valid certificate.
    """
    lam = np.asarray(triple, dtype=float).reshape(1, 3)
    if not np.all(np.isfinite(lam)):
        raise DbisolError(f"strain eigenvalues must be finite, got {tuple(lam[0].tolist())}")
    if np.any(lam < 0):
        raise DbisolError("strain eigenvalues must be non-negative")
    # nan is inf - inf or inf * 0 after the product overflowed: s^N has
    # overflowed too there, and with N >= 2 it outgrows the product's s^(3/2)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = float(_slack(cert, lam)[0])
    return math.inf if math.isnan(slack) else slack


def _non_negative_int(value, what: str) -> int:
    """value as an int, or a DbisolError naming what: a bool, a non-integer and
    a negative number are rejected, an integral float is accepted."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or isinstance(value, bool):
        raise DbisolError(f"{what} must be an integer, got {value!r}")
    if number < 0:
        raise DbisolError(f"{what} must be non-negative, got {number}")
    return number


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _screen_floor(cert: BoundCertificate, proof: RayProof) -> float:
    """f >= 0 with computed slack >= f 10^(18 m - 9) for every row spread by at
    least SCREEN_SPREAD, m its largest raw uniform; 0 when the proof failed.

    The slack is at least (C/beta)(s/3)^(3/2)(sqrt(R) - 1)^2/(1 + R) with
    R = 10^(12 SCREEN_SPREAD) once the proof passed, and
    (s/3)^(3/2) >= lam_max^3 / 3^(3/2) with lam_max = 10^(6 m - 3).
    """
    if not proof.passed:
        return 0.0
    ratio = 10.0 ** (12.0 * SCREEN_SPREAD)
    gap = (math.sqrt(ratio) - 1.0) ** 2 / (1.0 + ratio) - _SCREEN_ALLOWANCE
    return cert.constant / cert.beta * gap / 3.0 ** 1.5


def _screen_top(floor: float, min_slack: float) -> float:
    """Largest raw uniform below which a spread row is still evaluated.

    A row spread by at least SCREEN_SPREAD whose largest uniform reaches it
    has computed slack >= floor 10^(18 m - 9) > min_slack, so it cannot set
    the minimum; -inf skips every spread row, inf none.
    """
    if floor > 0.0 and min_slack <= 0.0:
        return -math.inf
    if floor > 0.0 and 0.0 < min_slack < math.inf:
        # 1e-9 in m lifts the bound 4e-8 above min_slack, past any rounding of the logs
        return (math.log10(min_slack) - math.log10(floor) + 9.0) / 18.0 + 1e-9
    return math.inf


def _screened_min(cert: BoundCertificate, rows: np.ndarray, top: float) -> float:
    """Minimum slack over the rows of raw uniforms whose spread is below
    SCREEN_SPREAD or whose largest uniform is below top; inf if none."""
    high = rows.max(axis=1)
    lam = rows[(high - rows.min(axis=1) < SCREEN_SPREAD) | (high < top)]
    if not lam.size:
        return math.inf
    # 10^u with u = -3 + 6 r, bit for bit numpy's uniform(-3, 3)
    lam *= 6.0
    lam += -3.0
    lam *= math.log(10.0)
    np.exp(lam, out=lam)
    return float(_slack(cert, lam).min())


def verify_pointwise(cert: BoundCertificate, sample_count: int, *, seed: int = 0) -> float:
    """Minimum slack of the pointwise bound over random eigenvalue triples.

    Components are sampled log-uniformly in [1e-3, 1e3]; the equal-eigenvalue
    ray (where the bound is tight) and axis-degenerate triples are always
    included.  A valid certificate never goes below -1e-12.  Triple i takes
    draws 3i..3i+2 of default_rng(seed).  The rows are cut into chunks of
    BLOCK_ROWS // workers rows, with at most one worker per usable CPU and
    per BLOCK_ROWS rows.  Worker w scans chunk w, then whichever chunk no
    worker has claimed yet, so the chunks of a worker held up by a busy CPU
    go to the others; it draws each chunk with its own PCG64(seed) advanced
    to the chunk's first draw, into its slice of one shared set of buffers.
    The calling thread is worker 0 and joins the others before it returns or
    raises.  A generator's stream does not depend on how its draws are
    split, and the minimum is exact, so the result does not depend on the
    block size, the number of workers or which worker scans which chunk.

    Each worker screens its chunk's raw uniforms before the affine step and
    `exp` (see the module docstring): a row is evaluated when its uniforms
    spread by less than SCREEN_SPREAD or its largest uniform lies below the
    level where `_screen_floor`'s bound exceeds the minimum slack on the ray
    points.  Only the candidates of the exact prefilter are screened, and a
    chunk in which no row passes calls no `exp` and no `_slack`.  Every
    skipped row's computed slack lies above the minimum, so the result is
    the unscreened minimum bit for bit.
    """
    count = _non_negative_int(sample_count, "sample count")
    seed = _non_negative_int(seed, "seed")
    cert.validate()
    min_slack = float(_slack(cert, _tight_ray_points(cert)).min())
    top = _screen_top(_screen_floor(cert, prove_ray(cert.order, cert.constant)), min_slack)
    blocks = -(-count // BLOCK_ROWS)
    workers = min(_usable_cpus(), blocks)
    if workers == 0:
        return min_slack
    rows = min(count, BLOCK_ROWS) // workers
    block = np.empty((rows * workers, 3))
    # the prefilter's scratch, each row's |u0 - u1|, allocated once like the draws
    gaps = np.empty(rows * workers)
    chunks = -(-count // rows)
    # worker w scans chunk w, then each chunk no worker has claimed yet, so a
    # worker whose CPU is busy leaves its share to the others
    unclaimed = iter(range(workers, chunks))
    lock = threading.Lock()
    # PCG64(seed) is default_rng(seed)'s bit generator, and random() takes one
    # 64-bit output per double; built here, so that workers run only numpy
    rngs = [np.random.Generator(np.random.PCG64(seed)) for _ in range(workers)]

    def scan(w: int) -> float:
        least = math.inf
        part = slice(w * rows, (w + 1) * rows)
        draws, gaps_w = block[part], gaps[part]
        drawn = 0    # rows rngs[w] has moved past; claimed chunks only increase
        chunk = w
        while chunk < chunks:
            start = chunk * rows
            m = min(rows, count - start)
            rngs[w].bit_generator.advance(3 * (start - drawn))
            drawn = start + m
            lam = draws[:m]
            rngs[w].random(out=lam)
            # the prefilter keeps every row the screen can keep
            gap = gaps_w[:m]
            np.subtract(lam[:, 0], lam[:, 1], out=gap)
            np.abs(gap, out=gap)
            near = gap < SCREEN_SPREAD
            if top > 0.0:
                near |= lam[:, 0] < top
            candidates = np.flatnonzero(near)
            if candidates.size:
                least = min(least, _screened_min(cert, lam[candidates], top))
            with lock:
                chunk = next(unclaimed, chunks)
        return least

    lows = [math.inf] * workers
    errors = []

    def run(w: int) -> None:
        try:
            lows[w] = scan(w)
        except BaseException as exc:  # raised again by the caller after the join
            errors.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            threads.append(thread)
        lows[0] = scan(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return min([min_slack, *lows])


def certify(cert: BoundCertificate, sample_count: int, *, seed: int = 0) -> BoundCertificate:
    """Return a copy carrying the exact ray proof and the Monte-Carlo evidence."""
    slack = verify_pointwise(cert, sample_count, seed=seed)
    return replace(cert, samples=int(sample_count), min_slack=slack,
                   proof=prove_ray(cert.order, cert.constant))


def sharpness(cert: BoundCertificate) -> float:
    """Minimal pointwise ratio on the equal-eigenvalue ray; equals C/beta.

    On the ray s = 3 t^2 the ratio of the truncated density to t^3 is
    (3^(3/2)/beta) sum_k c_k y^k / y^(3/2) in the slack's scaled variable
    y = s/beta^2, summed by the same `_series`.  Every inequality in the chain
    is tight on this ray at the minimizer, so this is the optimized constant
    again.  It minimizes the same ray function whose stationarity condition
    gives the closed-form weights, so it checks the arithmetic, not the bound;
    the exact ray proof (`prove_ray`) does that.
    """
    c = _coeff_floats(cert.order)

    def neg_ratio(u: float) -> float:
        y = math.exp(u)
        return -float(_series(c, y)) / y ** 1.5

    return float(-3.0 ** 1.5 * golden_max(neg_ratio, math.log(1e-4), math.log(1e4))[1]
                 / cert.beta)


def bound_energy(cert: BoundCertificate, charge: int) -> float:
    """Topological lower bound on the energy at the certificate's couplings."""
    if int(charge) != charge:
        raise DbisolError("topological charge must be an integer")
    return cert.energy_scale * cert.constant / cert.beta * 2.0 * math.pi ** 2 * abs(charge)


def compare_reference(cert: BoundCertificate) -> dict:
    """Gap between the bound and the unit-charge hedgehog reference energy.

    Meaningful at beta = 1 and charge 1, matching the reference's couplings.
    Also reports the gap using the rounded constant 3.5 quoted alongside the
    reference value.
    """
    if abs(cert.beta - 1.0) > 1e-12:
        raise DbisolError("reference comparison is defined at beta = 1")
    bound = bound_energy(replace(cert, energy_scale=1.0), 1)
    rel = (PAVLOVSKII_REFERENCE - bound) / PAVLOVSKII_REFERENCE
    bound_35 = 3.5 * 2.0 * math.pi ** 2
    rel_35 = (PAVLOVSKII_REFERENCE - bound_35) / PAVLOVSKII_REFERENCE
    return {
        "reference_energy": PAVLOVSKII_REFERENCE,
        "bound_energy": bound,
        "relative_error": rel,
        "bound_energy_c35": bound_35,
        "relative_error_c35": rel_35,
    }
