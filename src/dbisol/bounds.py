"""Topological energy bounds for the square-root model on the strain chart.

The energy density, truncated to N terms of its series in the sum of squared
strain eigenvalues, is bounded below by a multiple of the eigenvalue product
via two rounds of arithmetic-geometric mean inequalities.  The multiple is
maximized over the admissible weight simplex in closed form (the Lagrange
condition reduces to one monotone root find), certified pointwise by Monte
Carlo sampling, and checked against the one-dimensional minimization on the
equal-eigenvalue ray where every inequality in the chain is tight.

The Monte-Carlo draws are cut into contiguous row chunks, scanned by at most
one worker per usable CPU, each chunk drawn by the worker's own copy of the
seeded generator advanced to the chunk's first draw; the minimum is exact, so
the certified slack is the same bit for bit whatever the number of CPUs.
"""

from __future__ import annotations

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
    "BoundCertificate", "taylor_coefficients", "weights_for_alpha", "bound_constant",
    "optimize_bound", "pointwise_slack", "verify_pointwise", "sharpness", "bound_energy",
    "compare_reference", "certify", "PAVLOVSKII_REFERENCE",
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


_COEFF_CACHE: dict[int, np.ndarray] = {}


def _coeff_floats(n: int) -> np.ndarray:
    if n not in _COEFF_CACHE:
        _COEFF_CACHE[n] = np.array([float(c) for c in taylor_coefficients(n)])
    return _COEFF_CACHE[n]


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
class BoundCertificate:
    order: int
    weights: tuple[float, ...]
    alpha: float | None
    constant: float
    beta: float
    energy_scale: float = 1.0
    samples: int = 0
    min_slack: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "weights": list(self.weights),
            "alpha": self.alpha,
            "constant": self.constant,
            "beta": self.beta,
            "energy_scale": self.energy_scale,
            "samples": self.samples,
            "min_slack": self.min_slack,
        }

    def validate(self, tol: float = 1e-12) -> None:
        w = np.asarray(self.weights)
        k = np.arange(1, self.order + 1)
        if abs(w.sum() - 1.0) > tol:
            raise DbisolError("certificate weights do not sum to one")
        if abs((2.0 * k / 3.0 * w).sum() - 1.0) > tol:
            raise DbisolError("certificate product exponent is not one")


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


def optimize_bound(order: int, beta: float = 1.0, *,
                   energy_scale: float = 1.0) -> BoundCertificate:
    """Maximize the bound constant over the admissible weights, in closed form.

    Stationarity of sum_k w_k log(c_k / w_k) under both weight constraints
    gives w_k = c_k x^k / sum_j c_j x^j with x the root of the moment
    condition sum_k k w_k = 3/2, and then C = 3^(3/2) sum_k c_k x^k / x^(3/2).
    Order 3 also reports alpha = w_1 (9/14).
    """
    if not 2 <= order <= MAX_ORDER:
        raise DbisolError(f"supported truncation orders are 2..{MAX_ORDER}")
    if not 0.0 < beta < math.inf:
        raise DbisolError(f"beta must be positive and finite, got {beta}")
    x = _lagrange_root(order)
    k = np.arange(1, order + 1)
    terms = _coeff_floats(order) * x ** k
    total = terms.sum()
    w = terms / total
    miss = abs((k * w).sum() - 1.5)
    if miss > 1e-12:
        raise OptimizerError(f"weights miss sum k w_k = 3/2 by {miss:.2e} at order {order}")
    alpha = float(w[0]) if order == 3 else None
    return BoundCertificate(order, tuple(w.tolist()), alpha,
                            float(3.0 ** 1.5 * total / x ** 1.5), beta, energy_scale)


# Monte-Carlo rows per block.  One call allocates one block of buffers, and
# each of its workers takes a slice of BLOCK_ROWS // workers rows, the size
# of one chunk.  The draws, s and the Horner sum of a slice (at most about
# 1.3 MB) stay in a 2 MB L2 cache of the core that runs the worker;
# 2^14-2^15 rows measured fastest on one core, 2^12 pays per-block overhead
# and 2^16 and up leave the cache
BLOCK_ROWS = 1 << 15


def _slack_kernel(cert: BoundCertificate):
    """The slack kernel of cert: slack(lam, s, lhs) -> lhs.

    Writes the slack of each row of lam into lhs, with s as scratch of the
    same length, and allocates nothing.  sum_k c_k s^k / beta^(2k-2) is
    summed by Horner; s^N may pass the float range, where the slack is +inf
    and never the minimum.  s is summed as (x^2 + z^2) + y^2, the order of
    einsum("ij,ij->i") over three columns, which keeps recorded min_slack
    values reproducible bit for bit.
    """
    a = _coeff_floats(cert.order) / (cert.beta * cert.beta) ** np.arange(cert.order)
    scale = cert.constant / cert.beta

    def slack(lam: np.ndarray, s: np.ndarray, lhs: np.ndarray) -> np.ndarray:
        x, y, z = lam[:, 0], lam[:, 1], lam[:, 2]
        with np.errstate(over="ignore"):
            np.multiply(x, x, out=s)
            np.multiply(z, z, out=lhs)
            s += lhs
            np.multiply(y, y, out=lhs)
            s += lhs
            lhs.fill(a[-1])
            for ak in a[-2::-1]:
                lhs *= s
                lhs += ak
            lhs *= s
        np.multiply(x, y, out=s)
        s *= z
        s *= scale
        lhs -= s
        return lhs

    return slack


def _slack_arrays(cert: BoundCertificate, lam: np.ndarray) -> np.ndarray:
    """Slack of each row of lam, in fresh arrays."""
    return _slack_kernel(cert)(lam, np.empty(len(lam)), np.empty(len(lam)))


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
        slack = float(_slack_arrays(cert, lam)[0])
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
    """
    count = _non_negative_int(sample_count, "sample count")
    seed = _non_negative_int(seed, "seed")
    cert.validate()
    slack = _slack_kernel(cert)
    min_slack = float(_slack_arrays(cert, _tight_ray_points(cert)).min())
    blocks = -(-count // BLOCK_ROWS)
    workers = min(_usable_cpus(), blocks)
    if workers == 0:
        return min_slack
    rows = min(count, BLOCK_ROWS) // workers
    block = np.empty((rows * workers, 3))
    s, lhs = np.empty(rows * workers), np.empty(rows * workers)
    chunks = -(-count // rows)
    # worker w scans chunk w, then each chunk no worker has claimed yet, so a
    # worker whose CPU is busy leaves its share to the others
    unclaimed = iter(range(workers, chunks))
    lock = threading.Lock()
    # PCG64(seed) is default_rng(seed)'s bit generator, and random() takes one
    # 64-bit output per double; built here, so that workers run only numpy
    rngs = [np.random.Generator(np.random.PCG64(seed)) for _ in range(workers)]

    def scan(w: int) -> float:
        low = math.inf
        part = slice(w * rows, (w + 1) * rows)
        draws, s_w, lhs_w = block[part], s[part], lhs[part]
        drawn = 0    # rows rngs[w] has moved past; claimed chunks only increase
        chunk = w
        while chunk < chunks:
            start = chunk * rows
            m = min(rows, count - start)
            rngs[w].bit_generator.advance(3 * (start - drawn))
            drawn = start + m
            lam = draws[:m]
            # 10^u with u = -3 + 6 r, bit for bit numpy's uniform(-3, 3)
            rngs[w].random(out=lam)
            lam *= 6.0
            lam += -3.0
            lam *= math.log(10.0)
            np.exp(lam, out=lam)
            low = min(low, float(slack(lam, s_w[:m], lhs_w[:m]).min()))
            with lock:
                chunk = next(unclaimed, chunks)
        return low

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
    """Return a copy carrying the Monte-Carlo evidence."""
    slack = verify_pointwise(cert, sample_count, seed=seed)
    return replace(cert, samples=int(sample_count), min_slack=slack)


def sharpness_location(cert: BoundCertificate) -> tuple[float, float]:
    """(s*, value) of the minimal pointwise ratio on the equal-eigenvalue ray.

    On the ray s = 3 t^2 the ratio of the truncated density to t^3 is
    (3^(3/2)/beta) sum_k c_k y^k / y^(3/2) in the scaled variable y = s/beta^2,
    which keeps every power finite up to the largest order.
    """
    c = _coeff_floats(cert.order)

    def neg_ratio(u: float) -> float:
        y = math.exp(u)
        return -sum(ck * y ** (k + 1) for k, ck in enumerate(c)) / y ** 1.5

    u_star, val = golden_max(neg_ratio, math.log(1e-4), math.log(1e4))
    return cert.beta ** 2 * math.exp(u_star), float(-3.0 ** 1.5 * val / cert.beta)


def sharpness(cert: BoundCertificate) -> float:
    """Minimal pointwise ratio on the equal-eigenvalue ray; equals C/beta.

    Every inequality in the chain is tight on this ray at the minimizer, so
    this is the optimized constant again.  It minimizes the same ray function
    whose stationarity condition gives the closed-form weights, so it checks
    the arithmetic, not the bound; the Monte-Carlo certificate does that.
    """
    return sharpness_location(cert)[1]


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
