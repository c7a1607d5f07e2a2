import math
import threading
import warnings
from dataclasses import asdict, replace
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbisol import (DbisolError, PAVLOVSKII_REFERENCE, bound_constant, bound_energy,
                    certify, compare_reference, optimize_bound, pointwise_slack, prove_ray,
                    sharpness, taylor_coefficients, verify_pointwise, weights_for_alpha)
from dbisol import bounds
from dbisol.bounds import (BLOCK_ROWS, SCREEN_SPREAD, _coeff_floats, _screen_floor,
                           _screen_top, _slack, _tight_ray_points)

C2_EXACT = 0.5 * 3.0 ** 1.5
# the largest double not above 3^(3/2)/2; C2_EXACT, the nearest, lies 2.8e-17 above it
C2_PROVED = math.nextafter(C2_EXACT, 0.0)

ORDERS = st.integers(min_value=2, max_value=64)
BETAS = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0 ** e)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# one far triple, put in place of the tight ray so that the minimum falls on the draws
FAR_POINT = np.full((1, 3), 1e3)


def reference_slack(cert, lam: np.ndarray) -> np.ndarray:
    """Slack of each row of lam from whole-array expressions, summed in y = s / beta^2."""
    x, y, z = lam.T
    b2 = cert.beta * cert.beta
    w = ((x * x + z * z) + y * y) / b2
    c = _coeff_floats(cert.order)
    with np.errstate(over="ignore"):
        lhs = np.full_like(w, c[-1])
        for ck in c[-2::-1]:
            lhs = lhs * w + ck
        lhs = b2 * (lhs * w)
    return lhs - x * y * z * (cert.constant / cert.beta)


def one_array_draws(seed: int, count: int) -> np.ndarray:
    """The count triples of verify_pointwise, drawn in one array."""
    lam = np.random.default_rng(seed).uniform(-3.0, 3.0, (count, 3))
    lam *= math.log(10.0)
    return np.exp(lam, out=lam)


def split_minimum(cert, count: int, seed: int, workers: int) -> float:
    """verify_pointwise on `workers` usable CPUs, with FAR_POINT in place of the tight ray."""
    with mock.patch("dbisol.bounds._usable_cpus", return_value=workers), \
            mock.patch("dbisol.bounds._tight_ray_points", return_value=FAR_POINT):
        return verify_pointwise(cert, count, seed=seed)


def slack_failing_off(caller: int):
    """A _slack that raises MemoryError on any thread but caller."""
    slack = bounds._slack

    def failing(cert, lam):
        if threading.get_ident() != caller:
            raise MemoryError("worker out of memory")
        return slack(cert, lam)
    return failing


def mp_bound_constant(order: int) -> mp.mpf:
    """C_N at 40 digits from the Lagrange conditions, solved by mpmath."""
    with mp.workdps(40):
        c = [mp.mpf(f.numerator) / f.denominator for f in taylor_coefficients(order)]

        def series(x, power=0):
            return sum((k + 1) ** power * ck * x ** (k + 1) for k, ck in enumerate(c))

        x = mp.findroot(lambda x: series(x, 1) / series(x) - mp.mpf(1.5),
                        (mp.mpf("0.75"), mp.mpf(4)), solver="anderson")
        return 3 ** mp.mpf(1.5) * series(x) / x ** 1.5


def mp_ray_constant(order: int) -> mp.mpf:
    """C_N = min over u > 0 of sum_k c_k 3^k u^(2k-3), at 50 digits.

    The ratio is stationary at its minimizer, so bisecting its increasing
    derivative to 1e-36 in u leaves an error in C_N far below 1e-50.
    """
    with mp.workdps(60):
        a = [mp.mpf(c.numerator) / c.denominator * 3 ** (k + 1)
             for k, c in enumerate(taylor_coefficients(order))]

        def slope(u):
            return sum((2 * k - 1) * ak * u ** (2 * k - 2) for k, ak in enumerate(a))

        lo, hi = mp.mpf("0.4"), mp.mpf("1.2")
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
        return sum(ak * lo ** (2 * k - 1) for k, ak in enumerate(a))


def rows_from_uniforms(r: np.ndarray) -> np.ndarray:
    """Eigenvalue triples from raw uniforms, with verify_pointwise's arithmetic."""
    lam = r * 6.0
    lam += -3.0
    lam *= math.log(10.0)
    return np.exp(lam, out=lam)


class TestCoefficients:
    def test_first_three(self):
        assert taylor_coefficients(3) == [Fraction(1, 2), Fraction(1, 8), Fraction(1, 16)]

    def test_fourth(self):
        assert taylor_coefficients(4)[3] == Fraction(5, 128)

    @pytest.mark.parametrize("n", [1, 5, 20, 50])
    def test_partial_sum_identity(self, n):
        # exact identity: 1 - sum_{k<=n} c_k = 2 (n+1) c_{n+1}
        c = taylor_coefficients(n + 1)
        assert 1 - sum(c[:n]) == 2 * (n + 1) * c[n]

    def test_series_value_at_half(self):
        c = taylor_coefficients(60)
        total = sum(float(ck) * 0.5 ** (k + 1) for k, ck in enumerate(c))
        assert total == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)

    def test_series_tail_vanishes(self):
        # partial sums approach 1 (the value at x = 1) from below
        c = taylor_coefficients(4001)
        partial = [float(sum(c[:n])) for n in (10, 100, 1000, 4000)]
        assert all(p < 1 for p in partial)
        assert np.all(np.diff(partial) > 0)
        assert 1 - partial[-1] < 0.01

    def test_rejects_zero(self):
        with pytest.raises(DbisolError):
            taylor_coefficients(0)


class TestBoundConstant:
    def test_two_term_exact(self):
        assert bound_constant(2, (0.5, 0.5)) == C2_EXACT

    def test_three_term_degenerate_limit_is_two_term(self):
        assert bound_constant(3, 0.5) == pytest.approx(C2_EXACT, abs=1e-12)

    def test_three_term_at_optimum_is_seven_halves(self):
        # stationarity gives alpha* = 9/14 exactly and C = 7/2 exactly:
        # 14 log(7/2) telescopes out of the weighted product
        assert bound_constant(3, 9.0 / 14.0) == pytest.approx(3.5, abs=1e-13)

    def test_three_term_near_rounded_alpha(self):
        assert bound_constant(3, 0.64286) == pytest.approx(3.5, abs=1e-9)

    def test_weights_for_alpha(self):
        w = weights_for_alpha(9.0 / 14.0)
        assert sum(w) == pytest.approx(1.0, abs=1e-15)
        assert sum(k * wk for k, wk in zip((1, 2, 3), w)) == pytest.approx(1.5, abs=1e-15)

    def test_constraint_violation_rejected(self):
        with pytest.raises(DbisolError, match="constraint"):
            bound_constant(3, (0.4, 0.3, 0.3))

    def test_alpha_outside_interval_rejected(self):
        with pytest.raises(DbisolError):
            weights_for_alpha(0.8)


class TestOptimize:
    def test_order_two(self):
        cert = optimize_bound(2)
        with mp.workdps(50):
            assert mp.mpf(C2_PROVED) < mp.sqrt(27) / 2 < mp.mpf(C2_EXACT)
        assert cert.constant == C2_PROVED
        assert cert.weights == (0.5, 0.5)
        assert cert.alpha is None

    def test_order_three_optimum(self):
        cert = optimize_bound(3)
        assert cert.alpha == pytest.approx(0.64286, abs=1e-3)
        assert cert.alpha == pytest.approx(9.0 / 14.0, abs=1e-6)
        assert 3.5 - 1e-9 <= cert.constant <= 3.6
        cert.validate()

    def test_monotone_improvement(self):
        consts = [optimize_bound(n).constant for n in range(2, 9)]
        assert consts[0] < consts[1]
        for a, b in zip(consts, consts[1:]):
            assert b >= a - 1e-12
        assert consts[1] == pytest.approx(3.5, abs=1e-8)
        assert consts[2] == pytest.approx(3.77525596, abs=1e-4)

    def test_constant_increases_with_order_below_four(self):
        consts = [optimize_bound(n).constant for n in range(2, 65)]
        assert all(b > a for a, b in zip(consts, consts[1:]))
        assert consts[-1] < 4.0

    def test_matches_mpmath(self):
        with mp.workdps(40):
            assert mp.almosteq(mp_bound_constant(3), mp.mpf(7) / 2, rel_eps=mp.mpf("1e-35"))
        assert optimize_bound(3).constant == pytest.approx(3.5, abs=1e-13)
        for n in (4, 8, 16):
            assert optimize_bound(n).constant == pytest.approx(float(mp_bound_constant(n)),
                                                               abs=1e-13)
        assert optimize_bound(16).constant == pytest.approx(3.99917, abs=1e-5)

    @PROPERTY
    @given(order=ORDERS, beta=BETAS)
    @example(order=64, beta=10.0)
    def test_weights_admissible(self, order, beta):
        cert = optimize_bound(order, beta)
        w = np.array(cert.weights)
        k = np.arange(1, order + 1)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs((k * w).sum() - 1.5) <= 1e-12

    @PROPERTY
    @given(order=ORDERS, beta=BETAS)
    def test_constant_is_weighted_product(self, order, beta):
        cert = optimize_bound(order, beta)
        assert bound_constant(order, cert.weights) == pytest.approx(cert.constant, rel=1e-14,
                                                                    abs=0)

    @PROPERTY
    @given(order=ORDERS, beta=BETAS)
    @example(order=64, beta=10.0)
    def test_sharpness_is_constant_over_beta(self, order, beta):
        cert = optimize_bound(order, beta)
        assert sharpness(cert) == pytest.approx(cert.constant / beta, rel=1e-12, abs=0)

    def test_rejects_bad_order(self):
        with pytest.raises(DbisolError):
            optimize_bound(1)
        with pytest.raises(DbisolError):
            optimize_bound(65)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf,
                                      1e200, 1e-170])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(DbisolError, match="beta must be positive and finite"):
            optimize_bound(3, beta)


class TestDuality:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_sharpness_equals_constant(self, order):
        cert = optimize_bound(order)
        assert sharpness(cert) == pytest.approx(cert.constant, rel=1e-6, abs=0)

    def test_sharpness_scales_with_beta(self):
        c3 = optimize_bound(3)
        c3b = replace(c3, beta=10.0)
        assert sharpness(c3b) == pytest.approx(c3.constant / 10.0, rel=1e-6, abs=0)

    def test_order_three_sharpness_is_exact(self):
        # the ray minimum, summed by the slack's Horner rule in y = s / beta^2,
        # is C_3 = 7/2 to the last bit
        cert = optimize_bound(3)
        assert cert.constant == 3.5
        assert sharpness(cert) == 3.5


class TestPointwise:
    def test_min_slack_nonnegative(self):
        cert = optimize_bound(3)
        assert verify_pointwise(cert, 100_000, seed=11) >= -1e-12

    def test_min_slack_nonnegative_beta_scaled(self):
        cert = replace(optimize_bound(3), beta=2.5)
        assert verify_pointwise(cert, 50_000, seed=12) >= -1e-12

    def test_equal_eigenvalues_slack_value(self):
        # term sum at lambda = (1,1,1): s = 3, so 3/2 + 9/8 + 27/16 = 4.3125,
        # against C3 * 1 = 3.5
        cert = optimize_bound(3)
        c = [float(x) for x in taylor_coefficients(3)]
        lhs = sum(ck * 3.0 ** (k + 1) for k, ck in enumerate(c))
        assert lhs == pytest.approx(4.3125, abs=1e-15)
        assert pointwise_slack(cert, (1.0, 1.0, 1.0)) == pytest.approx(0.8125, abs=1e-9)
        with pytest.raises(DbisolError):
            pointwise_slack(cert, (-1.0, 1.0, 1.0))

    def test_degenerate_axis_slack_is_lhs(self):
        cert = optimize_bound(3)
        lam = np.array([[0.0, 2.0, 3.0]])
        s = 13.0
        c = [float(x) for x in taylor_coefficients(3)]
        lhs = sum(ck * s ** (k + 1) for k, ck in enumerate(c))
        assert _slack(cert, lam)[0] == pytest.approx(lhs, rel=1e-15, abs=0)

    def test_horner_kernel_matches_direct_sum(self):
        cert = replace(optimize_bound(8), beta=2.5)
        lam = 10.0 ** np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 3))
        want = [math.fsum(float(ck) * s ** (k + 1) / 2.5 ** (2 * k)
                          for k, ck in enumerate(taylor_coefficients(8)))
                - cert.constant / 2.5 * a * b * c
                for s, (a, b, c) in zip((lam * lam).sum(axis=1), lam)]
        np.testing.assert_allclose(_slack(cert, lam), want, rtol=1e-13)

    def test_slack_past_float_range_is_infinite(self):
        cert = optimize_bound(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pointwise_slack(cert, (1e3, 1e3, 1e3)) == math.inf

    @pytest.mark.parametrize("order", [3, 64])
    @pytest.mark.parametrize("triple", [(1e103, 1e103, 1e103), (1e200, 1e200, 0.0),
                                        (1e300, 1e300, 1e300)])
    def test_slack_with_overflowing_product_is_infinite(self, order, triple):
        # the eigenvalue product overflows too: inf - inf or inf * 0 in the slack
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pointwise_slack(optimize_bound(order), triple) == math.inf

    def test_rejects_negative_sample_count(self):
        with pytest.raises(DbisolError, match="non-negative"):
            certify(optimize_bound(2), -5)

    def test_inflated_constant_fails(self):
        cert = optimize_bound(3)
        bad = replace(cert, constant=1.1 * cert.constant)
        assert verify_pointwise(bad, 100_000, seed=13) < 0

    def test_certify_attaches_evidence(self):
        cert = certify(optimize_bound(3), 10_000, seed=5)
        assert cert.samples == 10_000
        assert cert.min_slack >= -1e-12

    def test_deterministic_for_fixed_seed(self):
        cert = optimize_bound(3)
        a = verify_pointwise(cert, 30_000, seed=42)
        b = verify_pointwise(cert, 30_000, seed=42)
        assert a == b

    @PROPERTY
    @given(order=ORDERS, beta=BETAS, seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           count=st.one_of(st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
                           st.integers(min_value=0, max_value=3 * BLOCK_ROWS)))
    @example(order=64, beta=10.0, seed=0, count=BLOCK_ROWS + 1)
    def test_blocked_kernel_matches_one_array_reference(self, order, beta, seed, count):
        # the same draws in one array, with s summed explicitly in einsum's order
        lam = one_array_draws(seed, count)
        cert = optimize_bound(order, beta)
        want = reference_slack(cert, lam)
        assert np.array_equal(_slack(cert, lam).view(np.int64), want.view(np.int64))
        # the ray holds the minimum of a valid certificate; with one far point
        # in its place the minimum falls on the draws
        for points in (_tight_ray_points(cert), FAR_POINT):
            expect = float(reference_slack(cert, points).min())
            if count:
                expect = min(expect, float(want.min()))
            with mock.patch("dbisol.bounds._tight_ray_points", return_value=points):
                got = verify_pointwise(cert, count, seed=seed)
            assert got.hex() == expect.hex()

    @PROPERTY
    @given(order=st.sampled_from([2, 3, 64]), beta=st.sampled_from([1e-2, 1.0, 1e2]),
           workers=st.sampled_from([1, 2, 3, 5]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           count=st.one_of(st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS + 1,
                                            3 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5]),
                           st.integers(min_value=0, max_value=4 * BLOCK_ROWS)))
    @example(order=64, beta=1e2, workers=5, seed=0, count=3 * BLOCK_ROWS + 1)
    def test_split_matches_one_array_reference(self, order, beta, workers, seed, count):
        cert = optimize_bound(order, beta)
        expect = float(reference_slack(cert, FAR_POINT).min())
        if count:
            expect = min(expect, float(reference_slack(cert, one_array_draws(seed, count)).min()))
        got = split_minimum(cert, count, seed, workers)
        assert got.hex() == expect.hex()
        assert got.hex() == split_minimum(cert, count, seed, 1).hex()

    def test_worker_error_reaches_caller(self):
        # FAR_POINT lets every row through the screen, so every chunk reaches _slack
        with mock.patch("dbisol.bounds._usable_cpus", return_value=3), \
                mock.patch("dbisol.bounds._tight_ray_points", return_value=FAR_POINT), \
                mock.patch("dbisol.bounds._slack", slack_failing_off(threading.get_ident())):
            with pytest.raises(MemoryError, match="worker out of memory"):
                verify_pointwise(optimize_bound(3), 3 * BLOCK_ROWS, seed=1)

    def test_held_up_worker_leaves_its_chunks_to_the_caller(self):
        # 2 workers, 8 chunks of BLOCK_ROWS // 2 rows; the second worker's
        # slack waits until the caller has scanned the 7 chunks that are not
        # the worker's first, which a fixed split per worker never lets happen
        caller, slack = threading.get_ident(), bounds._slack
        chunk, scanned, released = BLOCK_ROWS // 2, [], threading.Event()

        def held_up(cert, lam):
            if threading.get_ident() != caller:
                assert released.wait(10), "the caller left chunks to the held-up worker"
            elif len(lam) == chunk:
                scanned.append(chunk)
                if len(scanned) == 7:
                    released.set()
            return slack(cert, lam)

        cert = optimize_bound(3)
        with mock.patch("dbisol.bounds._slack", held_up):
            got = split_minimum(cert, 4 * BLOCK_ROWS, 5, 2)
        assert len(scanned) == 7
        assert got.hex() == split_minimum(cert, 4 * BLOCK_ROWS, 5, 1).hex()

    @pytest.mark.parametrize("fail", [False, True])
    def test_no_thread_outlives_certify(self, fail):
        slack = slack_failing_off(threading.get_ident()) if fail else bounds._slack
        before = threading.active_count()
        with mock.patch("dbisol.bounds._usable_cpus", return_value=4), \
                mock.patch("dbisol.bounds._tight_ray_points", return_value=FAR_POINT), \
                mock.patch("dbisol.bounds._slack", slack):
            if fail:
                with pytest.raises(MemoryError):
                    certify(optimize_bound(3), 4 * BLOCK_ROWS, seed=2)
            else:
                certify(optimize_bound(3), 4 * BLOCK_ROWS, seed=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("triple", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                        (1.0, -math.inf, 1.0)])
    def test_rejects_non_finite_components(self, triple):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DbisolError, match="finite"):
                pointwise_slack(optimize_bound(3), triple)

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf, "5", True])
    def test_rejects_non_integral_sample_count(self, count):
        with pytest.raises(DbisolError, match="integer"):
            certify(optimize_bound(2), count)
        with pytest.raises(DbisolError, match="integer"):
            verify_pointwise(optimize_bound(2), count)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (math.nan, "seed must be an integer, got nan"),
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
    ], ids=["negative", "fraction", "nan", "string", "bool"])
    def test_rejects_bad_seed(self, seed, message):
        for call in (certify, verify_pointwise):
            with pytest.raises(DbisolError) as exc:
                call(optimize_bound(2), 10, seed=seed)
            assert str(exc.value) == message

    def test_integral_float_sample_count_is_accepted(self):
        assert certify(optimize_bound(2), 3.0, seed=1).samples == 3


class TestRayProof:
    def test_every_order_is_proved_below_the_true_constant(self):
        for order in range(2, 65):
            cert = optimize_bound(order)
            assert prove_ray(order, cert.constant).passed
            exact = mp_ray_constant(order)
            assert mp.mpf(cert.constant) <= exact
            assert exact - mp.mpf(cert.constant) <= 4 * math.ulp(cert.constant)
            # the proof fails at C_N rounded up and at an inflated constant
            up = float(exact)
            if mp.mpf(up) <= exact:
                up = math.nextafter(up, math.inf)
            assert not prove_ray(order, up).passed
            assert not prove_ray(order, 1.1 * cert.constant).passed

    def test_order_three_is_seven_halves_exactly(self):
        proof = prove_ray(3, optimize_bound(3).constant)
        assert optimize_bound(3).constant == 3.5
        # r(2/3) = r'(2/3) = 0 at C = 7/2
        assert proof.tangent_points[0] == "2/3"
        assert proof.lower_bound == 0.0 and proof.passed

    @pytest.mark.parametrize("beta", [1e-2, 1.0, 1e2])
    def test_certificates_carry_a_passing_proof(self, beta):
        for order in range(2, 65):
            proof = certify(optimize_bound(order, beta), 0).proof
            assert proof.passed and proof.lower_bound >= 0.0
            a, b = (Fraction(p) for p in proof.tangent_points)
            assert a < b

    @pytest.mark.parametrize("order, inflate", [(2, 1.0), (8, 1.0), (64, 1.0), (5, 1.1)])
    def test_lower_bound_is_the_tangent_meet_rounded_down(self, order, inflate):
        # the two tangents met again in mpmath, at the recorded points
        constant = inflate * optimize_bound(order).constant
        proof = prove_ray(order, constant)
        with mp.workdps(80):
            a, b = (mp.mpf(Fraction(p).numerator) / Fraction(p).denominator
                    for p in proof.tangent_points)
            c = [mp.mpf(f.numerator) / f.denominator for f in taylor_coefficients(order)]

            def r(u):
                return sum(ck * 3 ** (k + 1) * u ** (2 * k)
                           for k, ck in enumerate(c)) - constant * u

            def slope(u):
                return sum(2 * k * ck * 3 ** (k + 1) * u ** (2 * k - 1)
                           for k, ck in enumerate(c) if k) - constant

            ra, sa, rb, sb = r(a), slope(a), r(b), slope(b)
            assert sa <= 0 < sb
            meet = ra + sa * ((rb - ra + sa * a - sb * b) / (sa - sb) - a)
            assert mp.mpf(proof.lower_bound) <= meet < mp.mpf(
                math.nextafter(proof.lower_bound, math.inf))
            assert proof.passed == (meet >= 0)

    def test_optimizer_gives_up_when_no_step_proves(self):
        failed = bounds.RayProof(("1/2", "1/1"), -1.0, False)
        with mock.patch("dbisol.bounds.prove_ray", return_value=failed):
            with pytest.raises(bounds.OptimizerError, match="exact ray proof fails"):
                optimize_bound(4)


class TestScreen:
    @PROPERTY
    @given(order=ORDERS, beta=BETAS,
           triple=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 3))
    @example(order=3, beta=1.0, triple=(math.log10(2 / 3), math.log10(2 / 3), -3.0))
    @example(order=14, beta=10.0, triple=(0.5, 0.5, 0.5))
    def test_slack_is_at_least_the_ray_slack_at_the_same_s(self, order, beta, triple):
        # the AM-GM reduction, exactly: slack(lam) >= (s/3) r(u) >= (s/3) L >= 0
        cert = optimize_bound(order, beta)
        proof = prove_ray(order, cert.constant)
        lam = [10.0 ** e for e in triple]
        # slack - ray = (C/beta) ((s/3)^(3/2) - lam1 lam2 lam3) with C > 0: AM-GM,
        # squared and in exact rationals, since the two are equal where the
        # eigenvalues are
        l1, l2, l3 = (Fraction(v) for v in lam)
        assert cert.constant > 0
        assert (l1 * l2 * l3) ** 2 <= ((l1 * l1 + l2 * l2 + l3 * l3) / 3) ** 3
        with mp.workdps(40):
            c = [mp.mpf(f.numerator) / f.denominator for f in taylor_coefficients(order)]
            lam = [mp.mpf(x) for x in lam]
            s = sum(x * x for x in lam)
            density = sum(ck * s ** (k + 1) / mp.mpf(beta) ** (2 * k) for k, ck in enumerate(c))
            ray = density - mp.mpf(cert.constant) / mp.mpf(beta) * (s / 3) ** mp.mpf(1.5)
            u = mp.sqrt(s / 3) / mp.mpf(beta)
            r = sum(ck * 3 ** (k + 1) * u ** (2 * k) for k, ck in enumerate(c)) - \
                mp.mpf(cert.constant) * u
            assert mp.almosteq(ray, s / 3 * r, rel_eps=mp.mpf("1e-30"), abs_eps=mp.mpf("1e-60"))
            assert r >= mp.mpf(proof.lower_bound) >= 0

    @pytest.mark.parametrize("beta", [1e-2, 1.0, 1e2])
    def test_bound_never_exceeds_the_computed_slack(self, beta):
        # random rows, and the worst case: spread exactly SCREEN_SPREAD, the
        # middle square at the mean of the other two, up to the largest uniform
        top = np.linspace(SCREEN_SPREAD, 1.0, 400)
        bottom = top - SCREEN_SPREAD
        middle = np.log10(np.sqrt((10.0 ** (12 * bottom - 6) + 10.0 ** (12 * top - 6)) / 2))
        worst = np.column_stack([bottom, (middle + 3.0) / 6.0, top])
        for order in range(2, 65):
            cert = optimize_bound(order, beta)
            floor = _screen_floor(cert, prove_ray(order, cert.constant))
            assert floor > 0.0
            r = np.vstack([np.random.default_rng(order).random((2000, 3)), worst])
            hi = r.max(axis=1)
            spread = hi - r.min(axis=1) >= SCREEN_SPREAD
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                slack = _slack(cert, rows_from_uniforms(r))
            bound = floor * 10.0 ** (18.0 * hi - 9.0)
            assert np.all(slack[spread] >= bound[spread]), order

    def test_top_uniform(self):
        cert = optimize_bound(4)
        floor = _screen_floor(cert, prove_ray(4, cert.constant))
        assert _screen_floor(cert, bounds.RayProof(("1/2", "1/1"), -1.0, False)) == 0.0
        assert _screen_top(0.0, -1.0) == math.inf
        for min_slack in (-1.0, -0.0, 0.0):
            assert _screen_top(floor, min_slack) == -math.inf
        for min_slack in (math.inf, math.nan):
            assert _screen_top(floor, min_slack) == math.inf
        for min_slack in (5e-324, 1e-16, 1e-3, 1.0, 1e12):
            top = _screen_top(floor, min_slack)
            assert mp.mpf(floor) * mp.mpf(10) ** (18 * mp.mpf(top) - 9) > min_slack

    def test_only_unspread_rows_reach_the_kernel(self):
        # order 3 proves C = 7/2 with a zero minimum on the ray, so every row
        # whose uniforms spread by SCREEN_SPREAD or more is skipped
        count, seed, seen, slack = 3 * BLOCK_ROWS + 7, 9, [], bounds._slack
        cert = optimize_bound(3)

        def counted(cert, lam):
            seen.append(len(lam))
            return slack(cert, lam)

        with mock.patch("dbisol.bounds._slack", counted):
            got = verify_pointwise(cert, count, seed=seed)
        r = np.random.default_rng(seed).random((count, 3))
        unspread = int((r.max(axis=1) - r.min(axis=1) < SCREEN_SPREAD).sum())
        assert sum(seen) - len(_tight_ray_points(cert)) == unspread
        assert unspread < 100
        want = min(float(_slack(cert, _tight_ray_points(cert)).min()),
                   float(reference_slack(cert, one_array_draws(seed, count)).min()))
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("order, beta, inflate, lowest_top, highest_top", [
        (3, 1.0, False, -math.inf, -math.inf), (2, 100.0, False, 0.2, 0.25),
        (3, 1.0, True, math.inf, math.inf)], ids=["top-minus-inf", "top-inside", "top-plus-inf"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_regime_matches_one_array_reference(self, order, beta, inflate, lowest_top,
                                                      highest_top, workers):
        # the screen skips every spread row (order 3 proves a zero minimum on
        # the ray), keeps the spread rows whose largest uniform lies below
        # top (order 2 at beta = 100), or keeps every row (a certificate whose
        # proof fails)
        cert = optimize_bound(order, beta)
        if inflate:
            cert = replace(cert, constant=cert.constant * 1.01)
        ray = float(reference_slack(cert, _tight_ray_points(cert)).min())
        top = _screen_top(_screen_floor(cert, prove_ray(order, cert.constant)), ray)
        assert lowest_top <= top <= highest_top
        # counts either side of a chunk edge, with more than workers - 1 blocks
        rows = BLOCK_ROWS // workers
        for count in (7 * rows - 1, 7 * rows, 7 * rows + 1):
            expect = min(ray, float(reference_slack(cert, one_array_draws(4, count)).min()))
            with mock.patch("dbisol.bounds._usable_cpus", return_value=workers):
                got = verify_pointwise(cert, count, seed=4)
            assert got.hex() == expect.hex(), count

    @pytest.mark.parametrize("order, beta, surviving_chunks", [(3, 1.0, 3), (2, 100.0, 32)])
    def test_slack_runs_once_per_chunk_with_a_surviving_row(self, order, beta, surviving_chunks):
        # once for the ray, then once for each chunk of BLOCK_ROWS // 2 rows in
        # which a row passes the screen; at order 3 about 2e-3 of the rows pass
        # the prefilter, but only 3 of seed 1's 524288 rows pass the screen
        count, seed, calls, slack = 16 * BLOCK_ROWS, 1, [], bounds._slack
        cert = optimize_bound(order, beta)

        def counted(cert, lam):
            calls.append(len(lam))
            return slack(cert, lam)

        with mock.patch("dbisol.bounds._usable_cpus", return_value=2), \
                mock.patch("dbisol.bounds._slack", counted):
            verify_pointwise(cert, count, seed=seed)
        top = _screen_top(_screen_floor(cert, prove_ray(order, cert.constant)),
                          float(_slack(cert, _tight_ray_points(cert)).min()))
        r = np.random.default_rng(seed).random((count, 3))
        hi = r.max(axis=1)
        passes = (hi - r.min(axis=1) < SCREEN_SPREAD) | (hi < top)
        surviving = np.unique(np.flatnonzero(passes) // (BLOCK_ROWS // 2))
        assert len(surviving) == surviving_chunks
        assert len(calls) == 1 + surviving_chunks
        assert sum(calls) == len(_tight_ray_points(cert)) + int(passes.sum())


class TestEnergyBound:
    def test_three_term_bound_value(self):
        cert = optimize_bound(3)
        assert bound_energy(cert, 1) == pytest.approx(69.087, abs=1e-3)

    def test_zero_charge(self):
        assert bound_energy(optimize_bound(3), 0) == 0.0

    def test_two_term_bound_value(self):
        got = bound_energy(optimize_bound(2), 1)
        assert got == pytest.approx(2 * math.pi ** 2 * C2_EXACT, rel=1e-14, abs=0)
        assert got == pytest.approx(51.28, abs=5e-3)

    def test_scales_inversely_with_beta(self):
        cert = optimize_bound(3)
        assert bound_energy(replace(cert, beta=10.0), 2) == pytest.approx(
            bound_energy(cert, 2) / 10.0, rel=1e-14, abs=0)

    def test_energy_scale_factor(self):
        cert = replace(optimize_bound(3), energy_scale=3.0)
        assert bound_energy(cert, 1) == pytest.approx(3 * 69.0872308, abs=1e-4)


class TestReferenceComparison:
    def test_values(self):
        out = compare_reference(optimize_bound(3))
        assert out["reference_energy"] == pytest.approx(87.638, abs=1e-3)
        assert out["bound_energy"] == pytest.approx(69.087, abs=1e-3)
        assert out["relative_error"] == pytest.approx(0.2117, abs=1e-3)
        assert out["relative_error_c35"] == pytest.approx(0.2117, abs=1e-3)
        assert PAVLOVSKII_REFERENCE == pytest.approx(8 * math.pi * 3.487, rel=1e-15, abs=0)

    def test_two_term_error(self):
        out = compare_reference(optimize_bound(2))
        assert out["relative_error"] == pytest.approx(0.415, abs=1e-3)

    def test_requires_unit_beta(self):
        with pytest.raises(DbisolError):
            compare_reference(optimize_bound(3, beta=2.0))


class TestCertificate:
    def test_json_keys(self):
        cert = certify(optimize_bound(3), 1000, seed=0)
        # `bound` writes the certificate's fields, the proof's nested
        d = asdict(cert)
        assert set(d) == {"order", "weights", "alpha", "constant", "beta",
                          "energy_scale", "samples", "min_slack", "proof"}
        assert d["proof"] == {"tangent_points": ("2/3", "3002399751580331/4503599627370496"),
                              "lower_bound": 0.0, "passed": True}

    @pytest.mark.parametrize("order", [40, 64])
    @pytest.mark.parametrize("beta", [300.0, 1e3, 1e4])
    def test_large_beta_certifies_without_overflow(self, order, beta):
        # powers of beta^2 in the coefficients overflowed here, and the slack
        # went negative: -4.1 at order 64 and beta = 1e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify(optimize_bound(order, beta), 200_000)
        assert cert.min_slack >= -1e-12
        assert cert.proof.passed

    def test_validate_rejects_weights_off_the_simplex(self):
        cert = optimize_bound(3)
        with pytest.raises(DbisolError, match="^weight sum constraint violated by 1.00e-02$"):
            replace(cert, weights=tuple(1.01 * w for w in cert.weights)).validate()
        with pytest.raises(DbisolError, match="^weight sum constraint violated by 5.00e-01$"):
            verify_pointwise(replace(cert, weights=(0.5, 0.5, 0.5)), 10)

    def test_validate_rejects_wrong_product_exponent(self):
        # equal weights sum to one, but sum k w_k = 2
        cert = replace(optimize_bound(3), weights=(1 / 3, 1 / 3, 1 / 3))
        with pytest.raises(DbisolError, match="^eigenvalue-product exponent constraint violated "
                                              "by 5.00e-01$"):
            cert.validate()

    def test_weight_invariants(self):
        for n in (2, 3, 5):
            cert = optimize_bound(n)
            w = np.array(cert.weights)
            k = np.arange(1, n + 1)
            assert abs(w.sum() - 1.0) < 1e-12
            assert abs((2 * k / 3 * w).sum() - 1.0) < 1e-12
