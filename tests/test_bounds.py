import math
import threading
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbisol import (DbisolError, PAVLOVSKII_REFERENCE, bound_constant, bound_energy,
                    certify, compare_reference, optimize_bound, pointwise_slack,
                    sharpness, taylor_coefficients, verify_pointwise, weights_for_alpha)
from dbisol import bounds
from dbisol.bounds import BLOCK_ROWS, _coeff_floats, _slack_arrays, _tight_ray_points

C2_EXACT = 0.5 * 3.0 ** 1.5

ORDERS = st.integers(min_value=2, max_value=64)
BETAS = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0 ** e)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# one far triple, put in place of the tight ray so that the minimum falls on the draws
FAR_POINT = np.full((1, 3), 1e3)


def reference_slack(cert, lam: np.ndarray) -> np.ndarray:
    """Slack of each row of lam from whole-array expressions."""
    x, y, z = lam.T
    s = (x * x + z * z) + y * y
    a = _coeff_floats(cert.order) / (cert.beta * cert.beta) ** np.arange(cert.order)
    with np.errstate(over="ignore"):
        lhs = np.full_like(s, a[-1])
        for ak in a[-2::-1]:
            lhs = lhs * s + ak
        lhs = lhs * s
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


def kernel_failing_off(caller: int):
    """A _slack_kernel whose kernels raise MemoryError on any thread but caller."""
    make = bounds._slack_kernel

    def kernel_of(cert):
        slack = make(cert)

        def kernel(lam, s, lhs):
            if threading.get_ident() != caller:
                raise MemoryError("worker out of memory")
            return slack(lam, s, lhs)
        return kernel
    return kernel_of


def mp_bound_constant(order: int) -> mp.mpf:
    """C_N at 40 digits from the Lagrange conditions, solved by mpmath."""
    with mp.workdps(40):
        c = [mp.mpf(f.numerator) / f.denominator for f in taylor_coefficients(order)]

        def series(x, power=0):
            return sum((k + 1) ** power * ck * x ** (k + 1) for k, ck in enumerate(c))

        x = mp.findroot(lambda x: series(x, 1) / series(x) - mp.mpf(1.5),
                        (mp.mpf("0.75"), mp.mpf(4)), solver="anderson")
        return 3 ** mp.mpf(1.5) * series(x) / x ** 1.5


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
        assert cert.constant == C2_EXACT
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
        assert bound_constant(order, cert.weights) == pytest.approx(cert.constant, rel=1e-14)

    @PROPERTY
    @given(order=ORDERS, beta=BETAS)
    @example(order=64, beta=10.0)
    def test_sharpness_is_constant_over_beta(self, order, beta):
        cert = optimize_bound(order, beta)
        assert sharpness(cert) == pytest.approx(cert.constant / beta, rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(DbisolError):
            optimize_bound(1)
        with pytest.raises(DbisolError):
            optimize_bound(65)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(DbisolError, match="beta must be positive and finite"):
            optimize_bound(3, beta)


class TestDuality:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_sharpness_equals_constant(self, order):
        cert = optimize_bound(order)
        assert sharpness(cert) == pytest.approx(cert.constant, rel=1e-6)

    def test_sharpness_scales_with_beta(self):
        c3 = optimize_bound(3)
        c3b = replace(c3, beta=10.0)
        assert sharpness(c3b) == pytest.approx(c3.constant / 10.0, rel=1e-6)


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
        assert _slack_arrays(cert, lam)[0] == pytest.approx(lhs, rel=1e-15)

    def test_horner_kernel_matches_direct_sum(self):
        cert = replace(optimize_bound(8), beta=2.5)
        lam = 10.0 ** np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 3))
        want = [math.fsum(float(ck) * s ** (k + 1) / 2.5 ** (2 * k)
                          for k, ck in enumerate(taylor_coefficients(8)))
                - cert.constant / 2.5 * a * b * c
                for s, (a, b, c) in zip((lam * lam).sum(axis=1), lam)]
        np.testing.assert_allclose(_slack_arrays(cert, lam), want, rtol=1e-13)

    def test_slack_past_float_range_is_infinite(self):
        cert = optimize_bound(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pointwise_slack(cert, (1e3, 1e3, 1e3)) == math.inf

    @pytest.mark.parametrize("order", [3, 64])
    @pytest.mark.parametrize("triple", [(1e103, 1e103, 1e103), (1e200, 1e200, 0.0),
                                        (1e300, 1e300, 1e300)])
    def test_slack_with_overflowing_product_is_infinite(self, order, triple):
        # the eigenvalue product overflows too: inf - inf or inf * 0 in the kernel
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
        assert np.array_equal(_slack_arrays(cert, lam).view(np.int64), want.view(np.int64))
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
        with mock.patch("dbisol.bounds._usable_cpus", return_value=3), \
                mock.patch("dbisol.bounds._slack_kernel",
                           kernel_failing_off(threading.get_ident())):
            with pytest.raises(MemoryError, match="worker out of memory"):
                verify_pointwise(optimize_bound(3), 3 * BLOCK_ROWS, seed=1)

    def test_held_up_worker_leaves_its_chunks_to_the_caller(self):
        # 2 workers, 8 chunks of BLOCK_ROWS // 2 rows; the second worker's
        # kernel waits until the caller has scanned the 7 chunks that are not
        # the worker's first, which a fixed split per worker never lets happen
        caller, make = threading.get_ident(), bounds._slack_kernel
        chunk, scanned, released = BLOCK_ROWS // 2, [], threading.Event()

        def kernel_of(cert):
            slack = make(cert)

            def kernel(lam, s, lhs):
                if threading.get_ident() != caller:
                    assert released.wait(10), "the caller left chunks to the held-up worker"
                elif len(lam) == chunk:
                    scanned.append(chunk)
                    if len(scanned) == 7:
                        released.set()
                return slack(lam, s, lhs)
            return kernel

        cert = optimize_bound(3)
        with mock.patch("dbisol.bounds._slack_kernel", kernel_of):
            got = split_minimum(cert, 4 * BLOCK_ROWS, 5, 2)
        assert len(scanned) == 7
        assert got.hex() == split_minimum(cert, 4 * BLOCK_ROWS, 5, 1).hex()

    @pytest.mark.parametrize("fail", [False, True])
    def test_no_thread_outlives_certify(self, fail):
        kernel = kernel_failing_off(threading.get_ident()) if fail else bounds._slack_kernel
        before = threading.active_count()
        with mock.patch("dbisol.bounds._usable_cpus", return_value=4), \
                mock.patch("dbisol.bounds._slack_kernel", kernel):
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


class TestEnergyBound:
    def test_three_term_bound_value(self):
        cert = optimize_bound(3)
        assert bound_energy(cert, 1) == pytest.approx(69.087, abs=1e-3)

    def test_zero_charge(self):
        assert bound_energy(optimize_bound(3), 0) == 0.0

    def test_two_term_bound_value(self):
        got = bound_energy(optimize_bound(2), 1)
        assert got == pytest.approx(2 * math.pi ** 2 * C2_EXACT, rel=1e-14)
        assert got == pytest.approx(51.28, abs=5e-3)

    def test_scales_inversely_with_beta(self):
        cert = optimize_bound(3)
        assert bound_energy(replace(cert, beta=10.0), 2) == pytest.approx(
            bound_energy(cert, 2) / 10.0, rel=1e-14)

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
        assert PAVLOVSKII_REFERENCE == pytest.approx(8 * math.pi * 3.487, rel=1e-15)

    def test_two_term_error(self):
        out = compare_reference(optimize_bound(2))
        assert out["relative_error"] == pytest.approx(0.415, abs=1e-3)

    def test_requires_unit_beta(self):
        with pytest.raises(DbisolError):
            compare_reference(optimize_bound(3, beta=2.0))


class TestCertificate:
    def test_json_keys(self):
        cert = certify(optimize_bound(3), 1000, seed=0)
        d = cert.to_json_dict()
        assert set(d) == {"order", "weights", "alpha", "constant", "beta",
                          "energy_scale", "samples", "min_slack"}

    def test_weight_invariants(self):
        for n in (2, 3, 5):
            cert = optimize_bound(n)
            w = np.array(cert.weights)
            k = np.arange(1, n + 1)
            assert abs(w.sum() - 1.0) < 1e-12
            assert abs((2 * k / 3 * w).sum() - 1.0) < 1e-12
