import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbisol import (DbisolError, KineticLaw, ModelParams, Sector,
                    fit_vacuum_exponent, large_beta_sweep, make_potential, solve_profile)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
LAWS = st.sampled_from([None, 0.75, 1.0, 2.0])


def params(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.BABY2D)
    base.update(kw)
    return ModelParams(**base)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestPotentials:
    def test_old_baby_power_values(self):
        pot = make_potential("old-baby-power", 1.0)
        assert pot.evaluate(1.0) == pytest.approx(1.0, abs=0)
        assert pot.evaluate(0.0) == 0.0
        assert pot.vacuum_exponent == 1.0

    def test_standard_value_at_pi(self):
        pot = make_potential("skyrme-standard")
        assert pot.evaluate(math.pi) == pytest.approx(2.0, rel=1e-15, abs=0)
        assert pot.evaluate(0.0) == 0.0

    def test_bps_potential_value_at_pi(self):
        pot = make_potential("bps-potential")
        assert pot.evaluate(math.pi) == pytest.approx(math.pi / 2, rel=1e-15, abs=0)

    @pytest.mark.parametrize("tag,alpha", [("old-baby-power", 1.0), ("old-baby-power", 2.5),
                                           ("skyrme-standard", None), ("bps-potential", None)])
    def test_non_negative_with_single_vacuum(self, tag, alpha):
        pot = make_potential(tag, alpha)
        s = np.linspace(*pot.domain, 2001)
        v = np.asarray(pot.evaluate(s))
        assert np.all(v >= 0)
        assert pot.evaluate(0.0) == 0.0

    @pytest.mark.parametrize("tag,alpha", [("old-baby-power", 1.0), ("old-baby-power", 3.0),
                                           ("skyrme-standard", None), ("bps-potential", None)])
    def test_vacuum_exponent_loglog_fit(self, tag, alpha):
        pot = make_potential(tag, alpha)
        assert fit_vacuum_exponent(pot) == pytest.approx(pot.vacuum_exponent, rel=1e-3, abs=0)

    @pytest.mark.parametrize("tag,alpha", [("old-baby-power", 2.0), ("skyrme-standard", None),
                                           ("bps-potential", None)])
    def test_derivative_matches_central_differences(self, tag, alpha):
        pot = make_potential(tag, alpha)
        lo, hi = pot.domain
        d = 1e-5
        s = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 41)
        fd = (np.asarray(pot.evaluate(s + d)) - np.asarray(pot.evaluate(s - d))) / (2 * d)
        got = np.asarray(pot.derivative(s))
        assert np.max(np.abs(got - fd) / np.maximum(np.abs(fd), 1e-10)) < 1e-6

    def test_bps_potential_series_branch_is_seamless(self):
        # the series hands over to the exact form at xi = 1
        pot = make_potential("bps-potential")
        for x in (math.nextafter(1.0, 0.0), 1.0, 0.9999, 1.0001):
            with mp.workdps(40):
                xm = mp.mpf(x)
                want = float((xm - mp.cos(xm) * mp.sin(xm)) / 2)
            assert float(pot.evaluate(x)) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_bps_potential_matches_mpmath(self):
        # eta = (xi - cos xi sin xi) / 2 to rounding on both branches; a
        # 4-term series below 0.1 was 3.85e-13 off just below the switch
        xs = np.concatenate([np.geomspace(1e-3, math.pi, 400), np.linspace(0.09, 0.11, 41),
                             np.linspace(0.99, 1.01, 41)])
        got = make_potential("bps-potential").evaluate(xs)
        with mp.workdps(40):
            want = [(mp.mpf(x) - mp.cos(mp.mpf(x)) * mp.sin(mp.mpf(x))) / 2 for x in xs]
            worst = max(abs(mp.mpf(g) - w) / w for g, w in zip(got, want))
        assert worst <= 1e-15

    def test_rejects_bad_exponent_and_tag(self):
        with pytest.raises(DbisolError):
            make_potential("old-baby-power", 0.0)
        with pytest.raises(DbisolError):
            make_potential("old-baby-power", -1.0)
        with pytest.raises(DbisolError):
            make_potential("mexican-hat")

    def test_custom_potential_roundtrip(self):
        pot = make_potential("custom",
                             evaluate=lambda h: np.asarray(h) ** 1.5,
                             derivative=lambda h: 1.5 * np.asarray(h) ** 0.5,
                             domain=(0.0, 1.0), vacuum_coordinate=0.0,
                             vacuum_exponent=1.5)
        assert pot.evaluate(0.25) == pytest.approx(0.125)
        bare = make_potential("custom", evaluate=pot.evaluate, derivative=pot.derivative,
                              domain=(0.0, 1.0), vacuum_exponent=1.5)
        assert fit_vacuum_exponent(bare) == fit_vacuum_exponent(pot)

    def test_custom_potential_exponent_crosschecked(self):
        with pytest.raises(DbisolError):
            make_potential("custom",
                           evaluate=lambda h: np.asarray(h) ** 2,
                           derivative=lambda h: 2 * np.asarray(h),
                           domain=(0.0, 1.0), vacuum_coordinate=0.0,
                           vacuum_exponent=1.0)

    def test_custom_requires_all_fields(self):
        with pytest.raises(DbisolError):
            make_potential("custom", evaluate=lambda h: h)

    def test_custom_vacuum_is_at_zero(self):
        # V = (pi - xi)^2 vanishes at pi, which no chart takes as its vacuum
        def custom(**kw):
            return make_potential("custom", evaluate=lambda xi: (math.pi - np.asarray(xi)) ** 2,
                                  derivative=lambda xi: -2.0 * (math.pi - np.asarray(xi)),
                                  domain=(0.0, math.pi), vacuum_exponent=2.0, **kw)
        with pytest.raises(DbisolError, match="vacuum is at 0") as err:
            custom(vacuum_coordinate=math.pi)
        assert "\n" not in str(err.value)
        # with the vacuum at 0 the log-log fit sees V = pi^2 there
        for vacuum in ({}, {"vacuum_coordinate": 0.0}):
            with pytest.raises(DbisolError, match="disagrees with the log-log fit"):
                custom(**vacuum)


class TestMeasures:
    @pytest.mark.parametrize("sector", list(Sector))
    def test_unit_mass(self, sector):
        chart = sector.chart
        volume = chart.volume(chart.anti_vacuum) - chart.volume(0.0)
        assert chart.unit_weight * volume == pytest.approx(1.0, abs=1e-15)

    def test_average_of_one(self):
        for sector in Sector:
            assert sector.chart.average(lambda s: 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_skyrme_weight_shape(self):
        chart = Sector.SKYRME3D.chart
        assert chart.unit_weight * chart.jacobian(0.0) == 0.0
        assert chart.unit_weight * chart.jacobian(math.pi / 2) == pytest.approx(2.0 / math.pi)
        # the average of fn weighs it with (2/pi) sin^2
        assert chart.average(np.cos) == pytest.approx(0.0, abs=1e-15)
        assert chart.average(lambda xi: np.sin(xi) ** 2) == pytest.approx(0.75, rel=1e-14, abs=0)


class TestValidateParams:
    """A model is checked once, at construction, and dataclasses.replace runs the same check."""

    def test_accepts_defaults(self):
        p = params()
        assert p.kinetic_law.is_dbi and p.kinetic_law == KineticLaw.dbi()

    def test_rejects_half_power_exponent(self):
        with pytest.raises(DbisolError, match="1/2"):
            KineticLaw.power(0.5)
        with pytest.raises(DbisolError, match="1/2"):
            KineticLaw(0.25)

    def test_rejects_zero_charge(self):
        with pytest.raises(DbisolError, match="nonzero integer"):
            params(charge=0)
        with pytest.raises(DbisolError, match="nonzero integer"):
            params(charge=1.5)
        with pytest.raises(DbisolError, match="nonzero integer"):
            replace(params(), charge=0)

    @pytest.mark.parametrize("charge", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_charge(self, charge):
        with pytest.raises(DbisolError, match="nonzero integer"):
            params(charge=charge)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(DbisolError):
            params(beta=0.0)
        with pytest.raises(DbisolError):
            params(beta=-2.0)
        with pytest.raises(DbisolError, match="beta must be positive"):
            replace(params(), beta=0.0)

    @pytest.mark.parametrize("field", ["beta", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_couplings(self, field, value):
        with pytest.raises(DbisolError, match=f"{field} must be finite"):
            params(**{field: value})
        with pytest.raises(DbisolError, match=f"{field} must be finite"):
            replace(params(), **{field: value})

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_power_exponent(self, alpha):
        with pytest.raises(DbisolError, match="must be finite"):
            KineticLaw.power(alpha)

    def test_accepts_power_family(self):
        p = params(kinetic_law=KineticLaw.power(0.75))
        assert not p.kinetic_law.is_dbi and p.kinetic_law.alpha_k == 0.75

    def test_builds_3d_power_law(self):
        """Every chart takes both kinetic laws."""
        power = KineticLaw.power(2.0)
        assert params(sector=Sector.SKYRME3D, kinetic_law=power).kinetic_law == power
        assert replace(params(sector=Sector.SKYRME3D), kinetic_law=power).kinetic_law == power
        assert replace(params(kinetic_law=power), sector=Sector.SKYRME3D).sector \
            is Sector.SKYRME3D

    def test_rejects_unknown_sector(self):
        with pytest.raises(DbisolError, match="unknown sector"):
            params(sector="skyrme")

    def test_sigma(self):
        assert params(beta=2.0, mu=1.0).sigma == pytest.approx(4.0)


class TestLargeBetaLimit:
    """The DBI law's beta -> infinity limit is sigma = inf, the BPS Skyrme model
    K = B0^2 at 2 mu."""

    @pytest.mark.parametrize("sector", list(Sector))
    def test_is_the_alpha_one_model_at_twice_mu(self, sector):
        # beta / mu = 1e200 / 0.7 squares past the double range to sigma = inf
        model = params(beta=1e200, mu=0.7, charge=-2, sector=sector)
        assert model.sigma == math.inf
        limit = replace(model, kinetic_law=KineticLaw.power(1.0), mu=1.4)
        pot = make_potential("old-baby-power", 1.0) if sector is Sector.BABY2D \
            else make_potential("bps-potential")
        got, want = solve_profile(model, pot), solve_profile(limit, pot)
        assert got.compacton_radius == pytest.approx(want.compacton_radius, rel=1e-15, abs=0)
        np.testing.assert_allclose(got.field, want.field, rtol=0, atol=1e-14)

    @PROPERTY
    @given(log_uniform(1e-8, 1e8), log_uniform(1e-8, 1e8), log_uniform(1e-4, 1e4))
    def test_density_is_twice_mu_sqrt_v(self, mu, v, beta):
        # B0^2 / 4 = mu^2 V, the law of K = B0^2 / 4, the DBI K as beta grows; a
        # sigma past the double range is inf, and U_B = mu there
        model = params(beta=beta * 1e300, mu=mu)
        got = model.units[0] * float(model.kinetic_law.density(v, model.sigma))
        assert got == pytest.approx(2.0 * mu * math.sqrt(v), rel=1e-15, abs=0.0)

    def test_power_law_has_no_beta(self):
        model = params(kinetic_law=KineticLaw.power(2.0))
        assert model.kinetic_law.mu_exponent == 1.5
        with pytest.raises(DbisolError, match="power law has no beta"):
            large_beta_sweep(model, [10.0, 100.0, 1000.0], make_potential("old-baby-power", 1.0))


class TestDual:
    """P = K'(B0) on the first-order law, as a function of mu^2 V."""

    @staticmethod
    def mp_dual(mu2v, beta, alpha_k):
        """K' at the law's B0, both in mpmath at 50 digits."""
        with mp.workdps(50):
            x, b = mp.mpf(mu2v), mp.mpf(beta)
            if alpha_k is None:
                e = x / b ** 2
                b0 = mp.sqrt(2) * b * mp.sqrt(e * (2 + e)) / (1 + e)
                return b0 / (2 * mp.sqrt(1 - b0 ** 2 / (2 * b ** 2)))
            a = mp.mpf(alpha_k)
            b0 = (x / (2 * a - 1)) ** (1 / (2 * a))
            return 2 * a * b0 ** (2 * a - 1)

    @staticmethod
    def law(alpha_k):
        return KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)

    @PROPERTY
    @given(LAWS, log_uniform(1e-8, 1e8), log_uniform(1e-4, 1e4))
    def test_matches_mpmath(self, alpha_k, e, beta):
        # at mu = 1, where P = U_P p(V) with V = mu^2 V
        mu2v = e * beta ** 2
        want = self.mp_dual(mu2v, beta, alpha_k)
        model = params(beta=beta, kinetic_law=self.law(alpha_k))
        got = model.units[1] * float(model.kinetic_law.dual(mu2v, model.sigma))
        assert abs(got - want) <= 1e-13 * want

    @PROPERTY
    @given(LAWS, log_uniform(1e-8, 10.0), log_uniform(1e-4, 1e4))
    def test_is_the_slope_at_the_laws_density(self, alpha_k, e, beta):
        # composed from K' and B0, the DBI form cancels like e^2 for large e
        law, mu2v, sigma = self.law(alpha_k), e * beta ** 2, params(beta=beta).sigma
        want = float(law.kinetic_slope(law.density(mu2v, sigma), sigma))
        assert float(law.dual(mu2v, sigma)) == pytest.approx(want, rel=1e-12, abs=0)
