import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import Soliton

from dbisol import (DbisolError, GridSpec, KineticLaw, ModelParams, Sector, SectorMismatchError,
                    baby_energy_closed, baby_old_exact,
                    bps_energy_integral, charge_quadrature, compute_energy_report,
                    energy_per_charge_average, energy_quadrature,
                    large_beta_sweep, make_potential,
                    power_family_energy_per_charge, profile_field_at, profile_on_grid,
                    skyrme_bps_energy_closed, skyrme_standard_energy_closed,
                    skyrme_standard_exact, skyrme_standard_radius,
                    small_mu_sweep, solve_profile)
from dbisol.cli import RunConfig

OLD = make_potential("old-baby-power", 1.0)
STD = make_potential("skyrme-standard")
BPSPOT = make_potential("bps-potential")

# energy of the unit-coupling planar compacton, evaluated analytically
BABY_E_UNIT = math.sqrt(1.5) - math.log(2.0 + math.sqrt(3.0)) / (2.0 * math.sqrt(2.0))


def baby(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.BABY2D)
    base.update(kw)
    return ModelParams(**base)


def skyrme(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.SKYRME3D)
    base.update(kw)
    return ModelParams(**base)


def oracle_energy(model, tag):
    """Total energy from the oracle's field-space integral."""
    return float(Soliton(model.sector.value, tag, model.beta, model.mu, model.charge).energy())


class TestBabyEnergy:
    def test_quadrature_vs_closed_and_reference(self):
        p = baby()
        prof = solve_profile(p, OLD)
        e_quad = energy_quadrature(prof, p, OLD)
        e_closed = baby_energy_closed(p)
        assert abs(e_quad - e_closed) / e_closed < 1e-6
        assert e_closed == pytest.approx(BABY_E_UNIT, abs=1e-12)
        assert e_quad == pytest.approx(oracle_energy(p, "old:1"), rel=1e-14, abs=0)

    def test_linear_in_charge(self):
        assert baby_energy_closed(baby(charge=5)) == pytest.approx(5 * BABY_E_UNIT, rel=1e-12,
                                                                   abs=0)

    def test_small_mu_closed_form(self):
        p = baby(mu=1e-3)
        assert baby_energy_closed(p) == pytest.approx(2.0 / 3.0 * 1e-3, rel=0.01, abs=0)

    def test_mu_zero_rejected(self):
        with pytest.raises(DbisolError):
            baby_energy_closed(baby(mu=0.0))


class TestSkyrmeEnergies:
    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_standard_closed_vs_quadrature(self, sigma):
        p = skyrme(beta=math.sqrt(sigma))
        prof = solve_profile(p, STD)
        e_quad = energy_quadrature(prof, p, STD)
        e_closed = skyrme_standard_energy_closed(p)
        assert abs(e_quad - e_closed) / e_closed < 1e-6
        assert e_closed == pytest.approx(oracle_energy(p, "standard"), rel=1e-14, abs=0)

    def test_standard_sigma_one_value(self):
        # at sigma = 1 the closed bracket collapses to 8/3, giving 8 sqrt2 / (9 pi)
        e = skyrme_standard_energy_closed(skyrme())
        assert e == pytest.approx(8.0 * math.sqrt(2.0) / (9.0 * math.pi), abs=1e-14)

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_bps_closed_vs_quadrature(self, sigma):
        p = skyrme(beta=math.sqrt(sigma))
        prof = solve_profile(p, BPSPOT)
        e_quad = energy_quadrature(prof, p, BPSPOT)
        e_closed = skyrme_bps_energy_closed(p)
        assert abs(e_quad - e_closed) / e_closed < 1e-6
        assert e_closed == pytest.approx(oracle_energy(p, "bps"), rel=1e-14, abs=0)

    def test_bps_sigma_one_value(self):
        # z0 sqrt(1+z0^2) collapses to z0 (1 + pi/2) at sigma = 1
        z0 = 0.5 * math.sqrt(math.pi) * math.sqrt(math.pi + 4.0)
        expected = math.sqrt(2.0) / (6.0 * math.pi) * (z0 * (1 + math.pi / 2) - math.asinh(z0))
        got = skyrme_bps_energy_closed(skyrme())
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.336969, abs=5e-6)

    def test_standard_doubles_with_charge(self):
        assert skyrme_standard_energy_closed(skyrme(charge=2)) == pytest.approx(
            2 * skyrme_standard_energy_closed(skyrme()), rel=1e-14, abs=0)

    def test_bps_triples_with_charge(self):
        assert skyrme_bps_energy_closed(skyrme(charge=3)) == pytest.approx(
            3 * skyrme_bps_energy_closed(skyrme()), rel=1e-14, abs=0)


class TestCharge:
    def test_baby_unit(self):
        p = baby()
        prof = solve_profile(p, OLD)
        assert charge_quadrature(prof, p) == pytest.approx(1.0, abs=1e-6)

    def test_skyrme_charge_three(self):
        p = skyrme(charge=3)
        prof = solve_profile(p, STD)
        assert charge_quadrature(prof, p) == pytest.approx(3.0, abs=1e-6)

    def test_negative_charge(self):
        p = baby(charge=-2)
        prof = solve_profile(p, OLD)
        assert charge_quadrature(prof, p) == pytest.approx(-2.0, abs=1e-6)

    def test_truncated_profile_partial_charge(self):
        p = baby()
        x_half = float(Soliton("baby", "old:1", 1.0, 1.0, 1).coordinates([0.5])[0])
        prof = profile_on_grid(lambda x: baby_old_exact(x, p), p, OLD,
                               count=300, extent=x_half)
        assert charge_quadrature(prof, p) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("charge", [1, -2, 3])
    def test_full_profiles_carry_the_integer_exactly(self, charge):
        for p, pot in ((baby(charge=charge), OLD), (skyrme(charge=charge), STD),
                       (skyrme(charge=charge), BPSPOT)):
            assert charge_quadrature(solve_profile(p, pot), p) == charge

    def test_truncated_skyrme_profile_partial_charge(self):
        p = skyrme(beta=2.0)
        z0 = skyrme_standard_radius(p.sigma)
        prof = profile_on_grid(lambda z: skyrme_standard_exact(z, p.sigma), p, STD,
                               count=300, extent=0.5 * z0)
        lo, hi = prof.field_range()
        want = mp.quad(lambda x: 2 / mp.pi * mp.sin(x) ** 2, [lo, hi])
        assert charge_quadrature(prof, p) == pytest.approx(float(want), rel=1e-14, abs=0)

    def test_compacton_field_range_reaches_the_vacuum(self):
        # regression: the lower end was the last interior sample (about 7e-81),
        # and the energy missed the average route by 3.75e-8
        p = baby(beta=0.10598984467990771, mu=5.2659254551851475, charge=-2)
        pot = make_potential("old-baby-power", 1.5)
        prof = solve_profile(p, pot)
        assert prof.field_range() == (0.0, 1.0)
        assert compute_energy_report(prof, p, pot).rel_discrepancy_avg <= 1e-12


class TestAverages:
    def test_baby_average_matches_quadrature(self):
        for p in (baby(), baby(beta=0.7, mu=1.4, charge=2)):
            prof = solve_profile(p, OLD)
            per = energy_quadrature(prof, p, OLD) / abs(p.charge)
            assert abs(energy_per_charge_average(p, OLD) - per) / per < 1e-8

    def test_baby_average_against_independent_integral(self):
        # <sqrt(h^2 + 2h)> with flat unit measure, times mu/sqrt(2)
        val = float(Soliton("baby", "old:1", 1.0, 1.0, 1).average_energy())
        assert energy_per_charge_average(baby(), OLD) == pytest.approx(val, rel=1e-14, abs=0)
        assert val == pytest.approx(BABY_E_UNIT, abs=1e-15)

    @pytest.mark.parametrize("pot,sigma", [(STD, 1.0), (STD, 4.0), (BPSPOT, 1.0),
                                           (BPSPOT, 0.25)])
    def test_skyrme_average_matches_quadrature(self, pot, sigma):
        p = skyrme(beta=math.sqrt(sigma))
        prof = solve_profile(p, pot)
        per = energy_quadrature(prof, p, pot) / abs(p.charge)
        assert abs(energy_per_charge_average(p, pot) - per) / per < 1e-8

    def test_mu_zero_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="no soliton"):
            assert energy_per_charge_average(baby(mu=0.0), OLD) == 0.0
        power = baby(mu=0.0, kinetic_law=KineticLaw.power(2.0))
        for route in (energy_per_charge_average, power_family_energy_per_charge):
            with pytest.warns(UserWarning, match="no soliton"):
                assert route(power, OLD) == 0.0

    @pytest.mark.parametrize("law", [KineticLaw.dbi(), KineticLaw.power(0.75)],
                             ids=["dbi", "ak0.75"])
    @pytest.mark.parametrize("model,pot", [(baby(mu=0.0), OLD), (skyrme(mu=0.0), STD)],
                             ids=["baby", "skyrme"])
    def test_energy_integral_is_zero_at_mu_zero(self, model, pot, law):
        # B0 = 0 everywhere, so the integrand takes its limit 0 at every node
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy = bps_energy_integral(replace(model, kinetic_law=law), pot)
        assert energy == 0.0

    def test_power_family_oracle(self):
        p = baby(kinetic_law=KineticLaw.power(1.0))
        got = power_family_energy_per_charge(p, OLD)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-12, abs=0)
        # dual route: quadrature over the solved power-family compacton
        prof = solve_profile(p, OLD)
        per = energy_quadrature(prof, p, OLD) / abs(p.charge)
        assert abs(got - per) / per < 1e-8

    def test_power_family_scales_with_mu(self):
        p = baby(mu=2.0, kinetic_law=KineticLaw.power(1.0))
        assert power_family_energy_per_charge(p, OLD) == pytest.approx(8.0 / 3.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("law", [KineticLaw.dbi(), KineticLaw.power(0.75),
                                     KineticLaw.power(2.0)], ids=["dbi", "ak0.75", "ak2"])
    @pytest.mark.parametrize("model,pot", [(baby(mu=0.7), OLD), (skyrme(mu=0.7), BPSPOT)],
                             ids=["baby", "skyrme"])
    def test_public_names_agree(self, model, pot, law):
        model = replace(model, kinetic_law=law)
        assert power_family_energy_per_charge(model, pot) == energy_per_charge_average(model, pot)


class TestLinearity:
    @pytest.mark.parametrize("sector,pot,law", [
        (Sector.BABY2D, OLD, KineticLaw.dbi()),
        (Sector.BABY2D, OLD, KineticLaw.power(1.0)),
        (Sector.BABY2D, OLD, KineticLaw.power(0.75)),
        (Sector.SKYRME3D, STD, KineticLaw.dbi()),
        (Sector.SKYRME3D, BPSPOT, KineticLaw.dbi()),
    ])
    def test_energy_per_charge_constant(self, sector, pot, law):
        per = []
        for n in range(1, 6):
            p = ModelParams(1.0, 1.0, n, sector, law)
            prof = solve_profile(p, pot, GridSpec(count=400))
            per.append(energy_quadrature(prof, p, pot) / n)
        spread = (max(per) - min(per)) / per[0]
        assert spread < 1e-8


class TestSweeps:
    def test_small_mu_slope(self):
        res = small_mu_sweep(baby(), [1e-2, 1e-3, 1e-4], OLD)
        assert res.slope == pytest.approx(2.0 / 3.0, rel=0.01, abs=0)

    def test_small_mu_slope_charge_four(self):
        res = small_mu_sweep(baby(charge=4), [1e-2, 1e-3, 1e-4], OLD)
        assert res.slope == pytest.approx(8.0 / 3.0, rel=0.01, abs=0)

    def test_small_mu_power_law_fits_the_exponent(self):
        res = small_mu_sweep(baby(kinetic_law=KineticLaw.power(2.0)), [1e-2, 1e-3, 1e-4], OLD)
        assert res.slope is None
        assert abs(res.exponent - 1.5) <= 1e-12

    def test_small_mu_power_law_needs_three_distinct_points(self):
        with pytest.raises(DbisolError, match="3 distinct mu values"):
            small_mu_sweep(baby(kinetic_law=KineticLaw.power(2.0)), [1e-2, 1e-2, 1e-3], OLD)

    def test_small_mu_needs_three_points(self):
        with pytest.raises(DbisolError):
            small_mu_sweep(baby(), [0.5], OLD)

    def test_large_beta_exponent(self):
        res = large_beta_sweep(baby(), [10.0, 100.0, 1000.0], OLD)
        assert res.exponent == pytest.approx(-2.0, abs=0.1)

    def test_large_beta_distance_ratio(self):
        res = large_beta_sweep(baby(), [10.0, 100.0, 1000.0], OLD)
        ratio = res.distances[0] / res.distances[1]
        assert 80.0 < ratio < 125.0

    def test_large_beta_rejects_the_power_law(self):
        # the power law has no beta: every distance would be the same
        with pytest.raises(DbisolError, match="power law has no beta"):
            large_beta_sweep(baby(kinetic_law=KineticLaw.power(2.0)), [10.0, 20.0, 40.0],
                             OLD)

    def test_large_beta_needs_three_points(self):
        with pytest.raises(DbisolError):
            large_beta_sweep(baby(), [10.0, 100.0], OLD)

    @pytest.mark.parametrize("sweep,values", [(small_mu_sweep, [1e-2, 1e-3, 1e-4]),
                                              (large_beta_sweep, [10.0, 100.0, 1000.0])])
    def test_planar_potential_is_refused_in_3d(self, sweep, values):
        with pytest.raises(SectorMismatchError, match="does not match sector skyrme"):
            sweep(skyrme(), values, OLD)

    def test_limiting_slope_value(self):
        # dh/dx -> -(2 sqrt2 pi / |n|) mu sqrt(2 V) on the planar chart, at sigma = inf
        limit = baby(beta=1e300)
        b = limit.kinetic_law.density(OLD.evaluate(1.0), limit.sigma)
        slope = -b / Sector.BABY2D.chart.length_unit(limit)
        assert slope == pytest.approx(-4.0 * math.pi, abs=1e-12)

    @pytest.mark.parametrize("mu,n", [(1.0, 1), (0.5, 2), (2.0, -3)])
    def test_limit_model_solves_the_bps_compacton(self, mu, n):
        # as beta -> infinity the planar compacton of V = h tends to
        # h = (2 pi mu (x0 - x) / |n|)^2 with x0 = |n| / (2 pi mu)
        limit = baby(beta=1e300, mu=mu, charge=n)
        assert limit.sigma == math.inf
        x0 = abs(n) / (2.0 * math.pi * mu)
        x = np.linspace(0.0, 1.2 * x0, 241)
        want = np.where(x < x0, (2.0 * math.pi * mu * (x0 - x) / abs(n)) ** 2, 0.0)
        np.testing.assert_allclose(profile_field_at(limit, OLD, x), want, rtol=0, atol=1e-13)


class TestEnergyReport:
    def test_json_keys(self):
        p = baby()
        prof = solve_profile(p, OLD, GridSpec(count=400))
        rep = compute_energy_report(prof, p, OLD)
        d = rep.to_json_dict()
        assert set(d) == {"energy_quadrature", "energy_closed_form",
                          "energy_per_charge_avg", "charge",
                          "rel_discrepancy_closed", "rel_discrepancy_avg"}
        assert d["rel_discrepancy_closed"] < 1e-6
        assert d["rel_discrepancy_avg"] < 1e-8
        assert d["charge"] == pytest.approx(1.0, abs=1e-6)

    def test_no_closed_form_for_generic_potential(self):
        pot = make_potential("old-baby-power", 1.5)
        p = baby()
        prof = solve_profile(p, pot, GridSpec(count=400))
        rep = compute_energy_report(prof, p, pot)
        assert rep.energy_closed_form is None
        assert rep.rel_discrepancy_closed is None
        assert rep.rel_discrepancy_avg < 1e-8


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
COUPLINGS = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0 ** e)
WIDE = st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0 ** e)
CHARGES = st.integers(min_value=-5, max_value=5).filter(lambda n: n != 0)
BUILT_IN = [(Sector.BABY2D, make_potential("old-baby-power", a))
            for a in (0.5, 1.0, 1.5, 2.0, 3.0)]
BUILT_IN += [(Sector.SKYRME3D, STD), (Sector.SKYRME3D, BPSPOT)]


class TestEnergyEqualsChargeTimesAverage:
    @pytest.mark.parametrize("sector,pot", BUILT_IN,
                             ids=[f"{s.value}-{p.tag}-{p.vacuum_exponent}" for s, p in BUILT_IN])
    @PROPERTY
    @given(beta=COUPLINGS, mu=COUPLINGS, n=CHARGES)
    def test_dbi(self, sector, pot, beta, mu, n):
        p = ModelParams(beta, mu, n, sector)
        assert bps_energy_integral(p, pot) == pytest.approx(
            abs(n) * energy_per_charge_average(p, pot), rel=1e-12, abs=0)

    @PROPERTY
    @given(beta=COUPLINGS, mu=COUPLINGS, n=CHARGES,
           alpha=st.sampled_from([0.5000001, 0.75, 1.0, 2.0]),
           a=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_power_law(self, beta, mu, n, alpha, a):
        p = baby(beta=beta, mu=mu, charge=n, kinetic_law=KineticLaw.power(alpha))
        pot = make_potential("old-baby-power", a)
        assert bps_energy_integral(p, pot) == pytest.approx(
            abs(n) * power_family_energy_per_charge(p, pot), rel=1e-12, abs=0)

    @pytest.mark.parametrize("sector,pot", BUILT_IN,
                             ids=[f"{s.value}-{p.tag}-{p.vacuum_exponent}" for s, p in BUILT_IN])
    @PROPERTY
    @given(beta=WIDE, mu=WIDE, n=CHARGES, alpha_k=st.sampled_from([None, 0.75, 1.0, 2.0]))
    def test_both_laws_over_the_wide_range(self, sector, pot, beta, mu, n, alpha_k):
        law = KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)
        p = ModelParams(beta, mu, n, sector, law)
        assert energy_per_charge_average(p, pot) == pytest.approx(
            bps_energy_integral(p, pot) / abs(n), rel=1e-12, abs=0)


class TestBabyClosedFormAgainstMpmath:
    """The planar closed form over the paper's range, small mu included."""

    @PROPERTY
    @given(beta=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
           mu=st.floats(-10.0, 4.0).map(lambda e: 10.0 ** e), n=CHARGES)
    def test_matches_the_average_route(self, beta, mu, n):
        # E = |n| (mu / sqrt2) int_0^1 sqrt(mu^2 h^2 / beta^2 + 2 h) dh for V = h
        with mp.workdps(30):
            b, m = mp.mpf(beta), mp.mpf(mu)
            want = abs(n) * m / mp.sqrt(2) * mp.quad(
                lambda h: mp.sqrt(m ** 2 * h ** 2 / b ** 2 + 2 * h), [0, 1])
        got = baby_energy_closed(baby(beta=beta, mu=mu, charge=n))
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("beta,mu", [(1.0, 1e-3), (1.0, 1e-5), (100.0, 1e-2), (1.0, 1e-8),
                                         (1.0, 1e-10), (2.5, 0.7), (1e-2, 1e4)])
    def test_named_points(self, beta, mu):
        with mp.workdps(30):
            b, m = mp.mpf(beta), mp.mpf(mu)
            want = m / mp.sqrt(2) * mp.quad(
                lambda h: mp.sqrt(m ** 2 * h ** 2 / b ** 2 + 2 * h), [0, 1])
        assert abs(baby_energy_closed(baby(beta=beta, mu=mu)) - want) <= 1e-12 * want


class TestStandardClosedFormAgainstMpmath:
    """The standard 3-D closed form for sigma log-uniform in [1e-6, 1e8]."""

    @staticmethod
    def mp_closed(beta, mu, n):
        with mp.workdps(40):
            b, m = mp.mpf(beta), mp.mpf(mu)
            s = b ** 2 / m ** 2
            rs = mp.sqrt(s)
            bracket = (1 - s) ** 2 * rs + (1 - s) * (1 + s) ** 2 * mp.atan(1 / rs) \
                + mp.mpf(8) / 3 * s * rs
            return mp.sqrt(2) * abs(n) * b / (3 * mp.pi * s) * bracket

    @PROPERTY
    @given(sigma=st.floats(-6.0, 8.0).map(lambda e: 10.0 ** e),
           mu=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e), n=CHARGES)
    def test_matches_mpmath(self, sigma, mu, n):
        p = skyrme(beta=mu * math.sqrt(sigma), mu=mu, charge=n)
        want = self.mp_closed(p.beta, p.mu, n)
        assert abs(skyrme_standard_energy_closed(p) - want) <= 1e-12 * want

    @pytest.mark.parametrize("beta,mu", [(1e-3, 1.0), (1.0, 1.0), (4.0, 1.0),
                                         (4.000000000000001, 1.0), (6.31, 0.1), (100.0, 1.0),
                                         (1e4, 1.0)])
    def test_named_points(self, beta, mu):
        # the switch to the series sits just above sigma = 16; the average
        # route is an integral apart from the closed formula
        p = skyrme(beta=beta, mu=mu)
        want = self.mp_closed(beta, mu, 1)
        assert abs(skyrme_standard_energy_closed(p) - want) <= 1e-12 * want
        assert skyrme_standard_energy_closed(p) == pytest.approx(
            mp_energy("skyrme", "standard", beta, mu, 1), rel=1e-12, abs=0)


def mp_energy(sector, potential, beta, mu, n, alpha_k=None):
    """|n| times the per-charge target average, at 30 digits and apart from dbisol."""
    with mp.workdps(30):
        beta, mu = mp.mpf(beta), mp.mpf(mu)
        if potential.startswith("old:") or potential.startswith("power:"):
            a = mp.mpf(potential.split(":")[1])
            v = lambda s: s ** a  # noqa: E731
        else:
            v = lambda s: 2 * mp.sin(s / 2) ** 2  # noqa: E731
        if alpha_k is None:
            def fn(s):
                return mu / mp.sqrt(2) * mp.sqrt(mu ** 2 * v(s) ** 2 / beta ** 2 + 2 * v(s))
        else:
            k = mp.mpf(alpha_k)

            def fn(s):
                return 2 * k * ((2 * k - 1) / mu ** 2) ** (1 / (2 * k) - 1) \
                    * v(s) ** (1 - 1 / (2 * k))
        if sector == "baby":
            avg = mp.quad(fn, [0, 0.25, 0.5, 1])
        else:
            avg = mp.quad(lambda s: 2 / mp.pi * mp.sin(s) ** 2 * fn(s),
                          [0, mp.pi / 4, mp.pi / 2, mp.pi]) / 3
        return float(abs(n) * avg)


EDGE_CASES = [
    ("skyrme", "standard", 1e4, 1.0, 1, None),        # sigma = 1e8
    ("baby", "old:1", 1.0, 1e-8, 1, None),            # mu = 1e-8
    ("skyrme", "standard", 1.0, 1e-8, 2, None),
    ("baby", "old:1.99", 1.0, 1.0, 1, None),          # next to the planar threshold
    ("baby", "old:50", 1.0, 1.0, -3, None),           # far above it
    ("skyrme", "power:5.99", 1.0, 1.0, 1, None),      # next to the 3-D threshold
    ("baby", "old:1", 1.0, 1.0, 1, 0.5000001),        # power law next to alpha_k = 1/2
    ("baby", "old:1.5", 0.10598984467990771, 5.2659254551851475, -2, None),
]


@pytest.mark.parametrize("sector,potential,beta,mu,n,alpha_k", EDGE_CASES)
def test_edge_configurations_match_mpmath(sector, potential, beta, mu, n, alpha_k):
    cfg = RunConfig(sector=sector, potential=potential, beta=beta, mu=mu, n=n, alpha_k=alpha_k)
    p, pot = cfg.model(), cfg.make_potential()
    want = mp_energy(sector, potential, beta, mu, n, alpha_k)
    per = energy_per_charge_average if alpha_k is None else power_family_energy_per_charge
    assert bps_energy_integral(p, pot) == pytest.approx(want, rel=1e-12, abs=0)
    assert abs(n) * per(p, pot) == pytest.approx(want, rel=1e-12, abs=0)
