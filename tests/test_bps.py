import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import kinetic

from dbisol import (DbisolError, GridSpec, KineticLaw, ModelParams, Sector, SectorMismatchError,
                    baby_old_exact, baby_old_radius, bps_energy_integral,
                    eom_residual, make_potential, profile_on_grid, skyrme_standard_exact,
                    skyrme_standard_radius, solve_profile)

OLD = make_potential("old-baby-power", 1.0)
STD = make_potential("skyrme-standard")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def baby(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.BABY2D)
    base.update(kw)
    return ModelParams(**base)


def skyrme(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.SKYRME3D)
    base.update(kw)
    return ModelParams(**base)


def dbi_density(v, params):
    """B0 of the DBI first-order law at potential value v."""
    return params.units[0] * KineticLaw.dbi().density(v, params.sigma)


def power_density(v, mu, alpha_k):
    """B0 of the pure-power first-order law at potential value v."""
    model = baby(mu=mu, kinetic_law=KineticLaw.power(alpha_k))
    return model.units[0] * model.kinetic_law.density(v, model.sigma)


def law_density(params, potential, field):
    """B0 of the model's first-order law at target coordinates."""
    return params.units[0] * params.kinetic_law.density(potential.evaluate(field), params.sigma)


class TestDbiDensity:
    def test_vacuum(self):
        assert dbi_density(0.0, baby(beta=2.0, mu=0.7)) == 0.0

    def test_unit_couplings_against_defining_relation(self):
        # independent oracle: root of 1/sqrt(1 - B^2/(2 b^2)) = mu^2 V / b^2 + 1
        with mp.workdps(30):
            expected = mp.findroot(lambda b0: 1 / mp.sqrt(1 - b0 ** 2 / 2) - 2, (0.5, 1.4),
                                   solver="anderson")
            assert abs(expected - mp.sqrt(1.5)) < 1e-25
        assert dbi_density(1.0, baby()) == pytest.approx(float(expected), abs=1e-14)

    def test_bounded_and_monotone(self):
        p = baby(beta=1.3, mu=0.8)
        vals = dbi_density(np.linspace(0, 50, 200), p)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals < math.sqrt(2) * p.beta)

    def test_large_beta_limit_rate(self):
        # deviation from the sigma = inf density 2 mu sqrt(V) decays like beta^-2
        betas = np.array([10.0, 100.0, 1000.0])
        devs = []
        for b in betas:
            want = law_density(baby(beta=1e300), OLD, 1.0)
            assert want == 2.0
            devs.append(abs(dbi_density(1.0, baby(beta=b)) - want) / want)
        slope = np.polyfit(np.log(betas), np.log(devs), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_rejects_negative_potential(self):
        with pytest.raises(DbisolError):
            dbi_density(-0.1, baby())


class TestPowerDensity:
    def test_alpha_one_is_mu_sqrt_v(self):
        assert power_density(4.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-15)
        assert power_density(1.0, 2.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_three_quarters_against_defining_relation(self):
        # oracle: (2a - 1) W^(2a) = mu^2 V solved numerically
        a = mp.mpf(0.75)
        with mp.workdps(30):
            expected = mp.findroot(lambda w: (2 * a - 1) * w ** (2 * a) - 1, (1e-6, 10.0),
                                   solver="anderson")
            assert abs(expected - 2 ** (mp.mpf(2) / 3)) < 1e-25
        got = power_density(1.0, 1.0, 0.75)
        assert got == pytest.approx(float(expected), abs=1e-12)
        assert got == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)

    def test_rejects_half(self):
        with pytest.raises(DbisolError):
            KineticLaw.power(0.5)


def assert_first_order_relation(alpha_k, beta, mu2v):
    """B0 = KineticLaw.density solves B0 K'(B0) - K(B0) = mu^2 V to 1e-12
    relative, with K from the mpmath oracle and K' = mp.diff(K)."""
    law = KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)
    # at mu = 1, so that V = mu^2 V
    model = baby(beta=beta, kinetic_law=law)
    b0 = model.units[0] * float(law.density(mu2v, model.sigma))
    with mp.workdps(40):
        a = None if alpha_k is None else mp.mpf(alpha_k)
        w = mp.mpf(b0)
        lhs = w * mp.diff(lambda t: kinetic(t, mp.mpf(beta), a), w) - kinetic(w, mp.mpf(beta), a)
    assert float(lhs) == pytest.approx(mu2v, rel=1e-12, abs=0.0)


class TestNumericDensity:
    """The closed-form B0 of each law against its defining relation
    B0 K'(B0) - K(B0) = mu^2 V, evaluated numerically in mpmath."""

    # mu^2 V / beta^2 up to 10: near the DBI ceiling the relation amplifies
    # the rounding of B0 by (1 + mu^2 V / beta^2)^2
    @PROPERTY
    @given(log_uniform(0.1, 10.0), log_uniform(1e-8, 10.0))
    def test_matches_dbi_closed_form_on_sample(self, beta, e):
        assert_first_order_relation(None, beta, e * beta ** 2)

    @PROPERTY
    @given(st.floats(0.51, 10.0), log_uniform(1e-8, 1e4))
    def test_matches_power_closed_form_on_sample(self, alpha_k, mu2v):
        assert_first_order_relation(alpha_k, 1.0, mu2v)

    def test_vacuum_root(self):
        for law in (KineticLaw.dbi(), KineticLaw.power(0.75)):
            assert float(law.density(0.0, 1.3)) == 0.0
            assert float(law.kinetic(0.0, 1.3)) == 0.0


def chart_slope(field, potential, params):
    """Jacobian times dfield/dcoordinate on the first-order law, -b / length_unit."""
    b = params.kinetic_law.density(potential.evaluate(field), params.sigma)
    return -b / params.sector.chart.length_unit(params)


class TestSlopes:
    def test_baby_vacuum(self):
        assert chart_slope(0.0, OLD, baby()) == 0.0

    def test_baby_at_anti_vacuum(self):
        assert chart_slope(1.0, OLD, baby()) == pytest.approx(-math.sqrt(6) * math.pi,
                                                              abs=1e-12)

    def test_baby_mu_zero_flat(self):
        # the slope is B0 over a coordinate scale: B0 = U_B b vanishes with U_B = mu
        assert law_density(baby(mu=0.0), OLD, 0.7) == 0.0

    def test_baby_domain_error(self):
        with pytest.raises(SectorMismatchError):
            Sector.BABY2D.chart_for(replace(OLD, domain=(0.0, 1.2)))

    def test_skyrme_vacuum(self):
        assert chart_slope(0.0, STD, skyrme()) == 0.0

    def test_skyrme_at_anti_vacuum(self):
        got = chart_slope(math.pi, STD, skyrme())
        assert got == pytest.approx(-2.0 * math.sqrt(2.0) / 3.0, abs=1e-14)

    def test_skyrme_range(self):
        vals = chart_slope(np.linspace(0, math.pi, 100), STD, skyrme(beta=0.6))
        assert np.all(vals <= 0) and np.all(vals >= -1)

    def test_bps_potential_vacuum_slope(self):
        pot = make_potential("bps-potential")
        assert chart_slope(0.0, pot, skyrme()) == 0.0

    def test_sector_mismatch(self):
        with pytest.raises(SectorMismatchError):
            Sector.BABY2D.chart_for(STD)


def exact_baby_profile(model, delta, perturb=0.0, bump_width_steps=20):
    pot = make_potential("old-baby-power", 1.0)
    x0 = baby_old_radius(model)
    prof = profile_on_grid(lambda x: baby_old_exact(x, model), model, pot,
                           spacing=delta, extent=x0 + 10 * delta, compacton_radius=x0)
    if perturb:
        bump = perturb * np.exp(-((prof.coordinates - 0.5 * x0)
                                  / (bump_width_steps * delta)) ** 2)
        prof = replace(prof, field=np.clip(prof.field + bump, 0.0, 1.0))
    return prof


def exact_skyrme_profile(model, delta):
    pot = make_potential("skyrme-standard")
    z0 = skyrme_standard_radius(model.sigma)
    return profile_on_grid(lambda z: skyrme_standard_exact(z, model.sigma), model, pot,
                           spacing=delta, extent=z0 + 10 * delta, compacton_radius=z0)


def coarse_and_fine(build):
    """Residual maxima at spacings 1e-3 and 5e-4, 1e-2 (10 and 20 samples) from the edges."""
    return [eom_residual(build(delta), margin=round(1e-2 / delta)).max_abs_residual
            for delta in (1e-3, 5e-4)]


class TestEomResidual:
    def test_vacuum_segment_is_exact(self):
        pot = make_potential("old-baby-power", 1.0)
        prof = profile_on_grid(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                               baby(), pot, spacing=1e-3, extent=0.5)
        rep = eom_residual(prof)
        assert rep.max_abs_residual == 0.0
        assert len(rep.residuals) == 0

    def test_baby_richardson_ratio(self):
        r1, r2 = coarse_and_fine(lambda delta: exact_baby_profile(baby(), delta))
        assert r1 / r2 == pytest.approx(4.0, abs=0.5)

    def test_skyrme_richardson_ratio(self):
        r1, r2 = coarse_and_fine(lambda delta: exact_skyrme_profile(skyrme(), delta))
        assert r1 / r2 == pytest.approx(4.0, abs=0.5)

    def test_bump_sensitivity(self):
        clean = eom_residual(exact_baby_profile(baby(), 1e-3)).max_abs_residual
        bumped = eom_residual(exact_baby_profile(baby(), 1e-3, perturb=0.01)).max_abs_residual
        assert bumped > 10.0 * clean

    def test_rounding_floor_is_eps_over_the_squared_step(self):
        model = baby()
        rep = eom_residual(exact_baby_profile(model, 1e-3))
        step = rep.grid_spacing / model.sector.chart.length_unit(model)
        want = np.finfo(float).eps / step ** 2
        assert rep.rounding_floor == pytest.approx(want, rel=1e-15, abs=0)

    def test_residual_count_matches_interior(self):
        rep = eom_residual(exact_baby_profile(baby(), 1e-3))
        assert len(rep.residuals) == len(rep.coordinates)
        assert len(rep.residuals) > 100

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
    def test_edge_samples_do_not_depend_on_rounding(self, exponent):
        # the sample 5 spacings inside each support edge counts whatever the
        # coordinates round to: the same compacton on a radius up to 8e-9
        # relative larger or smaller keeps every sample but the 5 at each edge
        prof = solve_profile(baby(), make_potential("old-baby-power", exponent))
        counts = {len(eom_residual(replace(prof, coordinates=prof.coordinates * (1 + k * 1e-9)))
                      .residuals) for k in range(-8, 9)}
        support = int((prof.field > 1e-12).sum())
        assert counts == {support - 10}

    def test_rejects_short_profiles(self):
        pot = make_potential("old-baby-power", 1.0)
        prof = profile_on_grid(lambda x: baby_old_exact(x, baby()), baby(), pot,
                               count=50, extent=baby_old_radius(baby()))
        with pytest.raises(DbisolError, match="100"):
            eom_residual(prof)

    def test_rejects_nonuniform_grid(self):
        prof = exact_baby_profile(baby(), 1e-3)
        coords = prof.coordinates.copy()
        coords[5] += 3e-4
        with pytest.raises(DbisolError, match="uniform"):
            eom_residual(replace(prof, coordinates=coords))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_law_implies_eom_for_random_couplings(self, seed):
        rng = np.random.default_rng(seed)
        model = baby(beta=float(rng.uniform(0.5, 2.0)), mu=float(rng.uniform(0.5, 2.0)),
                     charge=int(rng.integers(1, 4)))
        r1, r2 = coarse_and_fine(lambda delta: exact_baby_profile(model, delta))
        assert r1 / r2 == pytest.approx(4.0, abs=0.6)
        assert r1 < 1.0 / (8.0 * math.pi ** 2)

    @pytest.mark.parametrize("alpha_k,exponent,width",
                             [(2.0, 2.0, None), (0.75, 1.0, 1e-2)], ids=["ak2-old2", "ak0.75-old1"])
    def test_power_law_residual_converges(self, alpha_k, exponent, width):
        # the residual is the power law's own Euler-Lagrange equation, so it
        # falls like the square of the spacing on the solved profile; width,
        # when given, is the margin in the coordinate, rounded to samples
        model = baby(kinetic_law=KineticLaw.power(alpha_k))
        pot = make_potential("old-baby-power", exponent)
        res = []
        for g in (1000, 2000, 4000):
            prof = solve_profile(model, pot, GridSpec(count=g))
            delta = prof.coordinates[1] - prof.coordinates[0]
            margin = 5 if width is None else round(width / delta)
            res.append(eom_residual(prof, margin=margin).max_abs_residual)
        assert 3.5 <= res[0] / res[1] <= 4.5
        assert 3.5 <= res[1] / res[2] <= 4.5


class TestBpsLaw:
    def test_density_vanishes_at_vacuum_and_respects_ceiling(self):
        for model, pot in ((baby(beta=0.8), OLD), (skyrme(beta=1.5), STD)):
            assert float(law_density(model, pot, 0.0)) == 0.0
            grid = np.linspace(0.0, pot.domain[1], 300)
            assert np.all(law_density(model, pot, grid) >= 0)
            assert np.all(law_density(model, pot, grid) < math.sqrt(2) * model.beta)

    def test_power_law_origin(self):
        model = baby(kinetic_law=KineticLaw.power(1.0))
        v = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(model.kinetic_law.density(v, model.sigma),
                                      power_density(v, 1.0, 1.0))
        assert float(law_density(model, OLD, 0.25)) == pytest.approx(0.5, abs=1e-14)

    def test_density_is_of_potential_at_the_potential_value(self):
        # the profile's charge density is the law at the potential value of its field
        model = skyrme(beta=1.5, mu=0.7)
        chart = model.sector.chart
        prof = solve_profile(model, STD, GridSpec(count=200))
        inside = prof.field > 0.0
        b = model.kinetic_law.density(STD.evaluate(prof.field[inside]), model.sigma)
        np.testing.assert_array_equal(
            prof.charge_density[inside],
            model.charge * chart.unit_weight * np.abs(-b / chart.length_unit(model)))

    @pytest.mark.parametrize("kinetic_law", [KineticLaw.dbi(), KineticLaw.power(0.75)])
    def test_potential_evaluated_once_per_node(self, kinetic_law):
        calls = []

        def counted(s):
            calls.append(np.size(s))
            return OLD.evaluate(s)
        pot = replace(OLD, evaluate=counted)
        model = baby(kinetic_law=kinetic_law)
        bps_energy_integral(model, pot)
        # tanh-sinh calls the integrand once, on every node
        assert len(calls) == 1
        calls.clear()
        prof = profile_on_grid(lambda x: baby_old_exact(x, baby()), model, pot, count=300,
                               extent=1.2 * baby_old_radius(baby()))
        assert calls == [np.count_nonzero(prof.field > 0.0)]
