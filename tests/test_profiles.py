import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from mp_oracle import Soliton

from dbisol import (DbisolError, GridSpec, KineticLaw, LocalizationClass, ModelParams,
                    NoSolitonError, Sector, angular_profile, baby_old_exact,
                    baby_old_radius, charge_quadrature, classify_localization,
                    compute_energy_report, endpoint_asymptotics, energy_quadrature,
                    make_potential, profile_field_at,
                    profile_on_grid,
                    skyrme_bps_exact, skyrme_bps_radius, skyrme_standard_exact,
                    skyrme_standard_implicit_lhs, skyrme_standard_radius,
                    solve_profile, tail_fit, write_profile_csv)
from dbisol.profiles import FIELD_FLOOR

OLD = make_potential("old-baby-power", 1.0)
STD = make_potential("skyrme-standard")
BPSPOT = make_potential("bps-potential")


def baby(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.BABY2D)
    base.update(kw)
    return ModelParams(**base)


def skyrme(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.SKYRME3D)
    base.update(kw)
    return ModelParams(**base)


def assert_interior_fields_match(prof, oracle, stride=25, rel=1e-12):
    """Every stride-th sample off both ends (0 < x <= 0.99 extent) against the oracle's
    field at the same coordinate, relative to the oracle."""
    x, f = prof.coordinates, prof.field
    extent = prof.compacton_radius or x[-1]
    idx = np.flatnonzero((x > 0.0) & (x <= 0.99 * extent))[::stride]
    want = oracle.fields(x[idx].tolist(), f[idx].tolist())
    with mp.workdps(30):
        worst = max(abs(mp.mpf(g) - w) / w for g, w in zip(f[idx].tolist(), want))
    assert worst <= rel


def xi_power_potential(a):
    return make_potential("custom",
                          evaluate=lambda xi: np.power(np.asarray(xi, dtype=float), a),
                          derivative=lambda xi: a * np.power(np.asarray(xi, dtype=float), a - 1),
                          domain=(0.0, math.pi), vacuum_coordinate=0.0, vacuum_exponent=a)


class TestExactBaby:
    def test_boundary_values(self):
        p = baby()
        assert baby_old_exact(0.0, p) == pytest.approx(1.0, abs=1e-14)
        x0 = baby_old_radius(p)
        assert baby_old_exact(x0, p) == 0.0
        assert baby_old_exact(x0 * 1.5, p) == 0.0

    def test_midpoint_value(self):
        p = baby()
        x0 = baby_old_radius(p)
        assert baby_old_exact(0.5 * x0, p) == pytest.approx(math.sqrt(7) / 2 - 1, abs=1e-12)

    def test_radius_formula(self):
        p = baby(beta=2.0, mu=0.5, charge=3)
        expected = 3 / (2 * math.pi) * math.sqrt(1 / 8 + 4.0)
        assert baby_old_radius(p) == pytest.approx(expected, abs=1e-15)

    def test_rejects_negative_coordinate(self):
        with pytest.raises(DbisolError):
            baby_old_exact(-0.1, baby())


class TestExactSkyrmeStandard:
    def test_boundaries(self):
        assert skyrme_standard_exact(0.0, 1.0) == math.pi
        z0 = skyrme_standard_radius(1.0)
        assert z0 == pytest.approx(2.0, abs=1e-12)
        assert skyrme_standard_exact(z0, 1.0) == 0.0
        assert skyrme_standard_exact(z0 + 0.5, 1.0) == 0.0

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_implicit_relation_residual(self, sigma):
        z0 = skyrme_standard_radius(sigma)
        zs = np.linspace(1e-6, z0 - 1e-6, 500)
        xi = skyrme_standard_exact(zs, sigma)
        resid = np.abs(skyrme_standard_implicit_lhs(xi, sigma) - zs)
        assert resid.max() <= 1e-10

    def test_edge_asymptote(self):
        # xi ~ sqrt(2 (z0 - z)) / sigma^(1/4) approaching the radius
        for sigma in (1.0, 4.0):
            z0 = skyrme_standard_radius(sigma)
            dz = 1e-3 * z0
            xi = skyrme_standard_exact(z0 - dz, sigma)
            assert xi / math.sqrt(2 * dz) == pytest.approx(sigma ** -0.25, rel=0.01, abs=0)

    @pytest.mark.parametrize("k", range(-8, 21))
    def test_matches_mpmath_at_every_sigma(self, k):
        # above sigma = 16 the two terms of the relation cancel like sigma eps;
        # the 40-digit reference keeps 20 digits of the radius at sigma = 1e20
        sigma = 10.0 ** k
        with mp.workdps(40):
            s = mp.mpf(sigma)
            radius = mp.sqrt(s) * (1 + s) + (1 - s * s) * mp.atan(1 / mp.sqrt(s))
            assert abs(skyrme_standard_radius(sigma) - radius) <= 5e-14 * radius
            xis = np.linspace(0.0, math.pi, 33)
            for xi, got in zip(xis, skyrme_standard_implicit_lhs(xis, sigma)):
                s2, c2 = mp.sin(mp.mpf(xi) / 2) ** 2, mp.cos(mp.mpf(xi) / 2) ** 2
                lhs = (s + 1 - 2 * s2) * mp.sqrt(c2 * (s + s2)) \
                    + (1 - s * s) * mp.atan(mp.sqrt(c2 / (s + s2)))
                assert abs(got - lhs) <= 5e-14 * radius, xi

    def test_core_asymptote(self):
        # xi ~ pi - core * z^(1/3) near the origin
        for sigma in (1.0, 4.0):
            z0 = skyrme_standard_radius(sigma)
            z = 1e-3 * z0
            xi = skyrme_standard_exact(z, sigma)
            core = endpoint_asymptotics(sigma)[1]
            assert (math.pi - xi) / z ** (1 / 3) == pytest.approx(core, rel=0.01, abs=0)


class TestExactSkyrmeBps:
    def test_boundaries(self):
        assert skyrme_bps_exact(0.0, 1.0) == math.pi
        z0 = skyrme_bps_radius(1.0)
        assert z0 == pytest.approx(0.5 * math.sqrt(math.pi) * math.sqrt(math.pi + 4), abs=1e-15)
        assert skyrme_bps_exact(z0, 1.0) == 0.0
        assert skyrme_bps_exact(z0 + 1.0, 1.0) == 0.0

    def test_incomplete_volume_closed_form(self):
        # eta(z) = sigma (sqrt(1 + ((z0-z)/sigma)^2) - 1) must hold at the sampled xi
        sigma = 2.0
        z0 = skyrme_bps_radius(sigma)
        zs = np.linspace(0.0, z0, 200)
        xi = skyrme_bps_exact(zs, sigma)
        eta = 0.5 * (xi - np.cos(xi) * np.sin(xi))
        w = (z0 - zs) / sigma
        expected = sigma * (np.sqrt(1 + w * w) - 1)
        assert np.max(np.abs(eta - expected)) < 1e-12


class TestAngularAndCoordinates:
    def test_angular_values(self):
        assert angular_profile(0.0) == 0.0
        assert angular_profile(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_angular_bracket_identity(self, theta):
        # g g' / ((1+g^2)^2 sin(theta)) = 1/4, with g' by central differences
        d = 1e-6
        g = angular_profile(theta)
        gp = (angular_profile(theta + d) - angular_profile(theta - d)) / (2 * d)
        bracket = g * gp / ((1 + g * g) ** 2 * math.sin(theta))
        assert bracket == pytest.approx(0.25, rel=1e-8, abs=0)

    def test_angular_pole(self):
        with pytest.raises(DbisolError):
            angular_profile(math.pi)

    def test_coordinate_map(self):
        assert Sector.BABY2D.chart.coordinate_map(1.0, baby()) == pytest.approx(0.5)
        got = Sector.SKYRME3D.chart.coordinate_map(1.0, skyrme())
        assert got == pytest.approx(2 * math.sqrt(2) * math.pi ** 2, abs=1e-12)
        assert Sector.SKYRME3D.chart.coordinate_map(0.0, skyrme()) == 0.0
        with pytest.raises(DbisolError):
            Sector.BABY2D.chart.coordinate_map(-1.0, baby())


class TestSolveBaby:
    @pytest.mark.parametrize("beta,mu", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
    def test_matches_exact(self, beta, mu):
        p = baby(beta=beta, mu=mu)
        prof = solve_profile(p, OLD)
        exact = baby_old_exact(prof.coordinates, p)
        assert np.max(np.abs(prof.field - exact)) <= 1e-8
        assert prof.compacton_radius == pytest.approx(baby_old_radius(p), abs=1e-8)
        prof.validate_invariants()

    def test_radius_scales_with_charge(self):
        r1 = solve_profile(baby(), OLD).compacton_radius
        r2 = solve_profile(baby(charge=2), OLD).compacton_radius
        assert r2 == pytest.approx(2 * r1, rel=1e-10, abs=0)

    def test_mu_zero_raises(self):
        with pytest.raises(NoSolitonError):
            solve_profile(baby(mu=0.0), OLD)

    def test_power_family_compacton(self):
        # alpha_k = 1 with the linear potential: h = (1 - pi x / |n|)^2
        p = baby(kinetic_law=KineticLaw.power(1.0))
        prof = solve_profile(p, OLD)
        expected = np.clip(1.0 - math.pi * prof.coordinates, 0.0, None) ** 2
        assert np.max(np.abs(prof.field - expected)) <= 1e-8
        assert prof.compacton_radius == pytest.approx(1 / math.pi, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_power_family_compacton_to_rounding(self, n):
        # the same compacton, whose inverse-map integrand is the constant 2:
        # what is left is the rounding of the prefix sums and the inversion
        prof = solve_profile(baby(charge=n, kinetic_law=KineticLaw.power(1.0)), OLD)
        x0 = mp.mpf(n) / mp.pi
        with mp.workdps(30):
            assert abs(prof.compacton_radius - x0) / x0 <= 1e-15
            x = prof.coordinates
            inside = (x > 0.0) & (x < 0.99 * float(x0))
            worst = max(abs(g - (1 - mp.mpf(xx) / x0) ** 2) / (1 - mp.mpf(xx) / x0) ** 2
                        for xx, g in zip(x[inside].tolist(), prof.field[inside].tolist()))
        assert worst <= 1e-13

    @pytest.mark.parametrize("tag,alpha_k,beta,mu", [("old:0.5", None, 0.148, 0.298),
                                                     ("old:1", 2.0, 6.07, 1.48)],
                             ids=["old:0.5", "old:1-ak2"])
    def test_radius_where_b0_vanishes_like_a_low_power(self, tag, alpha_k, beta, mu):
        # B0 vanishes like the field to a power below 1/2, so the integrand
        # in ln(field) falls off steeply toward the closed-form piece
        law = KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)
        prof = solve_profile(baby(beta=beta, mu=mu, kinetic_law=law),
                             make_potential("old-baby-power", float(tag[4:])))
        oracle = Soliton("baby", tag, beta, mu, 1, alpha_k)
        assert prof.compacton_radius == pytest.approx(float(oracle.radius()), rel=1e-13, abs=0)

    def test_padding_and_grid(self):
        grid = GridSpec(count=500)
        prof = solve_profile(baby(), OLD, grid)
        assert len(prof.field) == 510
        assert np.all(prof.field[-10:] == 0.0)
        steps = np.diff(prof.coordinates)
        assert np.allclose(steps, steps[0], rtol=1e-9)

    def test_fields_match_mpmath_oracle(self):
        prof = solve_profile(baby(beta=1.3, mu=0.8), OLD)
        assert_interior_fields_match(prof, Soliton("baby", "old:1", 1.3, 0.8, 1))


class TestSolveSkyrme:
    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_standard_matches_exact(self, sigma):
        p = skyrme(beta=math.sqrt(sigma))
        prof = solve_profile(p, STD)
        exact = skyrme_standard_exact(prof.coordinates, sigma)
        assert np.max(np.abs(prof.field - exact)) <= 1e-8
        assert prof.compacton_radius == pytest.approx(skyrme_standard_radius(sigma), abs=1e-8)
        prof.validate_invariants()

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_bps_matches_exact(self, sigma):
        p = skyrme(beta=math.sqrt(sigma))
        prof = solve_profile(p, BPSPOT)
        exact = skyrme_bps_exact(prof.coordinates, sigma)
        assert np.max(np.abs(prof.field - exact)) <= 1e-8
        assert prof.compacton_radius == pytest.approx(skyrme_bps_radius(sigma), abs=1e-8)

    def test_first_derivative_sample_is_unbounded(self):
        prof = solve_profile(skyrme(), STD)
        assert prof.field[0] == math.pi
        assert prof.derivative[0] == -math.inf
        assert np.all(np.isfinite(prof.energy_density))
        assert np.all(np.isfinite(prof.charge_density))

    def test_energy_density_smooth_at_edge(self):
        jumps = []
        for count in (500, 2000):
            prof = solve_profile(skyrme(), STD, GridSpec(count=count))
            jumps.append(np.max(np.abs(np.diff(prof.energy_density))))
        assert jumps[1] < 0.5 * jumps[0]

    @pytest.mark.parametrize("alpha_k", [0.75, 1.0, 2.0])
    @pytest.mark.parametrize("pot,tag", [(STD, "standard"), (BPSPOT, "bps")],
                             ids=["standard", "bps"])
    def test_power_law_compacton(self, pot, tag, alpha_k):
        # the charge, the radius and the energy against the mpmath oracle
        p = skyrme(charge=2, kinetic_law=KineticLaw.power(alpha_k))
        prof = solve_profile(p, pot)
        assert charge_quadrature(prof, p) == 2.0
        assert tail_fit(prof) is classify_localization(pot.vacuum_exponent, Sector.SKYRME3D,
                                                       p.kinetic_law)
        oracle = Soliton("skyrme", tag, 1.0, 1.0, 2, alpha_k)
        assert prof.compacton_radius == pytest.approx(float(oracle.radius()), rel=1e-12, abs=0)
        assert energy_quadrature(prof, p, pot) == pytest.approx(float(oracle.energy()),
                                                                rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha_k", [None, 0.75])
    def test_bps_radius_to_rounding(self, alpha_k):
        # V = eta, the incomplete volume, to rounding: with a 4-term series
        # below xi = 0.1 the radius under alpha_k = 0.75 was 1.6e-15 off
        law = KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)
        prof = solve_profile(skyrme(kinetic_law=law), BPSPOT)
        want = Soliton("skyrme", "bps", 1.0, 1.0, 1, alpha_k).radius()
        assert abs(prof.compacton_radius - want) <= 3e-16 * want

    def test_fields_match_mpmath_oracle(self):
        prof = solve_profile(skyrme(), STD)
        assert_interior_fields_match(prof, Soliton("skyrme", "standard", 1.0, 1.0, 1))

    def test_sector_potential_mismatch(self):
        with pytest.raises(DbisolError):
            solve_profile(skyrme(), OLD)


class TestFieldAt:
    def test_matches_solution_on_arbitrary_grid(self):
        p = baby(beta=1.7, mu=0.6)
        coords = np.array([0.0, 0.05, 0.11, 0.4, 1.0])
        got = profile_field_at(p, OLD, coords)
        expected = baby_old_exact(coords, p)
        assert np.max(np.abs(got - expected)) < 1e-10

    @pytest.mark.parametrize("pot", [STD, BPSPOT], ids=["standard", "bps"])
    def test_anti_vacuum_value_is_exact(self, pot):
        assert profile_field_at(skyrme(), pot, [0.0])[0] == math.pi

    @pytest.mark.parametrize("model,pot", [(baby(), OLD),
                                           (baby(), make_potential("old-baby-power", 3.0)),
                                           (skyrme(beta=2.0), STD)],
                             ids=["planar-compacton", "planar-power-law", "3d-compacton"])
    def test_solve_profile_samples_the_same_map(self, model, pot):
        count = 300
        prof = solve_profile(model, pot, GridSpec(count=count))
        coords = prof.coordinates[:count]
        assert np.array_equal(prof.field[:count], profile_field_at(model, pot, coords))
        if prof.compacton_radius is not None:
            assert coords[-1] == prof.compacton_radius
            radius_row = [prof.field[count - 1], prof.derivative[count - 1],
                          prof.energy_density[count - 1], prof.charge_density[count - 1]]
            assert radius_row == [0.0, 0.0, 0.0, 0.0]


class TestClassification:
    @pytest.mark.parametrize("alpha,expected", [
        (1.0, LocalizationClass.COMPACTON),
        (2.0, LocalizationClass.EXPONENTIAL),
        (3.0, LocalizationClass.POWER_LAW),
    ])
    def test_baby_thresholds(self, alpha, expected):
        assert classify_localization(alpha, Sector.BABY2D) is expected

    @pytest.mark.parametrize("alpha,expected", [
        (1.0, LocalizationClass.COMPACTON),
        (1.5, LocalizationClass.COMPACTON),
        (2.0, LocalizationClass.COMPACTON),
        (3.0, LocalizationClass.COMPACTON),
        (6.0, LocalizationClass.EXPONENTIAL),
        (7.0, LocalizationClass.POWER_LAW),
    ])
    def test_skyrme_thresholds(self, alpha, expected):
        # both built-in 3-D potentials are compact (finite closed-form radii),
        # so the threshold sits well above their vacuum exponents
        assert classify_localization(alpha, Sector.SKYRME3D) is expected

    def test_rejects_nonpositive(self):
        with pytest.raises(DbisolError):
            classify_localization(0.0, Sector.BABY2D)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_baby_tail_fit_agrees(self, alpha):
        pot = make_potential("old-baby-power", alpha)
        prof = solve_profile(baby(), pot)
        assert tail_fit(prof) is classify_localization(alpha, Sector.BABY2D)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_skyrme_tail_fit_agrees(self, alpha):
        pot = xi_power_potential(alpha)
        prof = solve_profile(skyrme(), pot)
        assert tail_fit(prof) is LocalizationClass.COMPACTON
        assert tail_fit(prof) is classify_localization(alpha, Sector.SKYRME3D)

    def test_skyrme_exponential_at_threshold(self):
        prof = solve_profile(skyrme(), xi_power_potential(6.0))
        assert prof.compacton_radius is None
        assert tail_fit(prof) is LocalizationClass.EXPONENTIAL

    def test_skyrme_power_law_above_threshold(self):
        prof = solve_profile(skyrme(), xi_power_potential(7.0))
        assert prof.compacton_radius is None
        assert tail_fit(prof) is LocalizationClass.POWER_LAW

    def test_tail_fit_requires_resolved_tail(self):
        # the exact compacton up to h = 1e-2, with no radius to end the fit
        p = baby()
        x_stop = float(Soliton("baby", "old:1", 1.0, 1.0, 1).coordinates([1e-2])[0])
        prof = profile_on_grid(lambda x: baby_old_exact(x, p), p, OLD, count=300,
                               extent=x_stop)
        with pytest.raises(DbisolError, match="tail not resolved"):
            tail_fit(prof)


class TestEndpointAsymptotics:
    def test_sigma_one(self):
        edge, core = endpoint_asymptotics(1.0)
        assert edge == pytest.approx(1.0, abs=1e-15)
        assert core == pytest.approx(math.sqrt(2), abs=1e-13)

    def test_sigma_sixteen_edge(self):
        assert endpoint_asymptotics(16.0)[0] == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DbisolError):
            endpoint_asymptotics(0.0)


class TestCsvExport:
    def test_header_and_precision(self, tmp_path):
        prof = solve_profile(baby(), OLD, GridSpec(count=200))
        path = tmp_path / "prof.csv"
        write_profile_csv(prof, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "coordinate,field,derivative,energy_density,charge_density"
        assert len(lines) == 1 + len(prof.field)
        # 17 significant digits reproduce the stored doubles exactly
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == prof.field[0]

    def test_rows_match_per_value_formatting(self, tmp_path):
        # the 3-D anti-vacuum row carries a derivative of -inf
        prof = solve_profile(skyrme(beta=1.6, mu=0.4, charge=-2), STD)
        assert prof.derivative[0] == -np.inf
        path = tmp_path / "prof.csv"
        write_profile_csv(prof, path)
        rows = zip(prof.coordinates, prof.field, prof.derivative, prof.energy_density,
                   prof.charge_density)
        expected = ["coordinate,field,derivative,energy_density,charge_density"]
        expected += [",".join(f"{v:.17g}" for v in row) for row in rows]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


class TestSolvedProfileShape:
    @pytest.mark.parametrize("model,pot", [
        (baby(beta=0.4, mu=2.5, charge=3), make_potential("old-baby-power", 0.5)),
        (baby(beta=2.5, mu=0.4, charge=-1), make_potential("old-baby-power", 3.0)),
        (baby(kinetic_law=KineticLaw.power(0.75)), make_potential("old-baby-power", 2.0)),
        (skyrme(beta=1.6, mu=0.4, charge=2), STD),
        (skyrme(beta=0.16, mu=0.25), xi_power_potential(7.0)),
    ], ids=["old:0.5", "old:3", "old:2-power-law", "standard", "power:7"])
    def test_monotone_from_anti_vacuum_to_vacuum(self, model, pot):
        prof = solve_profile(model, pot)
        assert np.all(np.diff(prof.field) <= 0.0)
        assert prof.field[0] == prof.anti_vacuum
        if prof.compacton_radius is not None:
            past = prof.coordinates >= prof.compacton_radius
            assert past.sum() == 11
            assert np.all(prof.field[past] == 0.0)
            assert np.all(prof.field[~past] > 0.0)
        else:
            assert prof.field[-1] == pytest.approx(FIELD_FLOOR, rel=1e-15, abs=0)


class TestValidateInvariants:
    """Each raise of SolitonProfile.validate_invariants, on a broken copy of a solved profile."""

    PROFILE = solve_profile(baby(), OLD, GridSpec(count=200))

    def broken(self, **columns):
        return replace(self.PROFILE, **columns)

    def test_solved_profile_passes(self):
        self.PROFILE.validate_invariants()

    def test_non_monotone_field(self):
        field = self.PROFILE.field.copy()
        field[50] = field[49] + 1e-6
        with pytest.raises(DbisolError, match="^field is not monotone non-increasing$"):
            self.broken(field=field).validate_invariants()

    def test_wrong_start(self):
        with pytest.raises(DbisolError,
                           match="^profile does not start at the anti-vacuum value$"):
            self.broken(field=0.999 * self.PROFILE.field).validate_invariants()

    def test_no_vacuum(self):
        with pytest.raises(DbisolError, match="^profile does not reach the vacuum$"):
            self.broken(field=np.maximum(self.PROFILE.field, 1e-3)).validate_invariants()

    def test_charge_density_sign_flip(self):
        with pytest.raises(DbisolError, match="^charge density changes sign against the "
                                              "topological charge$"):
            self.broken(charge_density=-self.PROFILE.charge_density).validate_invariants()

    def test_non_finite_energy_density(self):
        energy = self.PROFILE.energy_density.copy()
        energy[10] = np.nan
        with pytest.raises(DbisolError, match="^energy density is not finite everywhere$"):
            self.broken(energy_density=energy).validate_invariants()


class TestOracleFields:
    @pytest.mark.parametrize("model,pot,tag,rel", [
        (baby(beta=0.4, mu=2.5, charge=3), make_potential("old-baby-power", 0.5), "old:0.5", 1e-12),
        (baby(beta=2.5, mu=0.4, charge=-1), make_potential("old-baby-power", 3.0), "old:3", 1e-12),
        (baby(kinetic_law=KineticLaw.power(0.75)), make_potential("old-baby-power", 2.0), "old:2",
         1e-12),
        (skyrme(beta=1.6, mu=0.4, charge=2), STD, "standard", 1e-12),
        (skyrme(beta=2.0), BPSPOT, "bps", 1e-12),
        (skyrme(beta=0.16, mu=0.25), xi_power_potential(7.0), "power:7", 1e-12),
    ], ids=["old:0.5", "old:3", "old:2-power-law", "standard", "bps", "power:7"])
    def test_interior_fields(self, model, pot, tag, rel):
        oracle = Soliton(model.sector.value, tag, model.beta, model.mu, model.charge,
                         model.kinetic_law.alpha_k)
        assert_interior_fields_match(solve_profile(model, pot), oracle, stride=50, rel=rel)


class TestNearThresholds:
    # exponents close to the localization thresholds, on both sides, where
    # the integrand in ln(field) is nearly flat or falls off steeply
    @pytest.mark.parametrize("model,pot", [
        (baby(charge=2), make_potential("old-baby-power", 1.9)),
        (baby(charge=2), make_potential("old-baby-power", 0.01)),
        (baby(charge=2, kinetic_law=KineticLaw.power(0.51)), OLD),
        (baby(charge=2, kinetic_law=KineticLaw.power(10.0)),
         make_potential("old-baby-power", 10.0)),
        (skyrme(charge=2), xi_power_potential(5.5)),
        (skyrme(charge=2, kinetic_law=KineticLaw.power(2.0)), xi_power_potential(9.0)),
        (skyrme(charge=2, kinetic_law=KineticLaw.power(3.0)), xi_power_potential(15.0)),
    ], ids=["old:1.9", "old:0.01", "old:1-ak0.51", "old:10-ak10", "power:5.5",
            "power:9-ak2", "power:15-ak3"])
    def test_solves(self, model, pot):
        prof = solve_profile(model, pot)
        prof.validate_invariants()
        assert charge_quadrature(prof, model) == pytest.approx(2.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("sector,tag,alpha_k", [
        ("baby", "old:1.99", None), ("baby", "old:1.95", None),
        ("skyrme", "power:5.99", None), ("skyrme", "power:5.9", None),
        ("baby", "old:1", 0.5000001), ("baby", "old:40", 50.0),
    ], ids=["old:1.99", "old:1.95", "power:5.99", "power:5.9", "old:1-ak0.5000001",
            "old:40-ak50"])
    def test_compactons_at_the_threshold(self, sector, tag, alpha_k):
        law = KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)
        a = float(tag.split(":")[1])
        if sector == "baby":
            model, pot = baby(kinetic_law=law), make_potential("old-baby-power", a)
        else:
            model, pot = skyrme(kinetic_law=law), xi_power_potential(a)
        prof = solve_profile(model, pot)
        prof.validate_invariants()
        oracle = Soliton(sector, tag, 1.0, 1.0, 1, alpha_k)
        assert prof.compacton_radius == pytest.approx(float(oracle.radius()), rel=1e-13, abs=0)
        report = compute_energy_report(prof, model, pot)
        assert report.rel_discrepancy_avg <= 1e-9
        assert classify_localization(a, model.sector, law) is LocalizationClass.COMPACTON
        assert tail_fit(prof) is LocalizationClass.COMPACTON


class TestTruncatedCharge:
    def test_field_range_of_truncated_profile(self):
        p = baby()
        x_half = float(Soliton("baby", "old:1", 1.0, 1.0, 1).coordinates([0.5])[0])
        prof = profile_on_grid(lambda x: baby_old_exact(x, p), p, OLD,
                               count=300, extent=x_half)
        lo, hi = prof.field_range()
        assert hi == pytest.approx(1.0)
        assert lo == pytest.approx(0.5, abs=1e-9)
