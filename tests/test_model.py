import math
from dataclasses import replace

import numpy as np
import pytest

from dbisol import (DbisolError, KineticLaw, ModelParams, Sector,
                    fit_vacuum_exponent, make_potential, target_measure)


def params(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.BABY2D)
    base.update(kw)
    return ModelParams(**base)


class TestPotentials:
    def test_old_baby_power_values(self):
        pot = make_potential("old-baby-power", 1.0)
        assert pot.evaluate(1.0) == pytest.approx(1.0, abs=0)
        assert pot.evaluate(0.0) == 0.0
        assert pot.vacuum_exponent == 1.0

    def test_standard_value_at_pi(self):
        pot = make_potential("skyrme-standard")
        assert pot.evaluate(math.pi) == pytest.approx(2.0, rel=1e-15)
        assert pot.evaluate(0.0) == 0.0

    def test_bps_potential_value_at_pi(self):
        pot = make_potential("bps-potential")
        assert pot.evaluate(math.pi) == pytest.approx(math.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("tag,alpha", [("old-baby-power", 1.0), ("old-baby-power", 2.5),
                                           ("skyrme-standard", None), ("bps-potential", None)])
    def test_non_negative_with_single_vacuum(self, tag, alpha):
        pot = make_potential(tag, alpha)
        s = np.linspace(*pot.domain, 2001)
        v = np.asarray(pot.evaluate(s))
        assert np.all(v >= 0)
        assert pot.evaluate(pot.vacuum_coordinate) == 0.0

    @pytest.mark.parametrize("tag,alpha", [("old-baby-power", 1.0), ("old-baby-power", 3.0),
                                           ("skyrme-standard", None), ("bps-potential", None)])
    def test_vacuum_exponent_loglog_fit(self, tag, alpha):
        pot = make_potential(tag, alpha)
        assert fit_vacuum_exponent(pot) == pytest.approx(pot.vacuum_exponent, rel=1e-3)

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
        pot = make_potential("bps-potential")
        for x in (0.0999, 0.1001):
            exact = (x - math.cos(x) * math.sin(x)) / 2
            assert pot.evaluate(x) == pytest.approx(exact, rel=1e-13)

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


class TestMeasures:
    @pytest.mark.parametrize("sector", list(Sector))
    def test_unit_mass(self, sector):
        assert target_measure(sector).mass() == pytest.approx(1.0, abs=1e-10)

    def test_average_of_one(self):
        for sector in Sector:
            assert target_measure(sector).average(lambda s: 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_skyrme_weight_shape(self):
        m = target_measure(Sector.SKYRME3D)
        assert m.weight(0.0) == 0.0
        assert m.weight(math.pi / 2) == pytest.approx(2.0 / math.pi)


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

    def test_rejects_3d_power_law(self):
        """The 3-D chart takes the DBI law only; no solver can meet such a model."""
        power = KineticLaw.power(2.0)
        with pytest.raises(DbisolError, match="planar chart only"):
            params(sector=Sector.SKYRME3D, kinetic_law=power)
        with pytest.raises(DbisolError, match="planar chart only"):
            replace(params(sector=Sector.SKYRME3D), kinetic_law=power)
        with pytest.raises(DbisolError, match="planar chart only"):
            replace(params(kinetic_law=power), sector=Sector.SKYRME3D)

    def test_rejects_unknown_sector(self):
        with pytest.raises(DbisolError, match="unknown sector"):
            params(sector="skyrme")

    def test_sigma(self):
        assert params(beta=2.0, mu=1.0).sigma == pytest.approx(4.0)
