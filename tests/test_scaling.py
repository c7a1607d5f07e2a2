"""The couplings' own scale: sigma = beta^2 / mu^2 is the only DBI shape parameter.

Every solver works on a unit-free problem that the chart's length and
energy units turn into physical results, so a model solves wherever those
results are doubles, and along a ray of fixed sigma the results scale with
the couplings exactly.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbisol import (GridSpec, KineticLaw, ModelParams, Sector, bps_energy_integral,
                    charge_quadrature, compute_energy_report, energy_per_charge_average,
                    make_potential, solve_profile)
from dbisol.cli import main

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# every built-in family: (sector, CLI potential, potential)
FAMILIES = [
    (Sector.BABY2D, "old:0.5", make_potential("old-baby-power", 0.5)),
    (Sector.BABY2D, "old:1", make_potential("old-baby-power", 1.0)),
    (Sector.BABY2D, "old:3", make_potential("old-baby-power", 3.0)),
    (Sector.SKYRME3D, "standard", make_potential("skyrme-standard")),
    (Sector.SKYRME3D, "bps", make_potential("bps-potential")),
    (Sector.SKYRME3D, "power:7", make_potential(
        "custom", evaluate=lambda f: np.power(np.asarray(f, dtype=float), 7.0),
        derivative=lambda f: 7.0 * np.power(np.asarray(f, dtype=float), 6.0),
        domain=(0.0, math.pi), vacuum_exponent=7.0)),
]
FAMILY_IDS = [tag for _, tag, _ in FAMILIES]
# the one line of a solve whose physical result leaves the double range names that result
OUT_OF_RANGE = re.compile(r"^error: (energy density is not finite everywhere|the energy \S+ "
                          r"leaves the double range|the profile's extent .* leaves the double "
                          r"range)")


@pytest.mark.parametrize("law", [None, "0.75", "2"], ids=["dbi", "ak0.75", "ak2"])
@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILY_IDS)
def test_solve_across_the_double_range(family, law, tmp_path, capfd):
    # mu = 10^k at beta = 1 and beta = 10^k at mu = 1: each run solves, with its
    # closed form and average route on the quadrature to 1e-12, or names the
    # result that leaves the double range in one line
    sector, tag, _ = FAMILIES[family]
    for axis in ("mu", "beta"):
        for k in (-300, -150, 0, 150, 300):
            args = ["solve", "--sector", sector.value, "--potential", tag, f"--{axis}", f"1e{k}",
                    "--grid", "200", "--out", str(tmp_path / "s")]
            code = main(args + ([] if law is None else ["--alpha-k", law]))
            out, err = capfd.readouterr()
            if code == 0:
                data = json.loads((tmp_path / "s.json").read_text())
                for key in ("rel_discrepancy_closed", "rel_discrepancy_avg"):
                    assert data[key] is None or data[key] <= 1e-12, (axis, k, key)
            else:
                assert code == 1 and err.count("\n") == 1 and OUT_OF_RANGE.match(err), \
                    (axis, k, err)


@pytest.mark.parametrize("family", [1, 2, 3, 4],
                         ids=["old:1", "old:3", "standard", "bps"])
def test_fixed_sigma_rays_scale_exactly(family):
    # (beta, mu) = (2, 0.5) k: the planar extent times mu, the 3-D z extent
    # (z absorbs beta) and E / (mu |n|) do not move from k = 1e-100 to 1e100
    sector, _, pot = FAMILIES[family]
    seen = []
    for k in (1e-100, 1e-50, 1e-3, 1.0, 1e3, 1e50, 1e100):
        model = ModelParams(2.0 * k, 0.5 * k, -2, sector)
        extent = solve_profile(model, pot, GridSpec(count=200)).coordinates[199]
        seen.append((extent * model.mu if sector is Sector.BABY2D else extent,
                     bps_energy_integral(model, pot) / (2.0 * model.mu)))
    for got in seen:
        for a, b in zip(got, seen[0]):
            assert abs(a - b) <= 1e-15 * b


@PROPERTY
@given(st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e), st.integers(1, 5), st.booleans(),
       st.sampled_from(range(len(FAMILIES))))
def test_properties_over_sigma(sigma, n, negative, family):
    sector, _, pot = FAMILIES[family]
    charge = -n if negative else n
    model = ModelParams(math.sqrt(sigma), 1.0, charge, sector)
    prof = solve_profile(model, pot, GridSpec(count=200))
    assert np.all(np.diff(prof.field) <= 0.0)
    # a tail is resolved down to the field 1e-9, the charge to the volume below it
    assert abs(charge_quadrature(prof) - charge) <= 2e-9 * n
    rep = compute_energy_report(prof, model, pot)
    for rel in (rep.rel_discrepancy_closed, rep.rel_discrepancy_avg):
        assert rel is None or rel <= 1e-12
    unit_charge = bps_energy_integral(ModelParams(model.beta, 1.0, 1, sector), pot)
    assert abs(rep.energy_quadrature / n - unit_charge) <= 1e-12 * unit_charge


@pytest.mark.parametrize("sector", list(Sector))
def test_sigma_inf_is_the_bps_skyrme_limit(sector):
    # past beta / mu = 1.3e154, sigma = inf: t = 1 and B0 = 2 mu sqrt(V), whose
    # energy per charge is mu c <sqrt V> with c the chart's average factor
    model = ModelParams(1e300, 0.3, 1, sector)
    assert model.sigma == math.inf and model.units == (0.3, 0.3)
    assert float(KineticLaw.dbi().density(0.25, math.inf)) == 1.0
    chart = sector.chart
    pot = FAMILIES[1 if sector is Sector.BABY2D else 3][2]
    want = 0.3 * chart.average_factor * chart.average(lambda f: np.sqrt(pot.evaluate(f)))
    assert abs(energy_per_charge_average(model, pot) - want) <= 1e-15 * want


@pytest.mark.parametrize("sector,potential", [("baby", "old:1"), ("skyrme", "standard")])
@pytest.mark.parametrize("coupling", ["--beta", "--mu"])
@pytest.mark.parametrize("command", ["solve", "verify", "sweep", "classify", "bound"])
def test_no_traceback_at_large_couplings(command, coupling, sector, potential, tmp_path, capfd):
    args = [command, coupling, "1e200", "--sector", sector, "--potential", potential,
            "--out", str(tmp_path / "o")]
    if command == "bound":
        # bound reads beta but no mu, sector or potential
        args = [command, "--samples", "1000", "--out", str(tmp_path / "o")] + (
            [coupling, "1e200"] if coupling == "--beta" else [])
    if command == "sweep":
        args += ["--values", "0.1,0.05,0.02"]
    code = main(args)
    out, err = capfd.readouterr()
    assert "Traceback" not in err
    if code == 3:
        # planar verify at sigma = inf: every energy check passes, and the
        # Richardson check of the solved compacton sits at the rounding
        # floor, as it does at --grid 1000 from beta = 30 on (mu = 1)
        assert (command, coupling, sector) == ("verify", "--beta", "baby")
        assert err == "failed checks: eom_convergence\n"
    else:
        assert code == 0 and err == "" or code == 1 and err.count("\n") == 1
