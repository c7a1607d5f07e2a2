"""The chart table: one frozen Chart per sector, read by every solver."""

import ast
import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import kinetic

import dbisol
from dbisol import (GridSpec, KineticLaw, LocalizationClass, ModelParams, Sector,
                    classify_localization, make_potential, solve_profile)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SECTORS = st.sampled_from(list(Sector))


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def power_potential(sector, a):
    """V = field^a on the sector's chart."""
    if sector is Sector.BABY2D:
        return make_potential("old-baby-power", a)
    return make_potential("custom", evaluate=lambda xi: np.power(np.asarray(xi, dtype=float), a),
                          derivative=lambda xi: a * np.power(np.asarray(xi, dtype=float), a - 1),
                          domain=(0.0, math.pi), vacuum_coordinate=0.0, vacuum_exponent=a)


class TestChartIdentities:
    @pytest.mark.parametrize("sector", list(Sector))
    def test_unit_weight_times_full_volume_is_one(self, sector):
        chart = sector.chart
        assert chart.unit_weight * float(chart.volume(chart.anti_vacuum)) \
            == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_unit_weight_is_the_papers(self):
        # derived as 1 / volume(anti_vacuum); in doubles 1 / eta(pi) is 2 / pi
        assert Sector.BABY2D.chart.unit_weight == 1.0
        assert Sector.SKYRME3D.chart.unit_weight == 2.0 / math.pi

    @PROPERTY
    @given(SECTORS, log_uniform(1e-4, 1e4), st.integers(-50, 50).filter(lambda n: n != 0))
    def test_average_factor_follows_from_the_other_facts(self, sector, beta, n):
        # the energy energy_unit int J p is energy_unit <p> / unit_weight, and
        # |n| average_factor U_P <p> per charge
        chart, model = sector.chart, ModelParams(beta, 1.0, n, sector)
        lhs = chart.average_factor * abs(n) * model.units[1] * chart.unit_weight
        assert lhs == pytest.approx(chart.energy_unit(model), rel=1e-15, abs=0.0)

    @PROPERTY
    @given(SECTORS, st.floats(1e-5, 1.0 - 1e-5))
    def test_volume_derivative_is_the_jacobian(self, sector, u):
        chart = sector.chart
        f, d = u * chart.anti_vacuum, 1e-6
        slope = (float(chart.volume(f + d)) - float(chart.volume(f - d))) / (2.0 * d)
        assert slope == pytest.approx(float(chart.jacobian(f)), abs=1e-8)

    def test_planar_jacobian_is_a_scalar(self):
        jac = Sector.BABY2D.chart.jacobian(np.linspace(0.0, 1.0, 5))
        assert isinstance(jac, float) and jac == 1.0

    @PROPERTY
    @given(SECTORS, st.floats(1e-9, 0.9), st.sampled_from([None, 0.75, 1.0, 2.0]))
    def test_threshold_splits_the_localization_classes(self, sector, u, alpha_k):
        # twice the power with which B0 vanishes: A under the DBI law, A / alpha_k
        # under the power law
        law = KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)
        at = sector.chart.threshold * (alpha_k or 1.0)
        assert classify_localization(at * (1.0 - u), sector, law) is LocalizationClass.COMPACTON
        assert classify_localization(at, sector, law) is LocalizationClass.EXPONENTIAL
        assert classify_localization(at * (1.0 + u), sector, law) is LocalizationClass.POWER_LAW

    @PROPERTY
    @given(SECTORS, st.floats(0.1, 0.8), st.booleans())
    def test_solver_reads_the_same_threshold(self, sector, u, below):
        a = sector.chart.threshold * (1.0 - u if below else 1.0 + u)
        model = ModelParams(1.0, 1.0, 1, sector)
        prof = solve_profile(model, power_potential(sector, a), GridSpec(count=200))
        predicted = classify_localization(a, sector)
        assert (prof.compacton_radius is not None) == (predicted is LocalizationClass.COMPACTON)

    @PROPERTY
    @given(st.floats(0.0, 10.0), log_uniform(1e-2, 1e2),
           st.integers(-5, 5).filter(lambda n: n != 0))
    def test_coordinate_map_is_the_papers(self, r, beta, n):
        model = ModelParams(beta, 1.0, n, Sector.BABY2D)
        assert Sector.BABY2D.chart.coordinate_map(r, model) == pytest.approx(r * r / 2.0,
                                                                             rel=1e-15, abs=0)
        z = 2.0 * math.sqrt(2.0) * beta * math.pi ** 2 * r ** 3 / abs(n)
        assert Sector.SKYRME3D.chart.coordinate_map(r, model) == pytest.approx(z, rel=1e-14, abs=0)


class TestEomFlux:
    """The flux K'(B0) of the one Euler-Lagrange residual, for every law.

    `eom_residual` evaluates R = -(J / s) d/dx K'(B0) - mu^2 V'(f) with
    B0 = -J f' / s, so K' is the flux of every chart; it is checked here
    against mp.diff of K from the mpmath oracle, and K itself alongside.
    """

    @PROPERTY
    @given(st.sampled_from([None, 0.75, 1.0, 2.0]), st.floats(0.01, 0.95),
           log_uniform(0.1, 10.0))
    def test_flux_is_the_slope_derivative_of_the_density(self, alpha_k, q, beta):
        law = KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)
        # a fraction of the DBI ceiling sqrt(2) beta, and the same B0 for the power law;
        # at mu = 1, K = k and K' = U_P k' at b = B0 / U_B
        b0 = q * math.sqrt(2.0) * beta
        model = ModelParams(beta, 1.0, 1, Sector.BABY2D, law)
        (b_unit, p_unit), sigma = model.units, model.sigma
        with mp.workdps(30):
            a = None if alpha_k is None else mp.mpf(alpha_k)
            want_slope = mp.diff(lambda t: kinetic(t, mp.mpf(beta), a), mp.mpf(b0))
            want = kinetic(mp.mpf(b0), mp.mpf(beta), a)
        b = b0 / b_unit
        assert p_unit * float(law.kinetic_slope(b, sigma)) == pytest.approx(
            float(want_slope), rel=1e-12, abs=0)
        assert float(law.kinetic(b, sigma)) == pytest.approx(float(want), rel=1e-12, abs=0)
        # K' is odd in B0, as the slope's sign flips with the charge's
        assert float(law.kinetic_slope(-b, sigma)) == -float(law.kinetic_slope(b, sigma))


# where a sector member may be named or a sector compared: the enum and the
# chart table; the CLI's parser map, RunConfig.model; and verify's suite,
# _verify_checks, which picks by sector the exact potentials it checks
# (planar old:1, 3-D standard and bps) until it checks the configured
# potential under its own law (ROADMAP items 2 and 9)
ALLOWED = {"model.py": {"Sector", "CHARTS"}, "cli.py": {"model", "_verify_checks"}}
SECTOR_BRANCH = re.compile(
    r"Sector\.(BABY2D|SKYRME3D)|\bsector\s*[!=]=|[!=]=\s*[\w.]*\bsector\b")


def _allowed_lines(tree, names):
    nodes = [n for n in ast.walk(tree)
             if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name in names]
    nodes += [n for n in tree.body if isinstance(n, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id in names for t in n.targets)]
    return [range(n.lineno, n.end_lineno + 1) for n in nodes]


def test_no_sector_branch_outside_the_chart_table():
    stray = []
    for path in sorted(Path(dbisol.__file__).parent.glob("*.py")):
        text = path.read_text()
        allowed = _allowed_lines(ast.parse(text), ALLOWED.get(path.name, set()))
        for lineno, line in enumerate(text.splitlines(), 1):
            if SECTOR_BRANCH.search(line) and not any(lineno in span for span in allowed):
                stray.append(f"{path.name}:{lineno}: {line.strip()}")
    assert stray == []


# where the kinetic law may be read or built: the law itself; the closed
# forms, which exist for the DBI law only; the CLI's parser map,
# RunConfig.model; the residual check _eom_check, which forces the DBI law
# whatever --alpha-k says until the residual means the same thing for every
# law (ROADMAP items 2 and 9); and the default law of classify_localization
LAW_ALLOWED = {"model.py": {"KineticLaw"}, "observables.py": {"_closed_form_for"},
               "cli.py": {"model", "_eom_check"}, "profiles.py": {"classify_localization"}}
LAW_BRANCH = re.compile(r"\.(is_dbi|alpha_k)\b|KineticLaw\.(dbi|power)\(")


@pytest.mark.parametrize("pattern,line", [
    (SECTOR_BRANCH, "sector = Sector.SKYRME3D"), (SECTOR_BRANCH, 'if cfg.sector == "baby":'),
    (SECTOR_BRANCH, "if sector != other:"), (SECTOR_BRANCH, 'if "baby" == self.sector:'),
    (LAW_BRANCH, "if law.is_dbi:"), (LAW_BRANCH, "k = model.kinetic_law.alpha_k"),
    (LAW_BRANCH, "law = KineticLaw.dbi()"), (LAW_BRANCH, "KineticLaw.power(2.0)"),
])
def test_guards_flag_every_form_of_a_branch(pattern, line):
    assert pattern.search(line)


@pytest.mark.parametrize("pattern,line", [
    (SECTOR_BRANCH, "if profile.sector is not model.sector:"),
    (LAW_BRANCH, "np.power(x, a)"),
])
def test_guards_pass_what_is_no_branch(pattern, line):
    assert not pattern.search(line)


def test_no_kinetic_law_branch_outside_the_law():
    stray = []
    for path in sorted(Path(dbisol.__file__).parent.glob("*.py")):
        text = path.read_text()
        allowed = _allowed_lines(ast.parse(text), LAW_ALLOWED.get(path.name, set()))
        for lineno, line in enumerate(text.splitlines(), 1):
            if LAW_BRANCH.search(line) and not any(lineno in span for span in allowed):
                stray.append(f"{path.name}:{lineno}: {line.strip()}")
    assert stray == []
