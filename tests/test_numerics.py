import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dbisol import KineticLaw, ModelParams, Sector, make_potential
from dbisol import profiles
from dbisol.numerics import SEGMENTS, CumulativeIntegral, _ts_nodes, tanh_sinh, uniform_mesh
from dbisol.profiles import _InverseMap


class TestTanhSinh:
    @pytest.mark.parametrize("f,a,b,exact", [
        (lambda x: x ** -0.5, 0.0, 1.0, 2.0),
        (np.cbrt, 0.0, 1.0, 0.75),
        (np.log, 0.0, 1.0, -1.0),
        (lambda x: x ** -0.9, 0.0, 1.0, 10.0),
        # ((x+1) sqrt(x^2+2x) - acosh(x+1)) / 2 is an antiderivative
        (lambda x: np.sqrt(x * x + 2 * x), 0.0, 1.0, math.sqrt(3.0) - math.acosh(2.0) / 2.0),
        (lambda x: np.sin(x) ** 2, 0.0, math.pi, math.pi / 2),
        (np.exp, -1.0, 2.0, math.exp(2.0) - math.exp(-1.0)),
        (lambda x: x ** 1.5, 0.0, 4.0, 12.8),
    ])
    def test_known_integrals(self, f, a, b, exact):
        assert tanh_sinh(f, a, b) == pytest.approx(exact, rel=1e-14, abs=1e-15)

    def test_singular_at_both_ends(self):
        # an integrable singularity at a nonzero end resolves to about sqrt(eps):
        # no node can sit closer to 1 than one ulp
        got = tanh_sinh(lambda x: 1.0 / np.sqrt((1.0 - x) * (1.0 + x)), -1.0, 1.0)
        assert got == pytest.approx(math.pi, rel=1e-7, abs=0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, math.pi), (7e-81, 1.0), (0.5, 1.0),
                                     (-3.0, -2.0)])
    def test_never_evaluates_endpoints(self, a, b):
        seen = []

        def f(x):
            seen.append(np.asarray(x).copy())
            return np.ones_like(x)
        assert tanh_sinh(f, a, b) == pytest.approx(b - a, rel=1e-15, abs=0)
        x = np.concatenate(seen)
        assert len(seen) == 1
        assert np.all((x > a) & (x < b))

    def test_nodes_hug_zero_without_cancellation(self):
        lo, hi, w = _ts_nodes()
        assert lo[0] < 1e-270 and hi[-1] < 1e-270
        assert np.all(lo > 0) and np.all(hi > 0)
        # the two distances are mirror images and sum to one
        np.testing.assert_array_equal(lo, hi[::-1])
        np.testing.assert_allclose(lo + hi, 1.0, rtol=0, atol=4.5e-16)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_nodes_are_cached(self):
        assert _ts_nodes()[0] is _ts_nodes()[0]

    def test_empty_interval(self):
        assert tanh_sinh(np.exp, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("sector", list(Sector))
    def test_target_measures_have_unit_mass(self, sector):
        assert sector.chart.average(np.ones_like) == pytest.approx(1.0, abs=1e-15)


def test_import_loads_no_scipy():
    # every module: the package itself imports them on first use
    code = ("import importlib, pkgutil, sys, dbisol\n"
            "for m in pkgutil.iter_modules(dbisol.__path__):\n"
            "    importlib.import_module('dbisol.' + m.name)\n"
            "assert {'dbisol.bounds', 'dbisol.cli', 'dbisol._csv'} <= set(sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def _partial(f, lo, hi):
    """Integral of f over (lo_i, hi_i) by a 12-point Gauss-Legendre rule of its own."""
    x, w = np.polynomial.legendre.leggauss(12)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * (f(mid[None, :] + half[None, :] * x[:, None]) * w[:, None]).sum(axis=0)


def _bisect_reference(f, cum, targets):
    """55 bisection steps on the integrand itself inside each target's segment."""
    j = np.clip(np.searchsorted(cum.prefix, targets) - 1, 0, len(cum.edges) - 2)
    lo, hi = cum.edges[j].copy(), cum.edges[j + 1].copy()
    start, base = cum.edges[j], cum.prefix[j]
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        up = base + _partial(f, start, mid) < targets
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


@pytest.fixture
def recorded(monkeypatch):
    """Integrands of the inverse maps built in the test, each counting its calls."""
    seen = []

    class Recording(CumulativeIntegral):
        def __init__(self, f, edges):
            calls = []

            def counted(t):
                calls.append(np.size(t))
                return f(t)
            seen.append((f, calls))
            super().__init__(counted, edges)

    monkeypatch.setattr(profiles, "CumulativeIntegral", Recording)
    return seen


def _xi_power(a):
    return make_potential("custom",
                          evaluate=lambda xi: np.power(np.asarray(xi, dtype=float), a),
                          derivative=lambda xi: a * np.power(np.asarray(xi, dtype=float), a - 1),
                          domain=(0.0, math.pi), vacuum_coordinate=0.0, vacuum_exponent=a)


def _family(sector, tag, alpha_k, beta, mu, n):
    law = KineticLaw.dbi() if alpha_k is None else KineticLaw.power(alpha_k)
    if tag.startswith("old:"):
        pot = make_potential("old-baby-power", float(tag[4:]))
    elif tag == "standard":
        pot = make_potential("skyrme-standard")
    elif tag == "bps":
        pot = make_potential("bps-potential")
    else:
        pot = _xi_power(float(tag[6:]))
    return pytest.param(ModelParams(beta, mu, n, sector, law), pot, id=f"{tag}-{alpha_k}")


B, S = Sector.BABY2D, Sector.SKYRME3D
# one configuration of every family the inverse map serves: compactons,
# exponential and power-law tails, both kinetic laws, both sectors
FAMILIES = [
    _family(B, "old:0.5", None, 0.4, 2.5, 3), _family(B, "old:1", None, 1.0, 1.0, 1),
    _family(B, "old:1.5", None, 6.3, 0.16, -2), _family(B, "old:2", None, 0.25, 4.0, 5),
    _family(B, "old:3", None, 2.5, 0.4, -1), _family(B, "old:4", None, 10.0, 0.1, 2),
    _family(B, "old:1", 0.75, 1.6, 0.6, 4), _family(B, "old:1", 1.0, 0.1, 10.0, -3),
    _family(B, "old:1", 2.0, 4.0, 0.25, 1), _family(B, "old:2", 0.75, 0.6, 1.6, -5),
    _family(B, "old:2", 1.0, 1.0, 2.5, 2), _family(B, "old:2", 2.0, 2.5, 1.0, -1),
    _family(S, "standard", None, 1.6, 0.4, 2), _family(S, "bps", None, 0.4, 1.6, -1),
    _family(S, "power:2.5", None, 1.0, 6.3, 3), _family(S, "power:4", None, 6.3, 1.0, -4),
    _family(S, "power:7", None, 0.16, 0.25, 1),
]


class TestCumulativeInversion:
    @pytest.mark.parametrize("f,a,b,inverse", [
        (np.exp, 0.5, 3.0, lambda y: np.log(y + math.exp(0.5))),
        # x^(-1/2) on [0, 4] after x = t^2: the integrand 2t/sqrt(t^2) is 0/0 at t = 0
        (lambda t: 2.0 * t / np.sqrt(t * t), 0.0, 2.0, lambda y: 0.5 * y),
        (lambda t: np.full_like(t, 3.0), 0.5, 2.5, lambda y: 0.5 + y / 3.0),
    ], ids=["exp", "inverse-sqrt", "constant"])
    def test_known_primitives(self, f, a, b, inverse):
        cum = CumulativeIntegral(f, uniform_mesh(a, b))
        targets = np.linspace(0.0, cum.total, 2001)[1:-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cum.invert(targets)
        np.testing.assert_allclose(got, inverse(targets), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("f,a,b", [(np.exp, -1.0, 2.0),
                                       (lambda t: 2.0 * t / np.sqrt(t * t), 0.0, 2.0)])
    def test_ends_map_exactly(self, f, a, b):
        cum = CumulativeIntegral(f, uniform_mesh(a, b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cum.invert(np.array([0.0, cum.total, -1.0, 2.0 * cum.total]))
        assert got.tolist() == [a, b, a, b]

    def test_sorted_targets_give_monotone_result(self):
        cum = CumulativeIntegral(lambda t: 1.0 + 0.9 * np.sin(7.0 * t),
                                 uniform_mesh(0.0, 3.0))
        targets = np.sort(np.random.default_rng(5).uniform(0.0, cum.total, 20000))
        assert np.all(np.diff(cum.invert(targets)) >= 0.0)

    @pytest.mark.parametrize("model,pot", FAMILIES)
    def test_newton_matches_bisection(self, model, pot, recorded):
        inv = _InverseMap(model, pot, model.sigma)
        (f, _), = recorded
        x = np.linspace(0.0, inv.extent, 1000)[1:-1]
        # the quadrature's share of the map: a compacton's piece below its
        # split is in closed form
        targets = inv.extent - x - inv._below
        targets = targets[targets > 0.0]
        assert targets.size > 900
        newton = np.exp(inv._cum.invert(targets))
        reference = np.exp(_bisect_reference(f, inv._cum, targets))
        np.testing.assert_allclose(newton, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model,pot", FAMILIES[::4])
    def test_integrand_calls_per_inversion(self, model, pot, recorded):
        inv = _InverseMap(model, pot, model.sigma)
        (_, calls), = recorded
        assert len(inv._cum.edges) - 1 == SEGMENTS
        # one call on every node of the mesh, then none to invert
        assert calls == [SEGMENTS * 12]
        inv.field_at(np.linspace(0.0, inv.extent, 1000), 1.0)
        assert calls == [SEGMENTS * 12]

    def test_prefix_is_compensated(self):
        # 500 segment integrals of 0.1: a plain running sum drifts by ulps
        cum = CumulativeIntegral(lambda t: np.full_like(t, 0.1), uniform_mesh(0.0, 500.0))
        np.testing.assert_array_equal(cum.prefix, [0.1 * k for k in range(SEGMENTS + 1)])
