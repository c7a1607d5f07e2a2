import math
import subprocess
import sys

import numpy as np
import pytest

from dbisol import Sector, target_measure
from dbisol.numerics import _ts_nodes, tanh_sinh


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
        assert got == pytest.approx(math.pi, rel=1e-7)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, math.pi), (7e-81, 1.0), (0.5, 1.0),
                                     (-3.0, -2.0)])
    def test_never_evaluates_endpoints(self, a, b):
        seen = []

        def f(x):
            seen.append(np.asarray(x).copy())
            return np.ones_like(x)
        assert tanh_sinh(f, a, b) == pytest.approx(b - a, rel=1e-15)
        x = np.concatenate(seen)
        assert len(seen) == 1
        assert np.all((x > a) & (x < b))

    def test_nodes_hug_zero_without_cancellation(self):
        lo, hi, w = _ts_nodes(6)
        assert lo[0] < 1e-270 and hi[-1] < 1e-270
        assert np.all(lo > 0) and np.all(hi > 0)
        # the two distances are mirror images and sum to one
        np.testing.assert_array_equal(lo, hi[::-1])
        np.testing.assert_allclose(lo + hi, 1.0, rtol=0, atol=4.5e-16)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_nodes_are_cached(self):
        assert _ts_nodes(6)[0] is _ts_nodes(6)[0]

    def test_empty_interval(self):
        assert tanh_sinh(np.exp, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("sector", list(Sector))
    def test_target_measures_have_unit_mass(self, sector):
        assert target_measure(sector).mass() == pytest.approx(1.0, abs=1e-15)


def test_import_loads_no_scipy():
    code = ("import sys, dbisol; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
