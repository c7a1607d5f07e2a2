"""The mpmath oracle against the closed forms of the paper, and nothing of dbisol.

Every other use of tests/mp_oracle.py trusts it; these checks make a wrong
oracle fail on its own instead of agreeing with a wrong program.
"""

import math

import mpmath as mp
import pytest

from mp_oracle import Soliton

# energy of the unit-coupling planar compacton, evaluated analytically
BABY_E_UNIT = math.sqrt(1.5) - math.log(2.0 + math.sqrt(3.0)) / (2.0 * math.sqrt(2.0))
SIGMAS = [0.25, 1.0, 4.0]


def baby_old1_closed(beta, mu, n):
    """Radius and energy of the planar compacton of V = h."""
    beta, mu = mp.mpf(beta), mp.mpf(mu)
    xt = mp.sqrt(1 / (2 * beta ** 2) + 1 / mu ** 2) / (2 * mp.pi)
    sv = 2 * mp.sqrt(2) * mp.pi * mu ** 2 / beta
    energy = mp.pi * beta ** 2 * (xt * mp.sqrt(1 + (sv * xt) ** 2) - mp.asinh(sv * xt) / sv)
    return abs(n) * xt, abs(n) * energy


def skyrme_standard_radius(sigma):
    s = mp.mpf(sigma)
    return mp.sqrt(s) * (1 + s) + (1 - s ** 2) * mp.atan(1 / mp.sqrt(s))


def skyrme_bps_radius(sigma):
    return mp.sqrt(mp.pi) * mp.sqrt(mp.pi + 4 * mp.mpf(sigma)) / 2


@pytest.fixture(autouse=True)
def precise():
    with mp.workdps(30):
        yield


def rel(got, want):
    return float(abs(got - want) / abs(want))


@pytest.mark.parametrize("beta,mu,n", [(1.0, 1.0, 1), (1.3, 0.8, 2), (0.4, 2.5, -3)])
def test_planar_old1_radius_and_energy(beta, mu, n):
    radius, energy = baby_old1_closed(beta, mu, n)
    sol = Soliton("baby", "old:1", beta, mu, n)
    assert rel(sol.radius(), radius) <= 1e-14
    assert rel(sol.energy(), energy) <= 1e-14
    assert rel(sol.average_energy(), energy) <= 1e-14


def test_planar_old1_unit_energy_is_the_papers_value():
    sol = Soliton("baby", "old:1", 1.0, 1.0, 1)
    assert rel(sol.energy(), BABY_E_UNIT) <= 1e-14
    assert rel(sol.radius(), math.sqrt(1.5) / (2.0 * math.pi)) <= 1e-14


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("tag,closed", [("standard", skyrme_standard_radius),
                                        ("bps", skyrme_bps_radius)])
def test_skyrme_radius(tag, closed, sigma):
    sol = Soliton("skyrme", tag, math.sqrt(sigma), 1.0, 1)
    assert rel(sol.radius(), closed(sigma)) <= 1e-14


def test_skyrme_sigma_one_energies():
    # the paper's closed forms collapse at sigma = 1: 8 sqrt2 / (9 pi) for the
    # standard potential, sqrt2 / (6 pi) (z0 (1 + pi/2) - asinh z0) for the BPS one
    z0 = skyrme_bps_radius(1.0)
    want = {"standard": 8 * mp.sqrt(2) / (9 * mp.pi),
            "bps": mp.sqrt(2) / (6 * mp.pi) * (z0 * (1 + mp.pi / 2) - mp.asinh(z0))}
    for tag, energy in want.items():
        sol = Soliton("skyrme", tag, 1.0, 1.0, 1)
        assert rel(sol.energy(), energy) <= 1e-14
        assert rel(sol.average_energy(), energy) <= 1e-14


def test_power_law_compacton():
    # alpha_k = 1 with V = h: B0 = mu sqrt(h), so h = (1 - pi x / |n|)^2 with
    # radius |n| / pi, and the energy is 4/3 per unit charge
    sol = Soliton("baby", "old:1", 1.0, 1.0, 2, alpha_k=1.0)
    assert rel(sol.radius(), 2 / mp.pi) <= 1e-14
    assert rel(sol.energy(), mp.mpf(8) / 3) <= 1e-14
    assert rel(sol.average_energy(), mp.mpf(8) / 3) <= 1e-14
    x = [0.1, 0.3, 0.5]
    want = [(1 - mp.pi * mp.mpf(v) / 2) ** 2 for v in x]
    for got, w in zip(sol.fields(x, [0.6, 0.35, 0.06]), want):
        assert rel(got, w) <= 1e-14


def test_coordinates_and_fields_invert_each_other():
    sol = Soliton("skyrme", "standard", 1.0, 1.0, 1)
    fields = [3.0, 1.0, 1e-3]
    coords = sol.coordinates(fields)
    back = sol.fields(coords, [2.5, 1.2, 2e-3])
    for f, b in zip(fields, back):
        assert rel(b, f) <= 1e-20


def test_rejects_a_field_outside_the_chart():
    with pytest.raises(ValueError, match="outside the chart"):
        Soliton("baby", "old:1", 1.0, 1.0, 1).coordinates([1.5])


def test_tail_has_no_radius():
    with pytest.raises(ValueError, match="never reaches the vacuum"):
        Soliton("baby", "old:2", 1.0, 1.0, 1).radius()
