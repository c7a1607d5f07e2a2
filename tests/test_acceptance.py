"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success).
"""

import math

import mpmath as mp
import numpy as np

from dbisol import (GridSpec, KineticLaw, ModelParams, Sector,
                    baby_energy_closed, baby_old_exact, baby_old_radius,
                    certify, charge_quadrature, classify_localization,
                    compare_reference, energy_per_charge_average, energy_quadrature,
                    eom_residual, large_beta_sweep, make_potential, optimize_bound,
                    power_family_energy_per_charge, profile_on_grid, sharpness,
                    skyrme_bps_energy_closed, skyrme_bps_exact, skyrme_bps_radius,
                    skyrme_standard_energy_closed, skyrme_standard_exact,
                    skyrme_standard_implicit_lhs, skyrme_standard_radius,
                    small_mu_sweep, solve_profile, tail_fit)
from dbisol.cli import main as cli_main

OLD = make_potential("old-baby-power", 1.0)
STD = make_potential("skyrme-standard")
BPSPOT = make_potential("bps-potential")


def report(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def baby(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.BABY2D)
    base.update(kw)
    return ModelParams(**base)


def skyrme(**kw):
    base = dict(beta=1.0, mu=1.0, charge=1, sector=Sector.SKYRME3D)
    base.update(kw)
    return ModelParams(**base)


def xi_power_potential(a):
    return make_potential("custom",
                          evaluate=lambda xi: np.power(np.asarray(xi, dtype=float), a),
                          derivative=lambda xi: a * np.power(np.asarray(xi, dtype=float), a - 1),
                          domain=(0.0, math.pi), vacuum_coordinate=0.0, vacuum_exponent=a)


def test_criterion_01_baby_compacton_exactness():
    worst_sup = 0.0
    worst_rad = 0.0
    for beta in (0.5, 1.0, 2.0):
        for mu in (0.5, 1.0, 2.0):
            p = baby(beta=beta, mu=mu)
            prof = solve_profile(p, OLD)
            exact = baby_old_exact(prof.coordinates, p)
            worst_sup = max(worst_sup, float(np.max(np.abs(prof.field - exact))))
            x0 = abs(p.charge) / (2 * math.pi) * math.sqrt(1 / (2 * beta ** 2) + 1 / mu ** 2)
            worst_rad = max(worst_rad, abs(prof.compacton_radius - x0))
    report(1, "planar compacton matches the closed form",
           worst_sup <= 1e-8 and worst_rad <= 1e-8,
           f"sup={worst_sup:.2e}, radius diff={worst_rad:.2e}")


def test_criterion_02_baby_energy():
    p = baby()
    prof = solve_profile(p, OLD)
    e_quad = energy_quadrature(prof, p, OLD)
    e_closed = baby_energy_closed(p)
    target = math.sqrt(1.5) - math.log(2 + math.sqrt(3)) / (2 * math.sqrt(2))
    rel = abs(e_quad - e_closed) / e_closed
    ok = rel <= 1e-6 and abs(e_closed - target) <= 1e-12 and abs(target - 0.759130) < 1e-6
    report(2, "planar energy: quadrature vs closed form", ok,
           f"rel={rel:.2e}, E={e_closed:.6f}")


def test_criterion_03_linearity():
    cases = [
        (Sector.BABY2D, OLD, KineticLaw.dbi()),
        (Sector.BABY2D, OLD, KineticLaw.power(1.0)),
        (Sector.SKYRME3D, STD, KineticLaw.dbi()),
        (Sector.SKYRME3D, BPSPOT, KineticLaw.dbi()),
    ]
    worst = 0.0
    for sector, pot, law in cases:
        per = []
        for n in range(1, 6):
            p = ModelParams(1.0, 1.0, n, sector, law)
            prof = solve_profile(p, pot, GridSpec(count=400))
            per.append(energy_quadrature(prof, p, pot) / n)
        worst = max(worst, (max(per) - min(per)) / per[0])
    report(3, "energy per charge constant for n = 1..5", worst <= 1e-8,
           f"max spread={worst:.2e}")


def test_criterion_04_small_mu_slope():
    ok = True
    details = []
    for n, target in ((1, 2.0 / 3.0), (4, 8.0 / 3.0)):
        res = small_mu_sweep(baby(charge=n), [1e-2, 1e-3, 1e-4], OLD)
        rel = abs(res.slope - target) / target
        details.append(f"n={n}: slope={res.slope:.5f}")
        ok = ok and rel <= 0.01
    report(4, "energy slope in mu equals 2|n|/3 within 1%", ok, "; ".join(details))


def test_criterion_05_large_beta_exponent():
    res = large_beta_sweep(baby(), [10.0, 100.0, 1000.0], OLD)
    ok = abs(res.exponent + 2.0) <= 0.1
    report(5, "profile distance to the large-beta limit decays like beta^-2", ok,
           f"exponent={res.exponent:.4f}")


def test_criterion_06_skyrme_standard():
    # implicit-root residual
    worst_res = 0.0
    for sigma in (0.25, 1.0, 4.0):
        z0 = skyrme_standard_radius(sigma)
        zs = np.linspace(1e-6, z0 * (1 - 1e-6), 400)
        xi = skyrme_standard_exact(zs, sigma)
        worst_res = max(worst_res, float(np.max(np.abs(
            skyrme_standard_implicit_lhs(xi, sigma) - zs))))
    ok_res = worst_res <= 1e-10
    ok_z0 = abs(skyrme_standard_radius(1.0) - 2.0) <= 1e-12
    worst_rel = 0.0
    for sigma in (0.25, 1.0, 4.0):
        p = skyrme(beta=math.sqrt(sigma))
        prof = solve_profile(p, STD)
        e_q = energy_quadrature(prof, p, STD)
        e_c = skyrme_standard_energy_closed(p)
        worst_rel = max(worst_rel, abs(e_q - e_c) / e_c)
    ok_energy = worst_rel <= 1e-6
    # endpoint asymptotics inside the last 1e-3 of the domain
    ok_asym = True
    for sigma in (0.25, 1.0, 4.0):
        z0 = skyrme_standard_radius(sigma)
        dz = 1e-3 * z0
        xi_edge = skyrme_standard_exact(z0 - dz, sigma)
        edge = xi_edge / math.sqrt(2 * dz)
        xi_core = skyrme_standard_exact(dz, sigma)
        core = (math.pi - xi_core) / dz ** (1.0 / 3.0)
        edge_ref = sigma ** -0.25
        core_ref = 6 ** (1 / 3) * (1 + sigma) ** (1 / 6) / (2 + sigma) ** (1 / 3)
        ok_asym = ok_asym and abs(edge / edge_ref - 1) <= 0.01 \
            and abs(core / core_ref - 1) <= 0.01
        if sigma == 1.0:
            ok_asym = ok_asym and abs(core_ref - math.sqrt(2)) < 1e-12
    ok = ok_res and ok_z0 and ok_energy and ok_asym
    report(6, "standard-potential profile: implicit roots, radius, energy, asymptotics",
           ok, f"root resid={worst_res:.2e}, energy rel={worst_rel:.2e}")


def test_criterion_07_skyrme_bps():
    ok_eta = True
    for sigma in (0.25, 1.0, 4.0):
        z0 = skyrme_bps_radius(sigma)
        eta0 = sigma * (math.sqrt(1 + (z0 / sigma) ** 2) - 1)
        ok_eta = ok_eta and abs(eta0 - math.pi / 2) <= 1e-12
    p = skyrme()
    prof = solve_profile(p, BPSPOT)
    e_q = energy_quadrature(prof, p, BPSPOT)
    e_c = skyrme_bps_energy_closed(p)
    rel = abs(e_q - e_c) / e_c
    ok = ok_eta and rel <= 1e-6 and abs(e_c - 0.336969) <= 5e-6
    report(7, "cubic-vacuum potential: boundary value and energy", ok,
           f"E={e_c:.6f}, rel={rel:.2e}")


def _richardson_ratio(build):
    r1 = eom_residual(build(1e-3), margin=round(1e-2 / 1e-3)).max_abs_residual
    r2 = eom_residual(build(5e-4), margin=round(1e-2 / 5e-4)).max_abs_residual
    return r1 / r2


def test_criterion_08_eom_convergence():
    p = baby()
    x0 = baby_old_radius(p)

    def build_baby(delta):
        return profile_on_grid(lambda x: baby_old_exact(x, p), p, OLD,
                               spacing=delta, extent=x0 + 10 * delta, compacton_radius=x0)

    ps = skyrme()
    z0s = skyrme_standard_radius(1.0)

    def build_std(delta):
        return profile_on_grid(lambda z: skyrme_standard_exact(z, 1.0), ps, STD,
                               spacing=delta, extent=z0s + 10 * delta, compacton_radius=z0s)

    z0b = skyrme_bps_radius(1.0)

    def build_bps(delta):
        return profile_on_grid(lambda z: skyrme_bps_exact(z, 1.0), ps, BPSPOT,
                               spacing=delta, extent=z0b + 10 * delta, compacton_radius=z0b)

    ratios = [_richardson_ratio(b) for b in (build_baby, build_std, build_bps)]
    ok = all(abs(r - 4.0) <= 0.5 for r in ratios)
    report(8, "second-order residual converges at rate delta^2 on all exact solutions",
           ok, "ratios=" + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_09_charge_quantization():
    cases = [
        (baby(charge=1), OLD), (baby(charge=3), OLD), (baby(charge=-2), OLD),
        (baby(charge=2, kinetic_law=KineticLaw.power(1.0)), OLD),
        (skyrme(charge=1), STD), (skyrme(charge=2), STD), (skyrme(charge=1), BPSPOT),
    ]
    worst = 0.0
    for p, pot in cases:
        prof = solve_profile(p, pot, GridSpec(count=400))
        worst = max(worst, abs(charge_quadrature(prof, p) - p.charge))
    report(9, "integrated charge equals the integer winding for every solve",
           worst <= 1e-6, f"max |charge - n| = {worst:.2e}")


def test_criterion_10_average_formula():
    worst = 0.0
    for p, pot in ((baby(), OLD), (baby(beta=0.5, mu=2.0, charge=2), OLD),
                   (skyrme(), STD), (skyrme(), BPSPOT),
                   (skyrme(beta=2.0), STD)):
        prof = solve_profile(p, pot, GridSpec(count=400))
        per = energy_quadrature(prof, p, pot) / abs(p.charge)
        avg = energy_per_charge_average(p, pot)
        worst = max(worst, abs(avg - per) / per)
    pw = baby(kinetic_law=KineticLaw.power(1.0))
    avg_pow = power_family_energy_per_charge(pw, OLD)
    prof = solve_profile(pw, OLD, GridSpec(count=400))
    per_pow = energy_quadrature(prof, pw, OLD) / abs(pw.charge)
    ok = worst <= 1e-8 and abs(avg_pow - 4.0 / 3.0) <= 1e-10 \
        and abs(per_pow - 4.0 / 3.0) <= 1e-8
    report(10, "target-space average reproduces quadrature energy per charge", ok,
           f"max rel={worst:.2e}, power-family E/n={avg_pow:.10f}")


def test_criterion_11_bounds():
    c2 = optimize_bound(2)
    # the largest double not above 3^(3/2)/2
    with mp.workdps(50):
        c2_exact = mp.sqrt(27) / 2
        c2_below = float(c2_exact)
        if mp.mpf(c2_below) > c2_exact:
            c2_below = math.nextafter(c2_below, 0.0)
    ok_c2 = c2.constant == c2_below
    c3 = optimize_bound(3)
    ok_alpha = abs(c3.alpha - 0.64286) <= 1e-3
    ok_c3 = 3.50 - 1e-9 <= c3.constant <= 3.60
    c3 = certify(c3, 1_000_000, seed=0)
    ok_slack = c3.min_slack >= -1e-12
    sharp = sharpness(c3)
    ok_sharp = abs(sharp - c3.constant) / c3.constant <= 1e-6
    cmp = compare_reference(c3)
    ok_ref = abs(cmp["reference_energy"] - 87.638) <= 1e-3 \
        and abs(cmp["bound_energy_c35"] - 69.087) <= 1e-3 \
        and abs(cmp["relative_error_c35"] - 0.21) <= 0.005
    c4 = optimize_bound(4)
    ok_mono = c2.constant < c3.constant <= c4.constant + 1e-12
    ok = ok_c2 and ok_alpha and ok_c3 and ok_slack and ok_sharp and ok_ref and ok_mono
    report(11, "energy bounds: constants, pointwise slack, duality, reference gap", ok,
           f"alpha*={c3.alpha:.6f}, C3={c3.constant:.10f}, min slack={c3.min_slack:.2e}, "
           f"gap={cmp['relative_error_c35']:.3f}")


def test_criterion_12_classification():
    ok = True
    details = []
    for alpha in (1.0, 2.0, 3.0):
        pot = make_potential("old-baby-power", alpha)
        prof = solve_profile(baby(), pot)
        predicted = classify_localization(alpha, Sector.BABY2D)
        fitted = tail_fit(prof)
        details.append(f"baby a={alpha}: {fitted.value}")
        ok = ok and fitted is predicted
    for alpha in (1.0, 1.5, 2.0):
        pot = xi_power_potential(alpha)
        prof = solve_profile(skyrme(), pot)
        predicted = classify_localization(alpha, Sector.SKYRME3D)
        fitted = tail_fit(prof)
        details.append(f"skyrme a={alpha}: {fitted.value}")
        ok = ok and fitted is predicted
    report(12, "tail fit agrees with the threshold classification", ok,
           "; ".join(details))


def test_criterion_13_determinism(tmp_path):
    pairs = []
    for tag, args in (("solve", ["solve", "--seed", "5"]),
                      ("bound", ["bound", "--order", "3", "--samples", "30000",
                                 "--seed", "5"])):
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{tag}-{run}"
            code = cli_main(args + ["--out", str(out)])
            assert code == 0
            blob = (tmp_path / f"{tag}-{run}.json").read_text().replace(str(out), "OUT")
            if tag == "solve":
                blob += (tmp_path / f"{tag}-{run}.csv").read_text()
            outs.append(blob)
        pairs.append(outs[0] == outs[1])
    report(13, "identical configuration and seed give byte-identical artifacts",
           all(pairs), f"solve={pairs[0]}, bound={pairs[1]}")
