"""Workload `campaign`: an in-process coupling study.

Each configuration is solved on the CLI's default grid, then validated,
reported, checked against its second-order equation and classified, and
its CSV and JSON are written: what a user does for every point of a
coupling scan.  The profiles, numerics and observables layers do almost
all the work, with warm caches; the bounds layer does none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import dbisol.bps
import dbisol.cli
import dbisol.observables
import dbisol.profiles
import inputs
import oracle
from harness import Op

# relative tolerance of every energy against the oracle: compute_energy_report
# integrates to epsrel 1e-10 and the average route to 1e-12, so 1e-9 leaves
# an order of magnitude for the error estimate itself
ENERGY_RTOL = 1e-9
CHARGE_ATOL = 1e-6
# sampled coordinates against the oracle, in units of the extent: the
# composite Gauss-Legendre prefix is exact to rounding for smooth integrands
# and 55 bisection steps resolve a segment far below this
COORD_TOL = 1e-9
# interior samples whose coordinate the oracle recomputes, as fractions of
# the grid; the vacuum end is where the inverse map is hardest
SAMPLE_FRACTIONS = (0.2, 0.6, 0.98)


@dataclass
class State:
    items: list            # (Config, ModelParams, PotentialSpec)
    solitons: list         # oracle.Soliton per item
    energies: list         # oracle energy per item
    csv_path: str
    json_path: str
    coords_cache: dict


def prepare(ctx) -> State:
    items = inputs.build("campaign", ctx.seed)
    solitons = [oracle.Soliton(c.sector, c.potential, c.beta, c.mu, c.n, c.alpha_k)
                for c, _, _ in items]
    state = State(items, solitons, [s.energy() for s in solitons],
                  str(ctx.out_dir / "campaign.csv"), str(ctx.out_dir / "campaign.json"), {})
    # warm-up: one configuration of every family
    for i in range(len(inputs.CAMPAIGN_FAMILIES)):
        _, model, pot = items[i]
        solve_one(state, model, pot)
    return state


def solve_one(state: State, model, pot):
    """One configuration, through the program's public functions."""
    prof = dbisol.profiles.solve_profile(model, pot, dbisol.profiles.GridSpec(count=inputs.GRID))
    prof.validate_invariants()
    report = dbisol.observables.compute_energy_report(prof, model, pot)
    resid = dbisol.bps.eom_residual(prof)
    tail = dbisol.profiles.tail_fit(prof)
    dbisol.profiles.write_profile_csv(prof, state.csv_path)
    dbisol.cli.write_json_atomic(state.json_path, {
        "beta": model.beta, "mu": model.mu, "n": model.charge,
        "compacton_radius": prof.compacton_radius,
        "eom_max_residual": resid.max_abs_residual,
        "tail": tail.value,
        **report.to_json_dict(),
    })
    return prof, report, tail


def run_round(state: State, tracer) -> list[Op]:
    pots = {}
    if tracer is not None:
        tracer.install()
        for _, _, pot in state.items:
            if id(pot) not in pots:
                pots[id(pot)] = tracer.counted_potential(pot)
    ops = []
    try:
        for i, (_, model, pot) in enumerate(state.items):
            t = time.perf_counter()
            try:
                out = solve_one(state, model, pots.get(id(pot), pot))
            except Exception as exc:  # a program error fails this operation only
                ops.append(Op(i, time.perf_counter() - t, None, f"{type(exc).__name__}: {exc}"))
                continue
            ops.append(Op(i, time.perf_counter() - t, out))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops


def check(state: State, op: Op) -> list[str]:
    cfg, model, _ = state.items[op.key]
    sol = state.solitons[op.key]
    prof, report, tail = op.output
    return check_solution(cfg, sol, state.energies[op.key], prof, report, tail,
                          state.coords_cache, op.key)


def check_solution(cfg, sol, energy, prof, report, tail, cache, key) -> list[str]:
    """Every property one solved configuration must have."""
    bad = []

    def rel(x):
        return abs(x - energy) / abs(energy)

    if not rel(report.energy_quadrature) <= ENERGY_RTOL:
        bad.append(f"quadrature energy off by {rel(report.energy_quadrature):.2e}")
    if report.energy_closed_form is not None and not rel(report.energy_closed_form) <= ENERGY_RTOL:
        bad.append(f"closed-form energy off by {rel(report.energy_closed_form):.2e}")
    if not rel(abs(cfg.n) * report.energy_per_charge_avg) <= ENERGY_RTOL:
        bad.append(f"average-route energy off by {rel(abs(cfg.n) * report.energy_per_charge_avg):.2e}")
    if not abs(report.charge - cfg.n) <= CHARGE_ATOL:
        bad.append(f"charge {report.charge!r} is not {cfg.n}")
    bad += check_profile(sol, prof, cache, key)
    if tail.value != sol.tail:
        bad.append(f"tail_fit says {tail.value}, the vacuum exponent says {sol.tail}")
    return bad


def check_profile(sol, prof, cache, key) -> list[str]:
    """Monotone, both boundary values met, sampled coordinates on the oracle's map."""
    f = np.asarray(prof.field)
    x = np.asarray(prof.coordinates)
    anti = float(sol.anti)
    bad = []
    if not np.all(np.diff(f) <= 0.0):
        bad.append(f"field increases by up to {float(np.diff(f).max()):.2e}")
    if f[0] != anti:
        bad.append(f"field starts at {f[0]!r}, not {anti!r}")
    floor = float(sol.floor)
    if not 0.0 <= f[-1] <= floor * (1.0 + COORD_TOL):
        bad.append(f"field ends at {f[-1]!r}, above the vacuum floor {floor!r}")
    idx = [int(round(q * (inputs.GRID - 1))) for q in SAMPLE_FRACTIONS]
    fields = tuple(float(f[i]) for i in idx)
    if (key, fields) not in cache:
        cache[(key, fields)] = sol.coordinates(list(fields) + [sol.floor])
    *z, extent = cache[(key, fields)]
    err = max(abs(float(x[i]) - zi) for i, zi in zip(idx, z))
    if not err <= COORD_TOL * extent:
        bad.append(f"sampled coordinates off by {err / extent:.2e} of the extent")
    return bad

