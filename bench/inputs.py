"""Seeded inputs of the three workloads.

The same seed always gives the same inputs.  Run as a script, this module
is the set-up probe behind `setup_s`: a fresh interpreter imports dbisol,
builds one workload's inputs and exits.

    python3 bench/inputs.py <workload> <seed>
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from harness import SRC

GRID = 1000             # samples per profile, the CLI default
CERTIFY_SAMPLES = 4_000_000
CLI_BOUND_SAMPLES = 1_000_000     # the CLI default
ORDERS = tuple(range(2, 9))

# (sector, potential, alpha_k): every family the campaign covers
CAMPAIGN_FAMILIES = (
    [("baby", f"old:{a:g}", None) for a in (0.5, 1, 1.5, 2, 3, 4)]
    + [("baby", f"old:{a}", ak) for a in (1, 2) for ak in (0.75, 1.0, 2.0)]
    + [("skyrme", tag, None) for tag in ("standard", "bps", "power:2.5", "power:4", "power:7")]
)
CAMPAIGN_PER_FAMILY = 12
# beta and mu are drawn log-uniformly from this grid of 21 values on [0.1, 10].
# A finite grid keeps the failed count independent of the seed: on continuous
# draws the energy quadrature misses its tolerance in rare patches of the
# coupling plane (see FOUND in CHANGES.md), while every grid point solves and
# matches the oracle.
COUPLINGS = tuple(0.1 * 10.0 ** (k / 10) for k in range(21))
# the closed form of the standard 3-D potential cancels catastrophically as
# sigma = beta^2 / mu^2 grows and already misses 1e-9 at sigma ~ 4e3 (FOUND in
# CHANGES.md), so that family keeps sigma <= 1e3
STANDARD_MAX_SIGMA = 1e3


@dataclass(frozen=True)
class Config:
    sector: str
    potential: str
    beta: float
    mu: float
    n: int
    alpha_k: float | None = None


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _couplings(rng: random.Random, potential: str) -> tuple[float, float]:
    while True:
        beta, mu = rng.choice(COUPLINGS), rng.choice(COUPLINGS)
        if potential != "standard" or beta ** 2 / mu ** 2 <= STANDARD_MAX_SIGMA:
            return beta, mu


def _charge(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 5)


def campaign_configs(seed: int) -> list[Config]:
    """Couplings from the log grid on [0.1, 10], charge in +-1..5, families interleaved."""
    rng = random.Random(f"campaign-{seed}")
    out = []
    for _ in range(CAMPAIGN_PER_FAMILY):
        for sector, tag, ak in CAMPAIGN_FAMILIES:
            out.append(Config(sector, tag, *_couplings(rng, tag), _charge(rng), ak))
    return out


@dataclass(frozen=True)
class BoundJob:
    order: int
    mc_seed: int
    samples: int


def certify_jobs(seed: int) -> list[BoundJob]:
    """Every order 2..8 at beta = 1, with seeded Monte-Carlo draws.

    The optimizer runs from its default starts: how many coordinate-ascent
    sweeps it needs depends on them, so seeding them would make the round's
    work, not only its inputs, change with the seed.
    """
    rng = random.Random(f"certify-{seed}")
    return [BoundJob(order, rng.randrange(2 ** 31), CERTIFY_SAMPLES) for order in ORDERS]


@dataclass(frozen=True)
class CliRun:
    name: str             # subcommand, as it appears in the metrics
    args: tuple[str, ...]
    config: Config | None = None
    expect: float | None = None   # sweep: the limit law's slope or exponent


def cli_batch(seed: int) -> list[CliRun]:
    """One `dbisol` invocation per use: solve x2, verify x2, bound, sweep x2, classify.

    verify runs at the default couplings beta = mu = 1 with a seeded charge:
    its residual convergence check uses a fixed grid spacing and does not
    pass for every coupling in [0.1, 10].  classify runs the DBI law only.
    """
    rng = random.Random(f"cli-{seed}")
    solves = []
    for sector, tags in (("baby", ("old:0.5", "old:1", "old:1.5", "old:3")),
                         ("skyrme", ("standard", "bps", "power:2.5", "power:7"))):
        tag = rng.choice(tags)
        solves.append(Config(sector, tag, *_couplings(rng, tag), _charge(rng)))
    runs = [CliRun("solve", ("solve",) + _config_flags(c), c) for c in solves]
    for sector in ("baby", "skyrme"):
        runs.append(CliRun("verify", ("verify", "--sector", sector, "--n", str(_charge(rng)))))
    runs.append(CliRun("bound", ("bound", "--order", "3", "--samples", str(CLI_BOUND_SAMPLES),
                                 "--seed", str(rng.randrange(2 ** 31)))))
    n = _charge(rng)
    mu_max = _log_uniform(rng, 1e-3, 1e-2)
    runs.append(CliRun("sweep", ("sweep", "--axis", "mu", "--n", str(n), "--values",
                                 _values((mu_max, mu_max / 10, mu_max / 100))),
                       expect=2.0 * abs(n) / 3.0))
    beta_min = _log_uniform(rng, 10.0, 100.0)
    runs.append(CliRun("sweep", ("sweep", "--axis", "beta", "--n", str(_charge(rng)),
                                 "--mu", repr(_log_uniform(rng, 0.3, 3.0)), "--values",
                                 _values((beta_min, 10 * beta_min, 100 * beta_min))),
                       expect=-2.0))
    sector, tag = rng.choice((("baby", "old:1"), ("baby", "old:2"), ("baby", "old:3"),
                              ("skyrme", "standard"), ("skyrme", "bps"), ("skyrme", "power:7")))
    c = Config(sector, tag, *_couplings(rng, tag), _charge(rng))
    runs.append(CliRun("classify", ("classify",) + _config_flags(c), c))
    return runs


def _values(vals) -> str:
    return ",".join(repr(float(v)) for v in vals)


def _config_flags(c: Config) -> tuple[str, ...]:
    return ("--sector", c.sector, "--potential", c.potential, "--beta", repr(c.beta),
            "--mu", repr(c.mu), "--n", str(c.n))


# ---------------------------------------------------------------------------
# program objects

def potential_for(cfg: Config):
    """The PotentialSpec a user would build for this configuration."""
    import numpy as np
    from dbisol import make_potential

    tag = cfg.potential
    if tag.startswith("old:"):
        return make_potential("old-baby-power", float(tag[4:]))
    if tag == "standard":
        return make_potential("skyrme-standard")
    if tag == "bps":
        return make_potential("bps-potential")
    a = float(tag.split(":", 1)[1])
    return make_potential(
        "custom",
        evaluate=lambda xi: np.power(np.asarray(xi, dtype=float), a),
        derivative=lambda xi: a * np.power(np.asarray(xi, dtype=float), a - 1.0),
        domain=(0.0, math.pi), vacuum_coordinate=0.0, vacuum_exponent=a)


def model_for(cfg: Config):
    from dbisol import KineticLaw, ModelParams, Sector

    sector = Sector.BABY2D if cfg.sector == "baby" else Sector.SKYRME3D
    law = KineticLaw.dbi() if cfg.alpha_k is None else KineticLaw.power(cfg.alpha_k)
    return ModelParams(cfg.beta, cfg.mu, cfg.n, sector, law)


def build(workload: str, seed: int):
    """The workload's inputs, with the program objects the campaign passes in."""
    if workload == "campaign":
        configs = campaign_configs(seed)
        potentials = {}
        for c in configs:
            if (c.sector, c.potential) not in potentials:
                potentials[(c.sector, c.potential)] = potential_for(c)
        return [(c, model_for(c), potentials[(c.sector, c.potential)]) for c in configs]
    if workload == "certify":
        return certify_jobs(seed)
    if workload == "cli":
        return cli_batch(seed)
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import dbisol  # noqa: F401  (the import is what the probe measures)

    build(sys.argv[1], int(sys.argv[2]))
