"""Workload `certify`: optimize, certify and check the energy bound of every order.

For each truncation order 2..8 at beta = 1: `optimize_bound`, then
`certify` with enough Monte-Carlo samples that certification is a
sizeable share of the round, then `sharpness` and `compare_reference`.
The bounds layer does all the work; the profile layers stay idle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import dbisol.bounds
import inputs
import oracle
from harness import Op

BETA = 1.0
# the optimizer's line searches stop at 1e-10 in the weights, and the
# constant is stationary in them, so a maximizer lands within 1e-9 below
# the true optimum; it may never exceed it by more than rounding
CONSTANT_BELOW = 1e-9
CONSTANT_ABOVE = 1e-12
# certificate weights satisfy their two linear constraints to the tolerance
# BoundCertificate.validate enforces
WEIGHT_TOL = 1e-12
SLACK_FLOOR = -1e-12
REFERENCE_ENERGY = 8.0 * math.pi * 3.487


@dataclass
class State:
    jobs: list
    constants: dict     # order -> oracle C_N


def prepare(ctx) -> State:
    jobs = inputs.build("certify", ctx.seed)
    return State(jobs, {job.order: oracle.bound_constant(job.order) for job in jobs})


def bound_one(job):
    B = dbisol.bounds
    cert = B.optimize_bound(job.order, BETA)
    cert = B.certify(cert, job.samples, seed=job.mc_seed)
    return cert, B.sharpness(cert), B.compare_reference(cert)


def run_round(state: State, tracer) -> list[Op]:
    if tracer is not None:
        tracer.install()
    ops = []
    try:
        for job in state.jobs:
            t = time.perf_counter()
            try:
                out = bound_one(job)
            except Exception as exc:  # a program error fails this operation only
                ops.append(Op(job, time.perf_counter() - t, None, f"{type(exc).__name__}: {exc}"))
                continue
            ops.append(Op(job, time.perf_counter() - t, out))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops


def check(state: State, op: Op) -> list[str]:
    cert, sharp, ref = op.output
    return check_certificate(op.key, state.constants[op.key.order], cert, sharp, ref)


def check_certificate(job, c_exact: float, cert, sharp: float, ref: dict) -> list[str]:
    bad = []
    w = list(cert.weights)
    if len(w) != job.order or min(w) < 0.0:
        bad.append(f"weights {w} are not {job.order} non-negative numbers")
    if not abs(math.fsum(w) - 1.0) <= WEIGHT_TOL:
        bad.append(f"weights sum to {math.fsum(w)!r}")
    moment = math.fsum((k + 1) * wk for k, wk in enumerate(w))
    if not abs(moment - 1.5) <= WEIGHT_TOL:
        bad.append(f"sum k w_k = {moment!r}, not 3/2")
    if not c_exact - CONSTANT_BELOW <= cert.constant <= c_exact + CONSTANT_ABOVE:
        bad.append(f"constant {cert.constant!r} vs C_{job.order} = {c_exact!r}")
    if cert.samples != job.samples:
        bad.append(f"certified {cert.samples} samples, asked for {job.samples}")
    if not (cert.min_slack is not None and cert.min_slack >= SLACK_FLOOR):
        bad.append(f"min_slack {cert.min_slack!r} below {SLACK_FLOOR}")
    # the dual minimum on the equal-eigenvalue ray is C_N / beta itself
    if not abs(sharp * BETA - cert.constant) <= CONSTANT_BELOW + CONSTANT_ABOVE:
        bad.append(f"sharpness {sharp!r} is not constant/beta = {cert.constant / BETA!r}")
    bound = cert.constant / BETA * 2.0 * math.pi ** 2
    if not (math.isclose(ref["bound_energy"], bound, rel_tol=1e-14)
            and math.isclose(ref["reference_energy"], REFERENCE_ENERGY, rel_tol=1e-14)
            and math.isclose(ref["relative_error"], (REFERENCE_ENERGY - bound) / REFERENCE_ENERGY,
                             rel_tol=1e-12)):
        bad.append(f"compare_reference gives {ref}")
    return bad

