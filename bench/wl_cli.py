"""Workload `cli`: a fixed batch of `dbisol` runs, each in a fresh interpreter.

solve (planar and 3-D), verify (both sectors), bound --order 3, sweep (mu
and beta axes) and classify (DBI law only), one after another, the way a
user runs them.  Import and cold first calls take most of each run, and
the profile code runs once per process, so a cache that helps `campaign`
shows no gain here.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle
import wl_campaign
import wl_certify
from harness import HERE, Op
from spans import merge

SOLVE_RTOL = 1e-9           # the CLI integrates energies to epsrel = min(--tol, 1e-9)
SWEEP_SLOPE_ATOL = 1e-3     # small-mu law E = (2|n|/3) mu + O(mu^2), mu <= 1e-2
SWEEP_EXPONENT_ATOL = 0.05  # large-beta distance ~ beta^-2


@dataclass
class State:
    runs: list
    out_dir: Path
    env: dict
    energies: dict            # run index -> oracle energy (solve runs)
    c3: float
    summaries: list = field(default_factory=list)
    import_s: float = 0.0
    proc_s: dict = field(default_factory=dict)   # subcommand -> process times, every untraced round
    peak_rss_kb: int = 0


def prepare(ctx) -> State:
    runs = inputs.build("cli", ctx.seed)
    energies = {}
    for i, run in enumerate(runs):
        if run.name == "solve":
            c = run.config
            energies[i] = oracle.Soliton(c.sector, c.potential, c.beta, c.mu, c.n).energy()
    return State(runs, ctx.out_dir, ctx.env, energies, oracle.bound_constant(3))


def _spawn(cmd: list[str], state: State, log: Path) -> tuple[int, float]:
    """Run a child to its end; (exit code, seconds).  Keeps the largest child RSS."""
    with open(log, "w") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, env=state.env, cwd=state.out_dir,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    state.peak_rss_kb = max(state.peak_rss_kb, usage.ru_maxrss)
    return proc.returncode, dt


def run_round(state: State, tracer) -> list[Op]:
    ops = []
    if tracer is not None:
        state.summaries, state.import_s = [], 0.0
    for i, run in enumerate(state.runs):
        prefix = state.out_dir / f"{i}-{run.name}"
        if tracer is None:
            cmd = [sys.executable, "-m", "dbisol.cli"]
        else:
            cmd = [sys.executable, str(HERE / "launch.py"), f"{prefix}.trace.json"]
        code, dt = _spawn(cmd + list(run.args) + ["--out", str(prefix)], state,
                          Path(f"{prefix}.stderr"))
        if code != 0:
            ops.append(Op(i, dt, None, f"exit code {code}: {Path(f'{prefix}.stderr').read_text()[-300:]}"))
            continue
        # read the artifacts now: the next round overwrites them
        ops.append(Op(i, dt, _artifacts(run, prefix)))
        if tracer is None:
            state.proc_s.setdefault(run.name, []).append(dt)
        else:
            summary = json.loads(Path(f"{prefix}.trace.json").read_text())
            state.summaries.append(summary)
            main_s = summary["spans"].get("cli.main", {"total_s": 0.0})["total_s"]
            state.import_s += dt - main_s
    return ops


def _artifacts(run, prefix: Path) -> dict:
    out = {"json": Path(f"{prefix}.json").read_text()}
    if run.name in ("solve", "sweep"):
        out["csv"] = Path(f"{prefix}.csv").read_text()
    return out


def check(state: State, op: Op) -> list[str]:
    run = state.runs[op.key]
    try:
        data = json.loads(op.output["json"])
        rows = list(csv.reader(op.output["csv"].splitlines())) if "csv" in op.output else None
        if rows is not None:
            [float(v) for row in rows[1:] for v in row]
    except (ValueError, KeyError) as exc:
        return [f"artifact does not parse: {exc}"]
    if run.name == "solve":
        return _check_solve(run, data, rows, state.energies[op.key])
    if run.name == "verify":
        return [] if data.get("all_passed") is True else [
            "verify failed: " + ", ".join(c["name"] for c in data["checks"] if not c["passed"])]
    if run.name == "bound":
        return _check_bound(run, data, state.c3)
    if run.name == "sweep":
        return _check_sweep(run, data, rows)
    c = run.config
    expected = oracle.Soliton(c.sector, c.potential, c.beta, c.mu, c.n).tail
    if data.get("agree") is True and data.get("predicted") == expected:
        return []
    return [f"classify: predicted {data.get('predicted')}, empirical {data.get('empirical')}, "
            f"the vacuum exponent says {expected}"]


def _check_solve(run, data, rows, energy) -> list[str]:
    bad = []
    if rows[0] != ["coordinate", "field", "derivative", "energy_density", "charge_density"]:
        bad.append(f"CSV header {rows[0]}")
    if len(rows) - 1 < inputs.GRID:
        bad.append(f"CSV has {len(rows) - 1} samples, asked for {inputs.GRID}")
    # the closed form exists for some potentials only; the quadrature always
    for key, required in (("energy_quadrature", True), ("energy_closed_form", False)):
        value = data.get(key)
        if value is None and not required:
            continue
        if not (isinstance(value, (int, float)) and abs(value - energy) <= SOLVE_RTOL * energy):
            bad.append(f"{key} {value!r} vs oracle {energy!r}")
    per = data.get("energy_per_charge_avg")
    if per is None or not abs(abs(run.config.n) * per - energy) <= SOLVE_RTOL * energy:
        bad.append(f"|n| energy_per_charge_avg {per!r} vs oracle {energy!r}")
    if not abs(data["charge"] - run.config.n) <= wl_campaign.CHARGE_ATOL:
        bad.append(f"charge {data['charge']!r} is not {run.config.n}")
    field = [float(r[1]) for r in rows[1:]]
    if any(b > a for a, b in zip(field, field[1:])):
        bad.append("field is not monotone")
    return bad


def _check_bound(run, data, c3) -> list[str]:
    bad = []
    if not c3 - wl_certify.CONSTANT_BELOW <= data["constant"] <= c3 + wl_certify.CONSTANT_ABOVE:
        bad.append(f"constant {data['constant']!r} vs C_3 = {c3!r}")
    if not data["min_slack"] >= wl_certify.SLACK_FLOOR:
        bad.append(f"min_slack {data['min_slack']!r}")
    if not abs(data["sharpness_minimum"] - data["constant"]) <= (wl_certify.CONSTANT_BELOW
                                                                 + wl_certify.CONSTANT_ABOVE):
        bad.append(f"sharpness {data['sharpness_minimum']!r} vs constant {data['constant']!r}")
    return bad


def _check_sweep(run, data, rows) -> list[str]:
    if data["axis"] == "mu":
        if not abs(data["slope"] - run.expect) <= SWEEP_SLOPE_ATOL:
            return [f"slope {data['slope']!r}, small-mu law {run.expect!r}"]
    elif not abs(data["exponent"] - run.expect) <= SWEEP_EXPONENT_ATOL:
        return [f"exponent {data['exponent']!r}, large-beta law {run.expect!r}"]
    if len(rows) != 4 or not all(math.isfinite(float(v)) for row in rows[1:] for v in row):
        return [f"sweep CSV {rows}"]
    return []


# run.py measures the benchmark process itself when a workload defines
# neither of these; the cli workload's work happens in its children
def peak_rss_mb(state: State) -> float:
    return state.peak_rss_kb / 1024.0


def trace_summary(state: State, tracer) -> dict:
    summary = merge(state.summaries)
    summary["import_s"] = state.import_s
    summary["proc_s"] = {name: statistics.median(ts) for name, ts in state.proc_s.items()}
    return summary
