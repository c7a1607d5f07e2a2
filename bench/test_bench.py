"""Self-tests of the benchmark: tiny workloads pass, injected errors fail.

    python3 -m pytest bench/test_bench.py

Each injected error is a wrong output the program could plausibly
produce; the benchmark must count the operation that produced it as
failed (and `correct` false), never as passed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(harness.SRC))


@pytest.fixture
def ctx(tmp_path):
    return harness.Context(seed=7, out_dir=tmp_path, env=harness.child_env())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(inputs, "CAMPAIGN_PER_FAMILY", 1)
    monkeypatch.setattr(inputs, "ORDERS", (2, 3, 4))
    monkeypatch.setattr(inputs, "CERTIFY_SAMPLES", 20_000)
    monkeypatch.setattr(inputs, "CLI_BOUND_SAMPLES", 20_000)


def tally(wl, state, ops) -> run.Tally:
    t = run.Tally()
    t.check(wl, state, ops)
    return t


def test_oracle_reproduces_the_papers_values():
    oracle.self_test()
    assert oracle.bound_constant(3) == pytest.approx(3.5, abs=1e-15)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert inputs.campaign_configs(3) == inputs.campaign_configs(3)
    assert inputs.campaign_configs(3) != inputs.campaign_configs(4)
    assert inputs.cli_batch(3) == inputs.cli_batch(3)
    assert inputs.certify_jobs(3) != inputs.certify_jobs(4)


@pytest.fixture
def campaign(ctx, tiny):
    import wl_campaign
    state = wl_campaign.prepare(ctx)
    return wl_campaign, state, wl_campaign.run_round(state, None)


def test_campaign_tiny_round_passes(campaign):
    wl, state, ops = campaign
    t = tally(wl, state, ops)
    assert (t.attempted, t.failed, t.wrong) == (len(inputs.CAMPAIGN_FAMILIES), 0, 0)


def test_campaign_energy_off_by_1e6_fails(campaign):
    wl, state, ops = campaign
    prof, report, tail = ops[0].output
    bent = dataclasses.replace(report, energy_quadrature=report.energy_quadrature * (1 + 1e-6))
    t = tally(wl, state, [dataclasses.replace(ops[0], output=(prof, bent, tail))])
    assert (t.failed, t.wrong) == (1, 1)


def test_campaign_non_monotone_field_fails(campaign):
    wl, state, ops = campaign
    prof, report, tail = ops[0].output
    field = np.array(prof.field)
    field[500] = field[499] + 1e-6
    bent = dataclasses.replace(prof, field=field)
    t = tally(wl, state, [dataclasses.replace(ops[0], output=(bent, report, tail))])
    assert (t.failed, t.wrong) == (1, 1)


def test_campaign_traced_round_reports_every_layer(campaign):
    from spans import Tracer, layer_metrics

    wl, state, _ = campaign
    tracer = Tracer()
    ops = wl.run_round(state, tracer)
    assert tally(wl, state, ops).failed == 0
    m = layer_metrics(tracer.summary(), 1.0)
    assert m["numerics.invert.evals"][0] > 0
    assert m["observables.energy.evals"][0] > 0
    assert m["profiles.csv_bytes"][0] > 0
    assert m["bounds.line_searches"][0] == 0


@pytest.fixture
def certify(ctx, tiny):
    import wl_certify
    state = wl_certify.prepare(ctx)
    return wl_certify, state, wl_certify.run_round(state, None)


def test_certify_tiny_round_passes(certify):
    wl, state, ops = certify
    t = tally(wl, state, ops)
    assert (t.attempted, t.failed, t.wrong) == (3, 0, 0)


def test_certify_constant_above_c_n_fails(certify):
    wl, state, ops = certify
    op = next(op for op in ops if op.key.order == 3)
    cert, sharp, ref = op.output
    above = dataclasses.replace(cert, constant=state.constants[3] + 1e-10)
    t = tally(wl, state, [dataclasses.replace(op, output=(above, sharp, ref))])
    assert (t.failed, t.wrong) == (1, 1)


def test_cli_batch_passes_and_a_wrong_energy_fails(ctx, tiny):
    import wl_cli
    state = wl_cli.prepare(ctx)
    ops = wl_cli.run_round(state, None)
    t = tally(wl_cli, state, ops)
    assert (t.attempted, t.failed, t.wrong) == (8, 0, 0)
    solve = ops[0]
    data = json.loads(solve.output["json"])
    data["energy_quadrature"] *= 1 + 1e-6
    bent = dataclasses.replace(solve, output={**solve.output, "json": json.dumps(data)})
    t = tally(wl_cli, state, [bent])
    assert (t.failed, t.wrong) == (1, 1)
    # an artifact that lacks a key fails its operation and nothing else
    bound = next(op for op in ops if state.runs[op.key].name == "bound")
    dropped = []
    for op, key in ((solve, "energy_quadrature"), (bound, "constant")):
        data = json.loads(op.output["json"])
        del data[key]
        dropped.append(dataclasses.replace(op, output={**op.output, "json": json.dumps(data)}))
    t = tally(wl_cli, state, dropped + ops[1:])
    assert (t.attempted, t.failed, t.wrong) == (2 + len(ops) - 1, 2, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "campaign", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_percentile_interpolates():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert math.isclose(harness.percentile(list(range(11)), 90), 9.0)


def test_percentiles_take_each_operations_median_over_rounds():
    # ten operations of 1..10 ms over three rounds; operation 0 is slow once
    rounds = [(0.055, [(k, 1e-3 * (k + 1)) for k in range(10)]) for _ in range(3)]
    rounds[1][1][0] = (0, 1.0)
    m = run.end_to_end(rounds, 1.0, 100.0)
    assert math.isclose(m["op_p50_ms"][0], 5.5)
    assert math.isclose(m["op_p90_ms"][0], 9.1)
    assert math.isclose(m["ops_per_s"][0], 30 / 0.165)
