"""dbisol benchmark: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload {campaign,certify,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
With --trace 0 the timed phase runs untraced and the end-to-end metrics
are printed.  With --trace 1 untraced and traced rounds alternate and the
per-layer metrics are printed.  Every output is checked against the
mpmath oracle (bench/oracle.py) or against properties the method must
have; an operation that raises or whose output fails a check counts as
failed, and `correct` is false when any output failed a check.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# one thread everywhere, set before numpy loads (children inherit it)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from harness import (HERE, ROOT, SRC, Context, child_env, fresh_reported, fresh_seconds,
                     percentile, self_peak_rss_mb)

WORKLOADS = ("campaign", "certify", "cli")
PROBES = 5          # fresh interpreters per set-up or import measurement
TRACE_PAIRS = 3     # untraced/traced round pairs behind trace.overhead_s


def setup_seconds(workload: str, ctx: Context) -> float:
    """Median over fresh interpreters of: import dbisol, build the workload's inputs."""
    cmd = [sys.executable, str(HERE / "inputs.py"), workload, str(ctx.seed)]
    return statistics.median(fresh_seconds(cmd, ctx.env, ctx.out_dir) for _ in range(PROBES))


_TIMED_IMPORT = ("import sys, time\n"
                 "sys.path.insert(0, {src!r})\n"
                 "t = time.perf_counter()\n"
                 "import {mods}\n"
                 "print(time.perf_counter() - t)\n")


def import_metrics(ctx: Context) -> dict:
    def med(mods):
        code = _TIMED_IMPORT.format(src=str(SRC), mods=mods)
        return statistics.median(fresh_reported(code, ctx.env, ctx.out_dir) for _ in range(PROBES))
    interp = statistics.median(fresh_seconds([sys.executable, "-c", "pass"], ctx.env, ctx.out_dir)
                               for _ in range(PROBES))
    return {"import.interpreter_s": (interp, "s"),
            "import.scipy_s": (med("scipy.integrate, scipy.optimize"), "s"),
            "import.dbisol_s": (med("dbisol"), "s")}


class Tally:
    """Operations attempted and failed; `wrong` counts outputs that failed a check.

    A check that raises (say, on a key missing from an artifact) counts its
    output as wrong.
    """

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def check(self, wl, state, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.error:
                problems = [op.error]
            else:
                try:
                    problems = wl.check(state, op)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.wrong += op.error is None
                if self.failed <= 20:
                    print(f"FAILED {op.key}: {'; '.join(problems)}", file=sys.stderr)


def timed_rounds(run_round, after_round, seconds: float) -> list[tuple[float, list]]:
    """Whole rounds until the next one would take the timed total past `seconds`.

    At least one round runs.  Each round is checked by `after_round` as soon
    as it ends, outside the timing, and only its (key, seconds) latencies
    are kept.
    """
    rounds = []
    timed = 0.0
    while True:
        t = time.perf_counter()
        ops = run_round()
        dt = time.perf_counter() - t
        rounds.append((dt, [(op.key, op.seconds) for op in ops]))
        after_round(ops)
        timed += dt
        if timed + dt > seconds:
            return rounds


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    """The percentiles run over the operations of a round, each operation
    timed by its median over the run's rounds: one slow repeat of an
    operation, as a busy shared host gives now and then, does not move them.
    """
    per_op = defaultdict(list)
    for _, xs in rounds:
        for key, x in xs:
            per_op[key].append(x)
    lat = [statistics.median(xs) for xs in per_op.values()]
    total = sum(dt for dt, _ in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(dt for dt, _ in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (sum(len(xs) for _, xs in rounds) / total, "1/s"),
        "op_p50_ms": (1e3 * percentile(lat, 50), "ms"),
        "op_p90_ms": (1e3 * percentile(lat, 90), "ms"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module(f"wl_{workload}")
    out_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        ctx = Context(seed, out_dir, child_env())
        if trace:
            trace_dir = ROOT / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            metrics = import_metrics(ctx)
        else:
            setup_s = setup_seconds(workload, ctx)
        state = wl.prepare(ctx)
        tally = Tally()
        if not trace:
            rounds = timed_rounds(lambda: wl.run_round(state, None),
                                  lambda ops: tally.check(wl, state, ops), seconds)
            peak = getattr(wl, "peak_rss_mb", lambda _: self_peak_rss_mb())(state)
            metrics = end_to_end(rounds, setup_s, peak)
        else:
            from spans import Tracer, layer_metrics
            overheads = []
            for _ in range(TRACE_PAIRS):
                t = time.perf_counter()
                plain = wl.run_round(state, None)
                plain_s = time.perf_counter() - t
                tally.check(wl, state, plain)
                tracer = Tracer()
                t = time.perf_counter()
                traced = wl.run_round(state, tracer)
                traced_s = time.perf_counter() - t
                tally.check(wl, state, traced)
                overheads.append(traced_s - plain_s)
            # the per-layer metrics come from the last traced round
            summary = getattr(wl, "trace_summary", lambda _, tr: tr.summary())(state, tracer)
            with open(trace_dir / f"{workload}-seed{seed}.json", "w") as fh:
                json.dump(summary, fh)
            metrics.update(layer_metrics(summary, traced_s))
            metrics["trace.wall_s"] = (traced_s, "s")
            metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dbisol" / "__init__.py").is_file():
        print(f"error: no dbisol sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
