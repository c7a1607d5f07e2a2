"""Pieces that bench/run.py and the workloads share."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass
class Op:
    """One operation of a round: what ran, how long it took, and what it returned."""

    key: object
    seconds: float
    output: object
    error: str | None = None


@dataclass
class Context:
    seed: int
    out_dir: Path
    env: dict


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_seconds(cmd: list[str], env: dict, cwd: Path) -> float:
    """Wall time of one fresh interpreter, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def fresh_reported(code: str, env: dict, cwd: Path) -> float:
    """A number that a fresh interpreter prints after running `code`."""
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                         capture_output=True, text=True).stdout
    return float(out.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
