"""Fingerprint the artifacts of a fixed set of `dbisol` runs.

Runs 57 CLI configurations (solve, verify, bound, sweep and classify across
both sectors and every potential family; solve also next to the planar and
the 3-D localization thresholds and at couplings whose squares leave the
double range; verify also at large radii and at couplings where its
residual once ran on too few samples; sweep also at the rounding floor,
where it exits 1; bound also at the largest order and
at large beta, where its exact ray proof is hardest and its powers of beta
would leave the float range, and at order 2 with beta = 100, where the
Monte-Carlo screen also keeps spread rows whose largest uniform is small),
each in a fresh interpreter inside a temporary directory, and prints one
line per artifact:

    <run> <artifact> <value>

where the artifact is `exit` (the exit code itself) or `stdout`, `stderr`,
`json`, `csv` (the sha256 of its bytes; `-` when the run wrote no such
file).  The program is imported from the `src/` next to this script.  Two
runs of the same tree must print the same lines, and a change that keeps
artifacts byte-identical prints the same lines as its parent:

    python3 tools/cli_artifacts.py > a.txt
    python3 tools/cli_artifacts.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = (
    ("solve-old0.5", "solve --potential old:0.5"),
    ("solve-old1", "solve --potential old:1"),
    ("solve-old2", "solve --potential old:2"),
    ("solve-old3", "solve --potential old:3"),
    ("solve-old1-b2.5-m0.7-n3", "solve --potential old:1 --beta 2.5 --mu 0.7 --n 3"),
    ("solve-standard", "solve --sector skyrme --potential standard"),
    ("solve-standard-b2-m0.5-n-2",
     "solve --sector skyrme --potential standard --beta 2 --mu 0.5 --n -2"),
    ("solve-bps", "solve --sector skyrme --potential bps"),
    ("solve-baby-power7", "solve --potential power:7"),
    ("solve-skyrme-power7", "solve --sector skyrme --potential power:7"),
    ("solve-baby-power2.5", "solve --potential power:2.5"),
    ("solve-skyrme-power2.5", "solve --sector skyrme --potential power:2.5"),
    ("solve-baby-power1", "solve --potential power:1"),
    ("solve-old1-ak2", "solve --potential old:1 --alpha-k 2"),
    ("solve-old2-ak2", "solve --potential old:2 --alpha-k 2"),
    ("solve-old1-ak0.75", "solve --potential old:1 --alpha-k 0.75"),
    ("solve-standard-ak2", "solve --sector skyrme --potential standard --alpha-k 2"),
    ("solve-bps-ak0.75", "solve --sector skyrme --potential bps --alpha-k 0.75"),
    ("solve-old0.5-b0.148-m0.298", "solve --potential old:0.5 --beta 0.148 --mu 0.298"),
    ("solve-old1-ak2-b6.07-m1.48", "solve --potential old:1 --alpha-k 2 --beta 6.07 --mu 1.48"),
    ("solve-old1.99", "solve --potential old:1.99"),
    ("solve-skyrme-power5.9", "solve --sector skyrme --potential power:5.9"),
    ("solve-m1e-200", "solve --mu 1e-200"),
    ("solve-b1e200", "solve --beta 1e200"),
    ("solve-bps-m1e100", "solve --sector skyrme --potential bps --mu 1e100"),
    ("verify-baby", "verify"),
    ("verify-skyrme", "verify --sector skyrme"),
    ("verify-baby-n3", "verify --n 3"),
    ("verify-skyrme-n3", "verify --sector skyrme --n 3"),
    ("verify-baby-perturbed", "verify --inject-perturbation"),
    ("verify-baby-ak2", "verify --alpha-k 2"),
    ("verify-skyrme-ak2", "verify --sector skyrme --alpha-k 2"),
    ("verify-baby-b10-m10", "verify --beta 10 --mu 10"),
    ("verify-skyrme-b1.409-m2.517-n2", "verify --sector skyrme --beta 1.409 --mu 2.517 --n 2"),
    ("verify-skyrme-b1e5", "verify --sector skyrme --beta 1e5"),
    ("bound-3", "bound --order 3"),
    ("bound-8", "bound --order 8"),
    ("bound-3-b2", "bound --order 3 --beta 2"),
    ("bound-64", "bound --order 64"),
    ("bound-8-b100", "bound --order 8 --beta 100"),
    ("bound-64-b1000", "bound --order 64 --beta 1000"),
    ("bound-2-b100", "bound --order 2 --beta 100"),
    ("sweep-mu", "sweep --axis mu --values 0.1,0.05,0.02"),
    ("sweep-beta", "sweep --axis beta --values 10,100,1000"),
    ("sweep-beta-m0.5-n2", "sweep --axis beta --values 10,100,1000 --mu 0.5 --n 2"),
    ("sweep-standard-mu",
     "sweep --sector skyrme --potential standard --axis mu --values 0.1,0.05,0.02"),
    ("sweep-bps-beta", "sweep --sector skyrme --potential bps --axis beta --values 10,100,1000"),
    ("sweep-old3-beta", "sweep --potential old:3 --axis beta --values 10,100,1000"),
    ("sweep-old1-ak2-mu", "sweep --potential old:1 --alpha-k 2 --axis mu --values 1e-2,1e-3,1e-4"),
    ("sweep-beta-floor", "sweep --axis beta --values 1e7,2e7,4e7"),
    ("classify-old1", "classify --potential old:1"),
    ("classify-old2", "classify --potential old:2"),
    ("classify-standard", "classify --sector skyrme --potential standard"),
    ("classify-bps", "classify --sector skyrme --potential bps"),
    ("classify-old2-ak2", "classify --potential old:2 --alpha-k 2"),
    ("classify-old3-ak1", "classify --potential old:3 --alpha-k 1"),
    ("classify-skyrme-power7-ak2", "classify --sector skyrme --potential power:7 --alpha-k 2"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(name: str, args: str, cwd: Path, env: dict) -> list[str]:
    """The artifact lines of one run; its files are written to cwd as <name>.*."""
    proc = subprocess.run([sys.executable, "-m", "dbisol.cli", *args.split(), "--out", name],
                          cwd=cwd, env=env, capture_output=True)
    lines = [f"{name} exit {proc.returncode}",
             f"{name} stdout {_sha(proc.stdout)}",
             f"{name} stderr {_sha(proc.stderr)}"]
    for ext in ("json", "csv"):
        path = cwd / f"{name}.{ext}"
        lines.append(f"{name} {ext} {_sha(path.read_bytes()) if path.exists() else '-'}")
    return lines


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="dbisol-artifacts-") as tmp:
        for name, args in RUNS:
            print("\n".join(fingerprint(name, args, Path(tmp), env)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
