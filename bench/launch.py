"""Traced `dbisol` for the cli workload: install the span wrappers, then run main.

    python3 bench/launch.py SUMMARY_JSON <dbisol arguments...>

Behaves like `python -m dbisol.cli <arguments>` and also writes the span
summary of the process to SUMMARY_JSON.  Potentials that the CLI builds
from its configuration count their field evaluations.
"""

from __future__ import annotations

import json
import sys

from harness import SRC

sys.path.insert(0, str(SRC))

import dbisol.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    make_potential = dbisol.cli.RunConfig.make_potential

    def counted_make_potential(cfg):
        return tracer.counted_potential(make_potential(cfg))
    dbisol.cli.RunConfig.make_potential = counted_make_potential
    try:
        code = dbisol.cli.main(argv)
    finally:
        dbisol.cli.RunConfig.make_potential = make_potential
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
