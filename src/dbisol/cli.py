"""Command-line surface: solve, verify, bound, sweep, classify.

Outputs are deterministic for a fixed configuration and seed: floats are
written with 17 significant digits, JSON keys are sorted, and files are
written to a temporary name and atomically renamed so no partial artifact
survives a failure.

Exit codes: 0 success, 1 invalid configuration, 2 no soliton exists at the
requested couplings, 3 verification failures, 4 the closed-form bound weights
failed their root bracket or moment check, or the exact ray proof failed.

Each command imports the modules it runs when it runs: `bound` never loads
the profile solver, and the solver's commands never load the bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from ._files import write_atomic
from .errors import DbisolError, NoSolitonError, OptimizerError

if TYPE_CHECKING:
    from .model import ModelParams

__all__ = ["main", "RunConfig"]


# ---------------------------------------------------------------------------
# deterministic serialization

def _emit_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            raise DbisolError("non-finite float in JSON output")
        return format(f, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _emit_json(v) for k, v in items) + "}"
    raise DbisolError(f"cannot serialize {type(obj).__name__}")


def write_json_atomic(path: str, obj) -> None:
    write_atomic(path, _emit_json(obj) + "\n")


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    command: str = ""
    sector: str = "baby"
    potential: str = "old:1"
    beta: float = 1.0
    mu: float = 1.0
    n: int = 1
    alpha_k: float | None = None
    grid: int = 1000
    out: str | None = None
    seed: int = 0
    order: int = 3
    samples: int = 1_000_000
    axis: str = "mu"
    values: str = ""
    inject_perturbation: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    def model(self) -> ModelParams:
        from .model import KineticLaw, ModelParams, Sector

        sector = {"baby": Sector.BABY2D, "skyrme": Sector.SKYRME3D}.get(self.sector)
        if sector is None:
            raise DbisolError(f"unknown sector {self.sector!r}")
        law = KineticLaw.dbi() if self.alpha_k is None else KineticLaw.power(self.alpha_k)
        return ModelParams(self.beta, self.mu, self.n, sector, law)

    def make_potential(self):
        from .model import make_potential

        tag = self.potential
        unknown = DbisolError(f"unknown potential {tag!r}; use old:A, standard, bps or power:A")
        family, _, exponent = tag.partition(":")
        if family in ("old", "power"):
            try:
                a = float(exponent)
            except ValueError:
                a = math.nan
            if not math.isfinite(a):
                raise unknown
        if family == "old":
            return make_potential("old-baby-power", a)
        if tag == "standard":
            return make_potential("skyrme-standard")
        if tag == "bps":
            return make_potential("bps-potential")
        if family == "power":
            return make_potential(
                "custom",
                evaluate=lambda f: np.power(np.asarray(f, dtype=float), a),
                derivative=lambda f: a * np.power(np.asarray(f, dtype=float), a - 1.0),
                domain=(0.0, self.model().sector.chart.anti_vacuum), vacuum_exponent=a)
        raise unknown


_BOOL_KEYS = {"inject_perturbation"}
_INT_KEYS = {"n", "grid", "seed", "order", "samples"}
_FLOAT_KEYS = {"beta", "mu", "alpha_k"}


def _coerce(key: str, raw: str):
    if key in _BOOL_KEYS:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw.strip()


def read_config_file(path: str) -> dict:
    """key=value lines, # comments; keys match flag names with underscores."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DbisolError(f"{path}:{lineno}: expected key=value")
            key, raw = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in {f.name for f in fields(RunConfig)}:
                raise DbisolError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def merge_config(command: str, args: argparse.Namespace) -> RunConfig:
    """Precedence: flags over config file over defaults."""
    cfg = RunConfig(command=command)
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, val in file_values.items():
        setattr(cfg, key, val)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None and flag is not False:
            setattr(cfg, f.name, flag)
    cfg.command = command
    return cfg


# ---------------------------------------------------------------------------
# commands

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def cmd_solve(cfg: RunConfig) -> int:
    from .bps import EOM_MIN_SAMPLES, eom_residual
    from .observables import compute_energy_report
    from .profiles import GridSpec, solve_profile, write_profile_csv

    model = cfg.model()
    potential = cfg.make_potential()
    profile = solve_profile(model, potential, GridSpec(count=cfg.grid))
    short = EOM_MIN_SAMPLES - len(profile.coordinates)
    if short > 0:
        raise DbisolError(f"--grid {cfg.grid} is too small for the residual check; "
                          f"use --grid {cfg.grid + short} or more")
    profile.validate_invariants()
    report = compute_energy_report(profile, model, potential)
    resid = eom_residual(profile)
    summary = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "compacton_radius": profile.compacton_radius,
        "eom_max_residual": resid.max_abs_residual,
        **report.to_json_dict(),
    }
    write_profile_csv(profile, cfg.out + ".csv")
    write_json_atomic(cfg.out + ".json", summary)
    print(f"wrote {cfg.out}.csv and {cfg.out}.json")
    print(f"energy_quadrature = {_fmt(report.energy_quadrature)}")
    if report.energy_closed_form is not None:
        print(f"energy_closed_form = {_fmt(report.energy_closed_form)}")
    print(f"energy_per_charge_avg = {_fmt(report.energy_per_charge_avg)}")
    print(f"charge = {_fmt(report.charge)}")
    if profile.compacton_radius is not None:
        print(f"compacton_radius = {_fmt(profile.compacton_radius)}")
    return 0


def _verify_checks(cfg: RunConfig) -> list[dict]:
    from .model import make_potential
    from .observables import compute_energy_report
    from .profiles import (GridSpec, _require_potential_term, baby_old_exact, baby_old_radius,
                           skyrme_standard_exact, skyrme_standard_radius, solve_profile)

    checks = []

    def add(name, passed, **details):
        checks.append({"name": name, "passed": bool(passed), **details})

    def add_energy_checks(model, pot, label="", **charge_details):
        # a closed form exists for the DBI law and the built-in potentials only
        prof = solve_profile(model, pot, GridSpec(count=cfg.grid))
        rep = compute_energy_report(prof, model, pot)
        if rep.energy_closed_form is not None:
            add(f"closed_vs_quadrature{label}", rep.rel_discrepancy_closed <= 1e-6,
                rel_discrepancy=rep.rel_discrepancy_closed)
        add(f"charge_quantization{label}", abs(rep.charge - model.charge) <= 1e-6,
            charge=rep.charge, **charge_details)

    # built in either sector, so that an unknown potential exits 1 as in solve
    pot = cfg.make_potential()
    model = cfg.model()
    if cfg.sector == "baby":
        add_energy_checks(model, pot, n=model.charge)
        checks.append(_eom_check(model, make_potential("old-baby-power", 1.0),
                                 baby_old_radius(model), lambda x: baby_old_exact(x, model),
                                 1.0, 1e-1 / (8.0 * math.pi ** 2), cfg.inject_perturbation))
    else:
        # energy checks at mu = 1 and three sigma, one under the power law (no shape)
        _require_potential_term(model)
        if not 0.0 < model.sigma < math.inf:
            raise DbisolError("sigma = beta^2 / mu^2 leaves the double range")
        for sigma in (0.25, 1.0, 4.0) if model.kinetic_law.mu_exponent is None else (1.0,):
            for tag in ("standard", "bps"):
                add_energy_checks(replace(model, beta=math.sqrt(sigma), mu=1.0),
                                  replace(cfg, potential=tag).make_potential(),
                                  f"[{tag},sigma={sigma}]")
        checks.append(_eom_check(model, make_potential("skyrme-standard"),
                                 skyrme_standard_radius(model.sigma),
                                 lambda z: skyrme_standard_exact(z, model.sigma),
                                 math.pi, 10.0, cfg.inject_perturbation))
    return checks


def _eom_check(model: ModelParams, pot, radius: float, exact, field_max: float,
               residual_cap: float, perturb: bool) -> dict:
    """Richardson check of the second-order residual on an exact DBI compacton.

    The residual at spacings 1e-3 and 5e-4, 1e-2 away from the support
    edges (10 and 20 samples), must fall by a factor 3.5..4.5 (second
    order), and the coarse one must stay below residual_cap.  The
    residual is that of the DBI law, whatever the model's own law.  perturb
    bends the coarse profile to show the failure path.
    """
    from .bps import eom_residual
    from .model import KineticLaw
    from .profiles import profile_on_grid

    model = replace(model, kinetic_law=KineticLaw.dbi())

    def residual(delta, bent):
        prof = profile_on_grid(exact, model, pot, spacing=delta, extent=radius + 10 * delta,
                               compacton_radius=radius)
        if bent:
            bump = 0.01 * np.exp(-((prof.coordinates - 0.5 * radius) / (20 * delta)) ** 2)
            prof = replace(prof, field=np.clip(prof.field + bump, 0.0, field_max))
        return eom_residual(prof, margin=round(1e-2 / delta)).max_abs_residual

    r1 = residual(1e-3, perturb)
    r2 = residual(5e-4, False)
    ratio = r1 / r2
    return {"name": "eom_convergence", "passed": bool(3.5 <= ratio <= 4.5 and r1 < residual_cap),
            "residual_coarse": r1, "residual_fine": r2, "ratio": ratio}


def cmd_verify(cfg: RunConfig) -> int:
    checks = _verify_checks(cfg)
    all_pass = all(c["passed"] for c in checks)
    report = {"config": cfg.to_dict(), "seed": cfg.seed, "checks": checks,
              "all_passed": all_pass}
    write_json_atomic(cfg.out + ".json", report)
    for c in checks:
        print(("PASS" if c["passed"] else "FAIL"), c["name"])
    if not all_pass:
        failed = [c["name"] for c in checks if not c["passed"]]
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 3
    return 0


def cmd_bound(cfg: RunConfig) -> int:
    from .bounds import certify, compare_reference, optimize_bound, sharpness

    cert = optimize_bound(cfg.order, cfg.beta)
    cert = certify(cert, cfg.samples, seed=cfg.seed)
    payload = asdict(cert)
    payload["sharpness_minimum"] = sharpness(cert)
    payload["seed"] = cfg.seed
    if abs(cfg.beta - 1.0) < 1e-12:
        payload["pavlovskii"] = compare_reference(cert)
    write_json_atomic(cfg.out + ".json", payload)
    proof = cert.proof
    points = " and ".join(proof.tangent_points)
    if not proof.passed:
        print(f"ray proof failed: lower bound {_fmt(proof.lower_bound)} < 0 from the tangents"
              f" at {points}", file=sys.stderr)
        return 4
    print(f"order {cert.order}: constant = {_fmt(cert.constant)}")
    if cert.alpha is not None:
        print(f"alpha* = {_fmt(cert.alpha)}")
    print(f"ray proof: lower bound {_fmt(proof.lower_bound)} >= 0 from the tangents at {points}")
    print(f"min_slack = {_fmt(cert.min_slack)} over {cert.samples} samples")
    if "pavlovskii" in payload:
        p = payload["pavlovskii"]
        print(f"reference {_fmt(p['reference_energy'])} vs bound {_fmt(p['bound_energy'])}"
              f" (relative error {_fmt(p['relative_error'])};"
              f" with constant 3.5: {_fmt(p['relative_error_c35'])})")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    """Fit the small-mu slope (under the power law, the exponent of mu) or the
    large-beta decay exponent of the configured model.

    The sweep runs the configured sector, potential and law; a potential of
    the other sector's chart exits 1 with the line solve prints, and so does
    the beta axis under the power law, which has no beta.
    """
    from ._csv import csv_rows
    from .observables import large_beta_sweep, small_mu_sweep

    values = [float(v) for v in cfg.values.split(",") if v.strip()]
    model = cfg.model()
    pot = cfg.make_potential()
    rows = []
    if cfg.axis == "mu":
        res = small_mu_sweep(model, values, pot)
        for mu, e in zip(res.mus, res.energies):
            rows.append((mu, e, e))
        fit = {"axis": "mu", "values": list(res.mus), "energies": list(res.energies),
               "seed": cfg.seed, "config": cfg.to_dict()}
        if res.slope is None:
            law = model.kinetic_law.mu_exponent
            fit.update(exponent=res.exponent, law_exponent=law)
            print(f"fitted exponent = {_fmt(res.exponent)} (law: {_fmt(law)})")
        else:
            fit["slope"] = res.slope
            print(f"fitted slope = {_fmt(res.slope)}")
    elif cfg.axis == "beta":
        res = large_beta_sweep(model, values, pot)
        for b, e, d in zip(res.betas, res.energies, res.distances):
            rows.append((b, e, d))
        fit = {"axis": "beta", "values": list(res.betas), "energies": list(res.energies),
               "distances": list(res.distances), "exponent": res.exponent,
               "seed": cfg.seed, "config": cfg.to_dict()}
        print(f"fitted exponent = {_fmt(res.exponent)}")
    else:
        raise DbisolError(f"unknown sweep axis {cfg.axis!r}")
    write_atomic(cfg.out + ".csv", b"parameter,energy,distance_to_limit\n" + csv_rows(rows))
    write_json_atomic(cfg.out + ".json", fit)
    print(f"wrote {cfg.out}.csv and {cfg.out}.json")
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    from .profiles import GridSpec, classify_localization, solve_profile, tail_fit

    model = cfg.model()
    potential = cfg.make_potential()
    predicted = classify_localization(potential.vacuum_exponent, model.sector,
                                      model.kinetic_law)
    profile = solve_profile(model, potential, GridSpec(count=cfg.grid))
    empirical = tail_fit(profile)
    payload = {
        "config": cfg.to_dict(), "seed": cfg.seed,
        "vacuum_exponent": potential.vacuum_exponent,
        "predicted": predicted.value, "empirical": empirical.value,
        "agree": predicted is empirical,
    }
    write_json_atomic(cfg.out + ".json", payload)
    print(f"predicted = {predicted.value}, empirical = {empirical.value}")
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file; flags take precedence")
    p.add_argument("--sector", choices=["baby", "skyrme"])
    p.add_argument("--potential", help="old:A | standard | bps | power:A")
    p.add_argument("--beta", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha-k", dest="alpha_k", type=float,
                   help="use the pure-power kinetic law with this exponent")
    p.add_argument("--grid", type=int)
    p.add_argument("--out", help="output path prefix")
    p.add_argument("--seed", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="dbisol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a profile, export CSV and JSON summary")
    _add_common(p)

    p = sub.add_parser("verify", help="run the consistency suites")
    _add_common(p)
    p.add_argument("--inject-perturbation", action="store_true", default=None,
                   help="perturb the exact profile to exercise the residual check")

    p = sub.add_parser("bound", help="optimize and certify an energy bound")
    _add_common(p)
    p.add_argument("--order", type=int)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("sweep", help="coupling sweeps with fitted limit laws")
    _add_common(p)
    p.add_argument("--axis", choices=["mu", "beta"])
    p.add_argument("--values", help="comma-separated parameter values")

    p = sub.add_parser("classify", help="localization class, predicted and fitted")
    _add_common(p)
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "bound": cmd_bound,
    "sweep": cmd_sweep,
    "classify": cmd_classify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args.command, args)
        if cfg.out is None:
            cfg.out = args.command
        return _COMMANDS[args.command](cfg)
    except NoSolitonError as exc:
        print(f"no soliton: {exc}", file=sys.stderr)
        return 2
    except OptimizerError as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return 4
    except (DbisolError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: ran out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
