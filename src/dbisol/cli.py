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
from dataclasses import asdict, dataclass, field, fields, replace
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

_MODEL = ("solve", "verify", "sweep", "classify")  # the commands that run the configured model
_EVERY = _MODEL + ("bound",)


def _setting(default, read_by: tuple[str, ...], **flag):
    """A RunConfig field; flag holds the add_argument keywords of its --<name>."""
    return field(default=default, metadata={"read_by": read_by, "flag": flag})


@dataclass
class RunConfig:
    """One run's settings.  Each field but `command` is a CLI setting, declared
    once here: build_parser makes it the flag --<name> (dashes for underscores)
    of each command in its read_by, and a config file line <name>=<value> is
    that flag.  Artifacts record every field, defaults included."""

    command: str = ""
    sector: str = _setting("baby", _MODEL, choices=("baby", "skyrme"))
    potential: str = _setting("old:1", _MODEL, help="old:A | standard | bps | power:A")
    beta: float = _setting(1.0, _EVERY, type=float)
    mu: float = _setting(1.0, _MODEL, type=float)
    n: int = _setting(1, _MODEL, type=int)
    alpha_k: float | None = _setting(None, _MODEL, type=float,
                                     help="use the pure-power kinetic law with this exponent")
    grid: int = _setting(1000, ("solve", "verify", "classify"), type=int)
    out: str | None = _setting(None, _EVERY, help="output path prefix")
    seed: int = _setting(0, _EVERY, type=int)
    order: int = _setting(3, ("bound",), type=int)
    samples: int = _setting(1_000_000, ("bound",), type=int)
    axis: str = _setting("mu", ("sweep",), choices=("mu", "beta"))
    values: str = _setting("", ("sweep",), help="comma-separated parameter values")
    inject_perturbation: bool = _setting(
        False, ("verify",), action="store_true",
        help="perturb the coarse profile to exercise the residual check")

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


_SWITCHES = {f.name for f in fields(RunConfig) if f.metadata.get("flag", {}).get("action")}


def read_config_file(path: str, command: str = "solve") -> dict:
    """The settings a config file gives `command`, typed by its parser.

    Each `key=value` line (blank lines and `#` comments aside) is the flag
    `--key=value` of the command (solve by default), so it is typed and
    checked as the flag is, and a key the command does not read is an error.
    The switch `inject_perturbation` takes `true` (the flag) or `false` (its
    absence).  An error names path:lineno.
    """
    parser = build_parser().commands[command]
    settings = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            flag = "--" + key.replace("_", "-")
            switch = key.replace("-", "_") in _SWITCHES and value in ("true", "false")
            try:
                if not eq:
                    parser.error("expected key=value")
                parsed = vars(parser.parse_args([flag] if switch else [f"{flag}={value}"]))
                if "config" in parsed:
                    parser.error("a config file cannot name another")
            except _UsageError as exc:
                where = f": error: {path}:{lineno}: "
                raise _UsageError(str(exc).replace(": error: ", where, 1)) from None
            settings.update({k: value == "true" for k in parsed} if switch else parsed)
    return settings


# ---------------------------------------------------------------------------
# commands

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _require_residual_samples(grid: int, profile) -> None:
    """Exit 1 naming the smallest --grid whose profile the residual check can take."""
    from .bps import EOM_MIN_SAMPLES

    short = EOM_MIN_SAMPLES - len(profile.coordinates)
    if short > 0:
        raise DbisolError(f"--grid {grid} is too small for the residual check; "
                          f"use --grid {grid + short} or more")


def cmd_solve(cfg: RunConfig) -> int:
    from .bps import eom_residual
    from .observables import compute_energy_report
    from .profiles import GridSpec, solve_profile, write_profile_csv

    model = cfg.model()
    potential = cfg.make_potential()
    profile = solve_profile(model, potential, GridSpec(count=cfg.grid))
    _require_residual_samples(cfg.grid, profile)
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
    from .observables import compute_energy_report
    from .profiles import GridSpec, solve_profile

    checks = []

    def add(name, passed, **details):
        checks.append({"name": name, "passed": bool(passed), **details})

    def add_energy_checks(pot, label="", **charge_details):
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
        add_energy_checks(pot, n=model.charge)
        checks.append(_eom_check(model, replace(cfg, potential="old:1").make_potential(), cfg.grid,
                                 1e-1 / (8.0 * math.pi ** 2), cfg.inject_perturbation))
    else:
        for tag in ("standard", "bps"):
            add_energy_checks(replace(cfg, potential=tag).make_potential(), f"[{tag}]")
        checks.append(_eom_check(model, replace(cfg, potential="standard").make_potential(),
                                 cfg.grid, 10.0, cfg.inject_perturbation))
    return checks


# Rounding alone reads at most half a floor (measured), so the band's 3.5
# needs a truncation part of 52 floors or more: (t + c)/(t/4 + 4c) >= 3.5
# iff t >= 104 c.  Residuals within 128 floors pass as rounding: no gap.
EOM_ROUNDING_FLOORS = 128


def _eom_check(model: ModelParams, pot, grid: int, cap: float, perturb: bool) -> dict:
    """Richardson check of the second-order residual on the solver's DBI profile.

    The residual at grid and at 2 grid - 1 samples (half the spacing), both
    round(0.02 (grid - 1)) coarse spacings from the support edges, must fall
    by a factor 3.5..4.5 (second order) or be rounding, and the coarse one
    must stay below cap.  The law is DBI whatever the model's own.  perturb
    adds a bump 2% of the radius wide to the coarse profile, to show failure.
    """
    from .bps import eom_residual
    from .model import KineticLaw
    from .profiles import GridSpec, solve_profile

    model = replace(model, kinetic_law=KineticLaw.dbi())

    coarse = solve_profile(model, pot, GridSpec(count=grid))
    _require_residual_samples(grid, coarse)
    if perturb:
        bump = 0.01 * np.exp(-((coarse.coordinates / coarse.compacton_radius - 0.5) / 0.02) ** 2)
        coarse = replace(coarse, field=np.clip(coarse.field + bump, 0.0, coarse.anti_vacuum))
    margin = round(0.02 * (grid - 1))
    rep = eom_residual(coarse, margin=margin)
    fine = eom_residual(solve_profile(model, pot, GridSpec(count=2 * grid - 1)), margin=2 * margin)
    r1, r2 = rep.max_abs_residual, fine.max_abs_residual
    converged = 3.5 <= r1 / r2 <= 4.5 or max(r1, r2) <= EOM_ROUNDING_FLOORS * rep.rounding_floor
    return {"name": "eom_convergence", "passed": bool(converged and r1 < cap), "ratio": r1 / r2,
            "residual_coarse": r1, "residual_fine": r2, "rounding_floor": rep.rounding_floor}


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
    from .observables import large_beta_sweep, small_mu_sweep

    values = [float(v) for v in cfg.values.split(",") if v.strip()]
    model = cfg.model()
    pot = cfg.make_potential()
    if cfg.axis == "mu":
        res = small_mu_sweep(model, values, pot)
        rows = list(zip(res.mus, res.energies, res.energies))
        fit = {"axis": "mu", "values": list(res.mus), "energies": list(res.energies)}
        if res.slope is None:
            fit.update(exponent=res.exponent, law_exponent=model.kinetic_law.mu_exponent)
        else:
            fit["slope"] = res.slope
    else:
        res = large_beta_sweep(model, values, pot)
        rows = list(zip(res.betas, res.energies, res.distances))
        fit = {"axis": "beta", "values": list(res.betas), "energies": list(res.energies),
               "distances": list(res.distances), "exponent": res.exponent}
    name = "slope" if "slope" in fit else "exponent"
    if not math.isfinite(fit[name]):
        raise DbisolError(f"the fitted {name} is {fit[name]!r}")
    fit.update(seed=cfg.seed, config=cfg.to_dict())
    write_atomic(cfg.out + ".csv", "parameter,energy,distance_to_limit\n"
                 + "".join(",".join(map(_fmt, row)) + "\n" for row in rows))
    write_json_atomic(cfg.out + ".json", fit)
    law = fit.get("law_exponent")
    print(f"fitted {name} = {_fmt(fit[name])}" + ("" if law is None else f" (law: {_fmt(law)})"))
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

_COMMANDS = {
    "solve": (cmd_solve, "solve a profile, export CSV and JSON summary"),
    "verify": (cmd_verify, "run the consistency suites"),
    "bound": (cmd_bound, "optimize and certify an energy bound"),
    "sweep": (cmd_sweep, "coupling sweeps with fitted limit laws"),
    "classify": (cmd_classify, "localization class, predicted and fitted"),
}


class _UsageError(DbisolError):
    """A parser error, `<prog>: error: <message>`, which main prints as one line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> _Parser:
    """The `dbisol` parser; `commands` maps each subcommand to its own parser, which
    takes --config and the settings the subcommand reads, and leaves unset those not given."""
    parser = _Parser(prog="dbisol", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        p.add_argument("--config", help="key=value config file; flags take precedence")
        for f in fields(RunConfig):
            if command in f.metadata.get("read_by", ()):
                p.add_argument("--" + f.name.replace("_", "-"), **f.metadata["flag"])
    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; flags take precedence over the config file, the file over defaults."""
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        settings = vars(args)
        command = settings.pop("command")
        if extras:
            parser.commands[command].error("unrecognized arguments: " + " ".join(extras))
        path = settings.pop("config", None)
        file_settings = read_config_file(path, command) if path else {}
        return _COMMANDS[command][0](RunConfig(command, **{"out": command, **file_settings,
                                                           **settings}))
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
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
