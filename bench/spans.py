"""Spans and counts recorded around the program's public calls.

The tracer patches names in the dbisol modules.  Modules bind imported
names when they load, so a function is replaced in every dbisol module
that holds it (`dbisol.profiles.CumulativeIntegral`,
`dbisol.cli.optimize_bound`, ...), not only where it is defined.  Spans
stay in memory; `summary` folds them into per-name totals, which the
benchmark writes out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

LAYERS = ("numerics", "profiles", "observables", "bps", "bounds", "cli")

# (module, attribute, span name); the attribute is replaced wherever the
# same object is bound in a dbisol module
FUNCTIONS = (
    ("dbisol.numerics", "bisect_monotone", "numerics.bisect"),
    ("dbisol.profiles", "solve_profile", "profiles.solve"),
    ("dbisol.profiles", "profile_field_at", "profiles.field_at"),
    ("dbisol.profiles", "tail_fit", "profiles.tail_fit"),
    ("dbisol.profiles", "write_profile_csv", "profiles.csv"),
    ("dbisol.profiles", "baby_old_exact", "profiles.exact"),
    ("dbisol.profiles", "skyrme_standard_exact", "profiles.exact"),
    ("dbisol.profiles", "skyrme_bps_exact", "profiles.exact"),
    ("dbisol.profiles", "profile_on_grid", "profiles.exact"),
    ("dbisol.observables", "compute_energy_report", "observables.report"),
    ("dbisol.observables", "bps_energy_integral", "observables.energy"),
    ("dbisol.observables", "charge_quadrature", "observables.charge"),
    ("dbisol.observables", "energy_per_charge_average", "observables.average"),
    ("dbisol.observables", "power_family_energy_per_charge", "observables.average"),
    ("dbisol.observables", "small_mu_sweep", "observables.sweep"),
    ("dbisol.observables", "large_beta_sweep", "observables.sweep"),
    ("dbisol.bps", "eom_residual", "bps.eom_residual"),
    ("dbisol.bounds", "optimize_bound", "bounds.optimize"),
    ("dbisol.bounds", "certify", "bounds.certify"),
    ("dbisol.bounds", "sharpness", "bounds.sharpness"),
    ("dbisol.bounds", "compare_reference", "bounds.compare"),
    ("dbisol.cli", "main", "cli.main"),
    ("dbisol.cli", "write_json_atomic", "cli.write_json"),
)
METHODS = (
    ("dbisol.profiles", "SolitonProfile", "validate_invariants", "profiles.validate"),
)


def _span_attrs(name: str, args) -> dict:
    if name == "bounds.optimize":
        return {"order": int(args[0])}
    if name == "bounds.certify":
        return {"samples": int(args[1])}
    if name == "cli.main":
        return {"command": str(args[0][0]) if args and args[0] else ""}
    if name == "profiles.csv":
        return {"path": os.fspath(args[1])}
    return {}


class Tracer:
    """In-memory spans with parent links, plus counts charged to the open span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> int | None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None and self.spans[parent]["name"] == name:
            return None     # a call nested in one of its own kind belongs to the outer span
        sid = len(self.spans)
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter(),
                           "end": None, **attrs})
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name, _span_attrs(name, args))
            if sid is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
                span = tracer.spans[sid]
                if name == "profiles.csv" and os.path.exists(span["path"]):
                    span["bytes"] = os.path.getsize(span.pop("path"))
        return traced

    def count(self, what: str, k: int = 1) -> None:
        """Charge k to `<innermost open span>.<what>`."""
        where = self.spans[self._stack[-1]]["name"] if self._stack else "untraced"
        self.counts[f"{where}.{what}"] += k

    def counted_potential(self, potential):
        """The same PotentialSpec whose evaluate counts the field points it is given."""
        evaluate = potential.evaluate
        tracer = self

        def counted(s):
            tracer.count("evals", int(np.size(s)))
            return evaluate(s)
        return replace(potential, evaluate=counted)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for modname, *_ in FUNCTIONS:
            importlib.import_module(modname)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "dbisol" or name.startswith("dbisol.")}
        for modname, attr, span in FUNCTIONS:
            original = getattr(mods[modname], attr)
            self._replace_everywhere(mods, original, self.wrap(span, original))
        for modname, cls, attr, span in METHODS:
            klass = getattr(mods[modname], cls)
            original = klass.__dict__[attr]
            self._patch(klass, attr, self.wrap(span, original))
        self._install_numerics(mods)

    def _install_numerics(self, mods) -> None:
        numerics = mods["dbisol.numerics"]
        base = numerics.CumulativeIntegral
        tracer = self

        class TracedCumulativeIntegral(base):
            __init__ = tracer.wrap("numerics.build", base.__init__)
            invert = tracer.wrap("numerics.invert", base.invert)

        self._replace_everywhere(mods, base, TracedCumulativeIntegral)
        golden = numerics.golden_max

        @functools.wraps(golden)
        def counted_golden(*args, **kwargs):
            tracer.counts["bounds.line_searches"] += 1
            return golden(*args, **kwargs)
        self._patch(mods["dbisol.bounds"], "golden_max", counted_golden)

    def _replace_everywhere(self, mods, original, replacement) -> None:
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reading ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and span attributes."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for sid, s in enumerate(self.spans):
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                             "items": []})
            dur = s["end"] - s["start"]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[sid]
            extra = {k: v for k, v in s.items() if k not in ("name", "parent", "start", "end")}
            if extra:
                agg["items"].append({**extra, "s": dur})
        return {"spans": out, "counts": dict(self.counts)}


def merge(summaries) -> dict:
    """Add up summaries, e.g. one per child process."""
    out = {"spans": {}, "counts": Counter()}
    for summ in summaries:
        for name, agg in summ["spans"].items():
            tgt = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                 "items": []})
            for key in ("calls", "total_s", "self_s"):
                tgt[key] += agg[key]
            tgt["items"].extend(agg["items"])
        out["counts"].update(summ["counts"])
    out["counts"] = dict(out["counts"])
    return out


def layer_metrics(summary: dict, wall_s: float) -> dict:
    """The per-layer metrics of one traced round, as {name: (value, unit)}.

    Times are means per call of the named span (0 when the workload never
    makes that call).  `cli.process_s.<command>` is the median untraced
    fresh-process time of that subcommand (cli workload only).  `self_s.<layer>` adds up the time spent in each layer
    itself over the round, so that with `self_s.import` and `self_s.other`
    (everything outside any span) it accounts for the round's wall time.
    """
    spans, counts = summary["spans"], summary["counts"]

    def agg(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": []})

    def mean_ms(name, key="total_s"):
        a = agg(name)
        return 1e3 * a[key] / a["calls"] if a["calls"] else 0.0

    def per_call(name, what):
        a = agg(name)
        return counts.get(f"{name}.{what}", 0) / a["calls"] if a["calls"] else 0.0

    def mean_item(name, attr, value, field="s"):
        xs = [it[field] for it in agg(name)["items"] if it.get(attr) == value]
        return sum(xs) / len(xs) if xs else 0.0

    csv = agg("profiles.csv")
    cert = agg("bounds.certify")
    m = {
        "numerics.build_ms": (mean_ms("numerics.build"), "ms"),
        "numerics.invert_ms": (mean_ms("numerics.invert"), "ms"),
        "numerics.invert.evals": (per_call("numerics.invert", "evals"), "count"),
        "profiles.solve_self_ms": (mean_ms("profiles.solve", "self_s"), "ms"),
        "profiles.tail_fit_ms": (mean_ms("profiles.tail_fit"), "ms"),
        "profiles.exact_ms": (mean_ms("profiles.exact"), "ms"),
        "profiles.csv_ms": (mean_ms("profiles.csv"), "ms"),
        "profiles.csv_bytes": (sum(it.get("bytes", 0) for it in csv["items"]) / csv["calls"]
                               if csv["calls"] else 0.0, "B"),
        "observables.energy_ms": (mean_ms("observables.energy"), "ms"),
        "observables.energy.evals": (per_call("observables.energy", "evals"), "count"),
        "observables.average_ms": (mean_ms("observables.average"), "ms"),
        "observables.average.evals": (per_call("observables.average", "evals"), "count"),
        "observables.charge_ms": (mean_ms("observables.charge"), "ms"),
        "observables.sweep_ms": (mean_ms("observables.sweep"), "ms"),
        "bps.eom_residual_ms": (mean_ms("bps.eom_residual"), "ms"),
        "bounds.line_searches": (counts.get("bounds.line_searches", 0), "count"),
        "bounds.certify_samples_per_s": (sum(it["samples"] for it in cert["items"]) / cert["total_s"]
                                         if cert["calls"] else 0.0, "1/s"),
        "bounds.sharpness_ms": (mean_ms("bounds.sharpness"), "ms"),
        "cli.write_json_ms": (mean_ms("cli.write_json"), "ms"),
    }
    for order in range(2, 9):
        m[f"bounds.optimize_s.order{order}"] = (mean_item("bounds.optimize", "order", order), "s")
    proc = summary.get("proc_s", {})
    for cmd in ("solve", "verify", "bound", "sweep", "classify"):
        m[f"cli.main_s.{cmd}"] = (mean_item("cli.main", "command", cmd), "s")
        m[f"cli.process_s.{cmd}"] = (proc.get(cmd, 0.0), "s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, a in spans.items():
        layer_self[name.split(".", 1)[0]] += a["self_s"]
    import_s = summary.get("import_s", 0.0)
    for layer, s in layer_self.items():
        m[f"self_s.{layer}"] = (s, "s")
    m["self_s.import"] = (import_s, "s")
    m["self_s.other"] = (wall_s - import_s - sum(layer_self.values()), "s")
    return m
