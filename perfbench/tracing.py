"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each listed function (or method) by a wrapper in
every ``twistknots`` module that binds it, so ``casework.symbolic_derivs`` and
``families.symbolic_derivs`` both record the span ``families.symbolic_derivs``.
``uninstall`` puts the originals back.  Spans stay in memory; ``dump`` writes
them out at the end of a run.  Per-term arithmetic is deliberately not wrapped.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from functools import wraps

# (module, attribute, span name); "Class.method" wraps a method
TARGETS = (
    ("families", "symbolic_derivs", "families.symbolic_derivs"),
    ("families", "assemble_jones", "families.assemble_jones"),
    ("families", "jones_derivs", "families.jones_derivs"),
    ("casework", "symbolic_case", "casework.symbolic_case"),
    ("casework", "verify_entry", "casework.verify_entry"),
    ("casework", "verify_paper_case", "casework.verify_paper_case"),
    ("casework", "sweep_case", "casework.sweep_case"),
    ("casework", "classify_exceptions", "casework.classify_exceptions"),
    ("multipoly", "parse_poly", "multipoly.parse_poly"),
    ("multipoly", "MultiPoly.substitute_cleared", "multipoly.substitute_cleared"),
    ("seifert", "conway_symbolic", "seifert.conway_symbolic"),
    ("seifert", "leading_coeff_symbolic", "seifert.leading_coeff_symbolic"),
    ("seifert", "conway_poly", "seifert.conway_poly"),
    ("laurent", "HalfLaurent.derivs_at_one", "laurent.derivs_at_one"),
    ("laurent", "HalfLaurent.eval_root5", "laurent.eval_root5"),
    ("obstruction", "cosmetic_gate", "obstruction.cosmetic_gate"),
    ("pdcodes", "kauffman_bracket", "pdcodes.kauffman_bracket"),
    ("diagrams", "build_diagram", "diagrams.build_diagram"),
    ("diagrams", "crosscheck", "diagrams.crosscheck"),
    ("cli", "main", "cli.main"),
)

GATES = ("alexander_leading", "conway", "d2", "d3", "d4", "root5")
LARGE_TWIST = 80


class Tracer:
    """In-memory span recorder for one process of one run."""

    def __init__(self, run_id: str, parent: str | None = None, child_dir=None):
        self.run_id = run_id
        self.child_dir = child_dir      # where query processes dump their spans
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct_cases: set[tuple[str, str]] = set()
        self.op = -1                    # index of the operation being run
        self._stack: list[str] = [parent] if parent else []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> dict:
        span = {"run": self.run_id, "op": self.op, "id": f"{os.getpid()}.{self._next}",
                "parent": self.current(), "name": name,
                "start": time.perf_counter(), "end": None}
        self._next += 1
        self._stack.append(span["id"])
        return span

    def current(self) -> str | None:
        return self._stack[-1] if self._stack else None

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            tracer._observe(name, args, result, span["end"] - span["start"])
            return result

        return traced

    def _observe(self, name: str, args, result, seconds: float) -> None:
        """Counts taken at the span boundary from arguments and results."""
        if name == "casework.symbolic_case":
            self.distinct_cases.add((args[0], args[1]))
        elif name == "casework.sweep_case":
            self.counts["instances"] += result.instance_count
            self.counts["exceptions"] += len(result.exceptions)
            for gate in GATES:
                self.counts[f"excluded.{gate}"] += result.exclusions.get(gate, 0)
        elif name == "families.assemble_jones" and max(args[1]) >= LARGE_TWIST:
            self.counts["assemble_jones.large_calls"] += 1
            self.counts["assemble_jones.large_s"] += seconds
        elif name == "pdcodes.kauffman_bracket":
            self.counts["states"] += 2 ** args[0].n_crossings
        elif name == "diagrams.build_diagram":
            self.counts["crossings"] += result.n_crossings

    # -- installing wrappers -------------------------------------------------------

    def install(self) -> None:
        targets = [(importlib.import_module(f"twistknots.{m}"), attr, name)
                   for m, attr, name in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "twistknots" or n.startswith("twistknots.")]
        for module, attr, name in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:       # every module that binds it, under any name
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, bound, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "distinct": sorted(self.distinct_cases)}) + "\n")

    def merge_file(self, path) -> None:
        """Add the spans and counts a child process dumped."""
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        for record in lines:
            if "counts" in record:
                for key, value in record["counts"].items():
                    self.counts[key] += value
                self.distinct_cases.update(tuple(x) for x in record["distinct"])
            else:
                self.spans.append(record)


def span_stats(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans only), self seconds."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["parent"] in by_id:
            child_time[s["parent"]] += s["end"] - s["start"]
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        duration = s["end"] - s["start"]
        entry = stats[s["name"]]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[s["id"]]
        parent, nested = by_id.get(s["parent"]), False
        while parent is not None:
            if parent["name"] == s["name"]:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if not nested:
            entry["s"] += duration
    return stats


def layer_metrics(tracer: Tracer, queries: int, overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    st = span_stats(tracer.spans)
    c = tracer.counts

    def get(name, key):
        return st[name][key] if name in st else 0.0

    out = {
        "families.symbolic_derivs.s": get("families.symbolic_derivs", "s"),
        "families.symbolic_derivs.calls": get("families.symbolic_derivs", "calls"),
        "casework.symbolic_case.s": get("casework.symbolic_case", "s"),
        "casework.symbolic_case.calls": get("casework.symbolic_case", "calls"),
        "casework.symbolic_case.distinct": len(tracer.distinct_cases),
        "casework.verify_entry.s": get("casework.verify_entry", "s"),
        "casework.verify_entry.calls": get("casework.verify_entry", "calls"),
        "multipoly.parse_poly.s": get("multipoly.parse_poly", "s"),
        "multipoly.substitute_cleared.s": get("multipoly.substitute_cleared", "s"),
        "seifert.conway_symbolic.s": get("seifert.conway_symbolic", "s"),
        "seifert.leading_coeff_symbolic.s": get("seifert.leading_coeff_symbolic", "s"),
        "casework.sweep_case.self_s": get("casework.sweep_case", "self_s"),
        "casework.gate_loop.us_per_instance":
            1e6 * get("casework.sweep_case", "self_s") / c["instances"]
            if c["instances"] else 0.0,
        "casework.classify_exceptions.s": get("casework.classify_exceptions", "s"),
    }
    for gate in GATES:
        out[f"casework.excluded.{gate}"] = c[f"excluded.{gate}"]
    out["casework.exceptions"] = c["exceptions"]
    calls = get("families.assemble_jones", "calls")
    out.update({
        "families.assemble_jones.s": get("families.assemble_jones", "s"),
        "families.assemble_jones.calls": calls,
        "families.assemble_jones.ms.large":
            1e3 * c["assemble_jones.large_s"] / c["assemble_jones.large_calls"]
            if c["assemble_jones.large_calls"] else 0.0,
        "families.assemble_jones.calls_per_query": calls / queries if queries else 0.0,
        "laurent.derivs_at_one.s": get("laurent.derivs_at_one", "s"),
        "laurent.eval_root5.s": get("laurent.eval_root5", "s"),
        "seifert.conway_poly.s": get("seifert.conway_poly", "s"),
        "seifert.conway_poly.calls": get("seifert.conway_poly", "calls"),
        "obstruction.cosmetic_gate.s": get("obstruction.cosmetic_gate", "s"),
        "obstruction.cosmetic_gate.calls": get("obstruction.cosmetic_gate", "calls"),
        "cli.import_ms": c["cli.import_ms"] / queries if queries else 0.0,
        "cli.main.self_s": get("cli.main", "self_s"),
    })
    bracket_s = get("pdcodes.kauffman_bracket", "s")
    out.update({
        "pdcodes.kauffman_bracket.s": bracket_s,
        "pdcodes.states": c["states"],
        "pdcodes.states_per_s": c["states"] / bracket_s if bracket_s else 0.0,
        "diagrams.build_diagram.s": get("diagrams.build_diagram", "s"),
        "diagrams.crossings": c["crossings"],
        "trace.overhead_frac": overhead_frac,
    })
    return out


def self_time_shares(spans: list[dict], top: int = 6) -> list[tuple[str, float]]:
    """Largest self-time shares of the traced operations, for the report line."""
    st = span_stats(spans)
    total = sum(v["self_s"] for v in st.values())
    ranked = sorted(((k, v["self_s"] / total) for k, v in st.items()),
                    key=lambda kv: -kv[1])
    return [(k, round(v, 4)) for k, v in ranked[:top]] if total else []
