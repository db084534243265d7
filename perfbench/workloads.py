"""Seeded workloads, the operations they run, and the checks on their outputs.

A workload is an endless sequence of *rounds*; a round is a fixed mix of
operations whose sign cases, twist vectors and diagrams are drawn from the
seed.  Every round of a workload has the same shape (the same families and
size classes in the same proportions), so the median of a run lands inside a
size class, not on the boundary between two, whatever the seed.

The program is only called through its public functions (or, for
``instance-queries``, its command line).  Each operation is timed around the
program call alone; the checks that follow are outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from speed import REF_PROBE_S, SpeedMeter, normalised

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BOOT = Path(__file__).resolve().parent / "cli_boot.py"

FAMILIES = ("7_6", "10_58", "8_12")
WORKLOADS = ("paper-casework", "box-sweep", "instance-queries", "oracle-crosscheck")

# box-sweep: per-family box, large enough that the integer gate loop dominates
SWEEP_RANGE = {"7_6": 12, "10_58": 12, "8_12": 20}
# paper-casework sweeps at the range of scripts/run_verification.py
CASEWORK_RANGE = 4
# instance-queries: twist size classes for `check`
TWIST_CLASSES = {"small": (1, 4), "medium": (10, 50), "large": (80, 120)}
# oracle-crosscheck: (family, extra twists m); crossings = base + 2m.  7_6 has
# two 13-crossing slots so that the round's median lies inside one class
# (8_12 at 14 crossings), not between two.
ORACLE_SLOTS = (("8_12", 2), ("8_12", 3), ("8_12", 4),
                ("10_58", 1), ("10_58", 2), ("10_58", 3),
                ("7_6", 3), ("7_6", 3), ("7_6", 4))
BASE_CROSSINGS = {"7_6": 7, "10_58": 10, "8_12": 8}
PARAMS = {"7_6": 5, "10_58": 5, "8_12": 4}     # twist parameters per family


@dataclass(frozen=True)
class Op:
    """One generated input.  ``kind`` is case, sweep, check, jones or oracle."""

    kind: str
    family: str
    signs: str
    twists: tuple[int, ...] = ()
    n_range: int = 0
    root5: bool = False
    size: str = ""          # size class label, for per-class reporting

    @property
    def key(self) -> str:
        text = f"{self.kind} {self.family} {self.signs}"
        if self.twists:
            text += " " + ",".join(map(str, self.twists))
        if self.n_range:
            text += f" range={self.n_range}"
        if self.root5:
            text += " root5"
        return text

    def cli_args(self) -> list[str]:
        # "--signs=" form, since a sign case may start with "-"
        args = [self.kind, "--family", self.family, f"--signs={self.signs}",
                "--twists", ",".join(map(str, self.twists))]
        return args + (["--root5"] if self.root5 else [])


@dataclass
class OpResult:
    op: Op
    seconds: float                  # wall time of the program call, probes excluded
    digest: str
    attempted: int                  # checked operations this input counts for
    failures: list[str] = field(default_factory=list)
    probe_s: float = REF_PROBE_S    # mean speed probe during the call

    @property
    def norm_seconds(self) -> float:
        """Time at the reference machine speed (see speed.py)."""
        return normalised(self.seconds, self.probe_s)


def _composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """Twist vector n >= 1 with sum(n - 1) == total, uniform over compositions."""
    cuts = sorted(rng.sample(range(total + parts - 1), parts - 1))
    bounds = [-1] + cuts + [total + parts - 1]
    return tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def case_pools(workload: str) -> dict[str, list[str]]:
    """The sign cases paper-casework or box-sweep draws from, per family."""
    from twistknots.casework import load_registry

    pools = {f: sorted(load_registry(f).cases) for f in FAMILIES}
    if workload == "box-sweep":
        # the 7_6 case is one with registered exception patterns
        pools["7_6"] = sorted(load_registry("7_6").exceptions)
    return pools


def rounds(workload: str, seed: int):
    """Endless, deterministic sequence of rounds (lists of Op) for a seed."""
    from twistknots.casework import ALL_CASES, load_registry

    rng = random.Random(f"{workload}:{seed}")
    if workload in ("paper-casework", "box-sweep"):
        index = 0
        pools = case_pools(workload)
        orders = {f: rng.sample(pools[f], len(pools[f])) for f in FAMILIES}
        if workload == "box-sweep":
            # A third of the 7_6 cases have two registered exception patterns
            # and twice the exceptions to certify; every third round takes one.
            patterns = load_registry("7_6").exceptions
            heavy = iter([c for c in orders["7_6"] if len(patterns[c]) > 1])
            light = iter([c for c in orders["7_6"] if len(patterns[c]) == 1])
            orders["7_6"] = [next(heavy) if i % 3 == 2 else next(light)
                             for i in range(len(orders["7_6"]))]
        while True:
            if workload == "paper-casework":
                yield [Op("case", f, orders[f][index % len(orders[f])],
                          n_range=CASEWORK_RANGE) for f in FAMILIES]
            else:
                yield [Op("sweep", f, orders[f][index % len(orders[f])],
                          n_range=SWEEP_RANGE[f]) for f in FAMILIES]
            index += 1
    elif workload == "instance-queries":
        # Small checks are 16 of the round's 28 queries, so the median is a
        # small check (process start-up and the gates); medium and large
        # checks and jones queries carry the mean.
        small = ("7_6", "10_58", "8_12") * 5 + ("7_6",)
        medium = ("7_6", "10_58", "8_12", "7_6")
        large = ("7_6", "10_58", "8_12", "7_6", "10_58")
        while True:
            slots = ([("check", f, "small") for f in small]
                     + [("check", f, "medium") for f in medium]
                     + [("check", f, "large") for f in large]
                     + [("jones", f, "small") for f in FAMILIES])
            # Medium and large checks are stratified: the j-th of a round's n
            # checks in a class draws its twists from a shuffled j-th of n equal
            # sub-ranges, so every round spans its class evenly.
            counts = {"medium": len(medium), "large": len(large)}
            strata = {size: rng.sample(range(n), n) for size, n in counts.items()}
            ops = []
            for i, (kind, fam, size) in enumerate(slots):
                lo, hi = TWIST_CLASSES[size]
                if kind == "check" and size in strata:
                    j, n, width = strata[size].pop(), counts[size], hi - lo + 1
                    lo, hi = lo + width * j // n, lo + width * (j + 1) // n - 1
                twists = tuple(rng.randint(lo, hi) for _ in range(PARAMS[fam]))
                ops.append(Op(kind, fam, rng.choice(ALL_CASES), twists,
                              root5=kind == "check" and i % 2 == 0, size=size))
            rng.shuffle(ops)
            yield ops
    elif workload == "oracle-crosscheck":
        while True:
            yield [Op("oracle", f, rng.choice(ALL_CASES),
                      _composition(rng, m, PARAMS[f]),
                      size=f"c{BASE_CROSSINGS[f] + 2 * m}")
                   for f, m in ORACLE_SLOTS]
    else:
        raise ValueError(f"unknown workload {workload!r}")


# --- digests ---------------------------------------------------------------------

def digest(content) -> str:
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _formula_content(records: list[dict]) -> list:
    # statuses and check lines (these carry the sign-certificate kinds)
    return [[r["quantity"], r["status"], r["checks"]] for r in records]


def _sweep_content(report, records) -> dict:
    return {
        "instances": report.instance_count,
        "exclusions": dict(sorted(report.exclusions.items())),
        "exceptions": [[r.pattern, sorted(r.instances)] for r in records],
        "formulas": _formula_content(report.formula_checks),
    }


# --- operations ------------------------------------------------------------------

class Runner:
    """Runs operations against the program and checks their outputs.

    ``golden`` maps operation keys to expected verdict digests; an operation
    whose key is listed and whose digest differs counts as failed.  With a
    ``tracer``, each timed program call is recorded as a ``bench.op`` span and
    command-line queries start through the tracing bootstrap.
    """

    def __init__(self, golden: dict[str, str] | None = None, tracer=None):
        import twistknots.casework as casework
        import twistknots.diagrams as diagrams
        import twistknots.families as families
        from twistknots.seifert import conway_poly, template_for
        self.casework, self.diagrams = casework, diagrams
        # bound now, so that the checks below never run through a tracing wrapper
        self._conway_poly, self._template_for = conway_poly, template_for
        self._load_family, self._load_template = families.load_family, diagrams.load_template
        self._registries = {f: casework.load_registry(f) for f in FAMILIES}
        self.golden = golden or {}
        self.tracer = tracer
        self._probe_s = REF_PROBE_S

    def run(self, op: Op) -> OpResult:
        handler = {"case": self._case, "sweep": self._sweep, "check": self._query,
                   "jones": self._query, "oracle": self._oracle}[op.kind]
        result = handler(op)
        result.probe_s = self._probe_s
        expected = self.golden.get(op.key)
        if expected is not None and expected != result.digest:
            result.failures.append(
                f"verdict digest {result.digest} differs from golden {expected}")
        return result

    def _call(self, fn):
        """Time the program call ``fn()``; return (value, exception, seconds).

        The mean speed probe of the call is left in ``self._probe_s``.
        """
        meter = SpeedMeter()
        span = self.tracer.begin("bench.op") if self.tracer else None
        value = exc = None
        try:
            with meter.timing() as timed:
                value = fn()
        except Exception as error:  # a raising operation is a failed operation
            exc = error
        finally:
            if span is not None:
                self.tracer.end(span)
        self._probe_s = meter.probe_s
        return value, exc, timed["seconds"]

    @staticmethod
    def _raised(op: Op, seconds: float, exc: Exception, attempted: int) -> OpResult:
        reason = f"raised {type(exc).__name__}: {exc}"
        return OpResult(op, seconds, "error", attempted, [reason] * attempted)

    def _case(self, op: Op) -> OpResult:
        cw = self.casework
        registry = self._registries[op.family]
        cfg = cw.SweepConfig(op.family, n_range=op.n_range)

        def call():
            formulas = cw.verify_paper_case(op.family, op.signs, registry)
            report = cw.sweep_case(cfg, op.signs, registry)
            return formulas, report, cw.classify_exceptions(cfg, [report], registry)

        out, exc, seconds = self._call(call)
        if exc is not None:
            return self._raised(op, seconds, exc, len(registry.cases[op.signs]) + 1)
        formulas, report, records = out
        failures = [f"formula {r['quantity']} is {r['status']}"
                    for r in formulas if r["status"] != "PASS"]
        failures += self._sweep_failures(report, records)
        content = {"formulas": _formula_content(formulas),
                   "sweep": _sweep_content(report, records)}
        return OpResult(op, seconds, digest(content), len(formulas) + 1, failures)

    def _sweep(self, op: Op) -> OpResult:
        cw = self.casework
        registry = self._registries[op.family]
        cfg = cw.SweepConfig(op.family, n_range=op.n_range)

        def call():
            report = cw.sweep_case(cfg, op.signs, registry)
            return report, cw.classify_exceptions(cfg, [report], registry)

        out, exc, seconds = self._call(call)
        if exc is not None:
            return self._raised(op, seconds, exc, 1)
        report, records = out
        return OpResult(op, seconds, digest(_sweep_content(report, records)), 1,
                        self._sweep_failures(report, records))

    @staticmethod
    def _sweep_failures(report, records) -> list[str]:
        """At most one failure: a sweep is one checked operation."""
        reasons = []
        try:
            report.check()
        except AssertionError as exc:
            reasons.append(f"case report check: {exc}")
        unmatched = sum(len(r.instances) for r in records if r.pattern is None)
        if unmatched:
            reasons.append(f"{unmatched} unmatched exceptions")
        bad = [c["quantity"] for c in report.formula_checks if c["status"] != "PASS"]
        if bad:
            reasons.append(f"sweep formula checks failed: {bad}")
        return ["; ".join(reasons)] if reasons else []

    def expected_a2(self, op: Op) -> Fraction:
        """a2 of the instance from the Seifert route (the independent route)."""
        spec = self._load_family(op.family).with_signs(op.signs)
        tpl = self._template_for(op.family, tuple(b.sign for b in spec.bands))
        return self._conway_poly(tpl, op.twists).a2

    def query_command(self, op: Op, child_trace: Path | None = None):
        """argv and environment of one query process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("TWISTKNOTS_WORKERS", None)
        if child_trace is None:
            return [sys.executable, "-m", "twistknots.cli"] + op.cli_args(), env
        env.update({"PERFBENCH_TRACE_OUT": str(child_trace),
                    "PERFBENCH_TRACE_RUN": self.tracer.run_id,
                    "PERFBENCH_TRACE_PARENT": self.tracer.current() or "",
                    "PERFBENCH_TRACE_OP": str(self.tracer.op)})
        return [sys.executable, str(BOOT)] + op.cli_args(), env

    def _query(self, op: Op) -> OpResult:
        child_trace = None
        if self.tracer is not None:
            child_trace = self.tracer.child_dir / f"child-{os.getpid()}-{self.tracer.op}.jsonl"

        def call():
            argv, env = self.query_command(op, child_trace)
            return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)

        proc, exc, seconds = self._call(call)
        if child_trace is not None and child_trace.exists():
            self.tracer.merge_file(child_trace)
            child_trace.unlink()
        if exc is not None:
            return self._raised(op, seconds, exc, 1)
        if proc.returncode != 0:
            return OpResult(op, seconds, "error", 1,
                            [f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"])
        try:
            if op.kind == "check":
                content = json.loads(proc.stdout)
                d2 = Fraction(content["d2"])
            else:
                content = proc.stdout.strip().splitlines()
                d2 = Fraction(next(line for line in content
                                   if line.startswith("derivative 2 at 1:")).split(":")[1])
        except (ValueError, KeyError, StopIteration) as exc:
            return OpResult(op, seconds, "error", 1,
                            [f"unreadable output ({type(exc).__name__}: {exc})"])
        try:
            a2 = self.expected_a2(op)
        except Exception as exc:  # the Seifert route failing is a failed check
            return self._raised(op, seconds, exc, 1)
        failures = []
        if d2 != -6 * a2:
            failures.append(f"V''(1) = {d2} but -6*a2 = {-6 * a2}")
        return OpResult(op, seconds, digest(content), 1, failures)

    def _oracle(self, op: Op) -> OpResult:
        spec = self._load_family(op.family).with_signs(op.signs)
        tpl = self._load_template(op.family)
        agree, exc, seconds = self._call(
            lambda: self.diagrams.crosscheck(spec, tpl, op.twists))
        if exc is not None:              # BudgetExceeded included
            return self._raised(op, seconds, exc, 1)
        failures = [] if agree else ["state-sum oracle disagrees with the engine"]
        return OpResult(op, seconds, digest({"agree": agree}), 1, failures)


def run_for(runner: Runner, workload: str, seed: int, seconds: float) -> list[OpResult]:
    """Closed loop, one client: whole rounds until ``seconds`` of wall time."""
    results: list[OpResult] = []
    start = time.perf_counter()
    for ops in rounds(workload, seed):
        results.extend(runner.run(op) for op in ops)
        if time.perf_counter() - start >= seconds:
            return results
    return results


def replay(runner: Runner, ops: list[Op]) -> list[OpResult]:
    """Run a given input list, one operation at a time."""
    results = []
    for index, op in enumerate(ops):
        if runner.tracer is not None:
            runner.tracer.op = index
        results.append(runner.run(op))
    return results
