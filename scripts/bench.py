#!/usr/bin/env python3
"""Time the symbolic engine, the sweep's gate loop, whole box sweeps, instance
assembly, the root-of-unity evaluation, the formula parser and whole CLI
processes; write the rows as JSON.

Rows:

- ``symbolic_derivs.<family>``: ``families.symbolic_derivs`` at kmax 4 for all
  32 sign cases of 7_6 and of 10_58; ``s`` is the median over ``REPEAT`` runs
  of the time for all 32 cases.
- ``symbolic_case.<family>``: ``casework.symbolic_case`` then
  ``verify_paper_case`` for all 32 sign cases of 7_6, 10_58 and 8_12, the
  whole symbolic set-up of a case (Seifert determinant and Conway
  coefficients, ``symbolic_derivs``, the route checks and the registry's
  formula checks) without the sweep; each run starts with empty memos, and
  ``s`` is the median over ``REPEAT`` runs.
- ``conway_symbolic.<family>``: ``seifert.conway_symbolic`` on the Seifert
  templates of all 32 sign cases of 7_6, 10_58 and 8_12, the Conway
  coefficients of a case as polynomials in its twist parameters; the templates
  are built by ``template_for`` outside the timing, and ``s`` is the median
  over ``REPEAT`` runs of the time for all 32.
- ``gate_loop``: 7_6 ``++-+-`` over [1..8]^5.
- ``box_sweep.<family>``: ``sweep_case`` over the box sizes of the benchmark's
  box-sweep workload, [1..12]^5 for 7_6 and 10_58 and [1..20]^4 for 8_12.
- ``root5_sweep``: 7_6 ``++-+-`` over [1..3]^5 with the root-of-unity gate.
- ``exceptions.7_6``: the certification of the exceptions of the
  ``box_sweep.7_6`` case, 7_6 ``++-+-`` over [1..12]^5: ``instance_verdict``
  (assembly, Seifert route and gates) on each exception, then one
  ``classify_exceptions`` of the report (the registry's patterns parsed and
  matched).  The exceptions come from one untimed sweep; ``us`` is the median
  over ``REPEAT`` runs of the time for all of them, per exception.
- ``assemble.n<N>``: ``families.assemble_jones`` on 7_6 ``++-+-`` at twists
  (N,)^5 for N = 10, 50, 200 and 1000, after one untimed call at (1,)^5 that
  fills any per-sign-case cache; ``derivs_ms`` times ``derivs_at_one(4)`` on
  the result.  A row stops repeating once it has spent ``ROW_BUDGET_S``, so a
  slow implementation may give fewer than ``REPEAT`` runs (``runs_ms`` shows
  how many).
- ``eval_root5.n<N>``: ``HalfLaurent.eval_root5`` on the Jones polynomial of
  7_6 ``++-+-`` at twists (N,)^5 for N = 20 and 200.  The polynomial is
  assembled once, outside the timing; ``ms`` is the median over ``REPEAT`` runs
  of the mean time of ``ROOT5_CALLS`` calls.
- ``paper_case.<family>``: ``verify_paper_case`` then ``sweep_case`` at range
  4 on every registered sign case of the family, as the benchmark's
  paper-casework workload does per operation; ``s`` is the median over
  ``REPEAT`` runs of the time for all of them.
- ``parse_poly``: ``multipoly.parse_poly`` on every expression string of the
  package data (registry formulas, chains, targets, shifts and exception
  constraints, and the ``count`` rows and ``seifert`` entries of the family
  files); ``ms`` is the median over ``REPEAT`` runs of the time for
  all of them, ``us_per_string`` that median per string.
- ``bracket.c<C>``: ``pdcodes.kauffman_bracket`` on the C-crossing diagrams of
  the first round of the benchmark's oracle-crosscheck workload at seed 1: C =
  12, 14, 16 are 8_12 and 10_58 (two per row), C = 13 and 15 are 7_6 (two and
  one); ``ms`` is the median over ``REPEAT`` runs of the mean time per
  diagram.  The diagrams are built outside the timing.
- ``cli.sweep.<family>``, ``cli.verify_paper.<family>``: a whole
  ``twistknots sweep --family F --range 4`` or ``twistknots verify-paper
  --family F`` process per run, for 7_6, 10_58 and 8_12.
- ``cli.check``, ``cli.jones``: a whole ``twistknots check`` or ``twistknots
  jones`` process on 7_6 ``++-+-`` at twists 1,2,1,2,1.
- ``cli.import``: a whole ``python3 -c "import twistknots.cli"`` process, the
  start-up that every query pays before its command runs.
- ``python.start``: a whole ``python3 -c pass`` process, the interpreter's own
  start-up (site hooks included), which no change to the package can move.
- ``tier1``: one run of the Tier-1 suite (``python3 -m pytest -q
  --continue-on-collection-errors``) of the checkout that holds ``--src``, in
  that checkout, with ``--src`` first on ``PYTHONPATH``; ``s`` is its wall
  time, ``passed`` and ``failed`` the counts of pytest's summary line and
  ``exit`` its exit code.

Each ``cli.*`` and ``python.start`` row starts ``CLI_RUNS`` processes one
after another (``python3 -m twistknots.cli`` for the commands), with
``--src`` as ``PYTHONPATH`` and ``TWISTKNOTS_WORKERS`` unset; ``s`` is the
median wall time, not normalised, since the speed probe runs in this process
and cannot be taken out of a child's time.  One process's time moves by
10-30 % on a shared machine, so a row takes the median of 11.  The ``tier1``
row is timed the same way, once.

Every timed run of a symbolic-case, sweep or paper-case row starts with empty
``casework.symbolic_case`` and ``casework._formula_checks`` memos, so each run
pays for its symbolic set-up and formula checks, and the rows compare with
those of checkouts that have no memo.  Lower caches, such as the base values
of ``families``, stay warm after the first run.

Every time is taken with perfbench's speed meter (``perfbench/speed.py``): a
fixed pure-Python probe runs before, after and every 50 ms during the call, its
own time is taken out, and the time is reported at the reference machine speed
(``normalised``), since the speed of a shared machine drifts by tens of percent
within seconds.  ``s``/``ms`` and ``runs_s``/``runs_ms`` are normalised;
``wall_s``/``wall_ms`` is the median raw wall time.  Each sweep row also holds
``gate_loop_us_per_instance``, the median over ``REPEAT`` traced calls of
perfbench's ``casework.gate_loop.us_per_instance`` (the self time of
``sweep_case`` per instance, with the spans of ``perfbench/tracing.py`` around
the functions it calls), normalised the same way; the probes that fire inside
the traced call count as ``sweep_case`` self time, about 2 % of it.  The output
also records nproc, the Python version and the git revision of the checkout
that holds ``--src``.  Usage:

    python3 scripts/bench.py [--src DIR] > FILE
    python3 scripts/bench.py --pair BEFORE AFTER > FILE

Both print their JSON to stdout.  ``--src`` is the ``src`` directory to import
``twistknots`` from (default: this checkout's), so a second checkout of
another commit can be timed with the same script.

``--pair`` times two ``src`` directories, BEFORE and AFTER, in ``PAIR_ROUNDS``
rounds.  Each round runs this script once per side, each run a fresh process,
and the side that goes first alternates from round to round, since a shared
machine's speed drifts and the second of two runs can read slower.  The output
holds the labels ``before`` and ``after``.  In each, a row keeps its
descriptive fields from the first round; each timing (``MEASURES``) is the
median over the rounds, with ``<timing>_quartiles`` [first, third] and
``<timing>_rounds``, the figure of each round; a row's per-run lists of one
round are dropped.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedMeter, normalised  # noqa: E402

REPEAT = 5
SYMBOLIC = ("7_6", "10_58")
PAPER_CASES = ("7_6", "10_58", "8_12")
GATE_LOOP = ("7_6", "++-+-", 8)
BOX_SWEEPS = (("7_6", "++-+-", 12), ("10_58", "+-+-+", 12), ("8_12", "-++-+", 20))
ROOT5_SWEEP = ("7_6", "++-+-", 3)
EXCEPTIONS = ("7_6", "++-+-", 12)
ASSEMBLE = ("7_6", "++-+-", (10, 50, 200, 1000))
ROW_BUDGET_S = 60.0
EVAL_ROOT5 = ("7_6", "++-+-", (20, 200))
ROOT5_CALLS = 20
PAPER_CASE_RANGE = 4
BRACKET = (12, 13, 14, 15, 16)      # crossing counts
BRACKET_SEED = 1
CLI_RUNS = 11
PAIR_ROUNDS = 5
CLI_INSTANCE = ("--family", "7_6", "--signs", "++-+-", "--twists", "1,2,1,2,1")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
MEASURES = ("s", "ms", "us", "wall_s", "wall_ms", "wall_us", "gate_loop_us_per_instance",
            "derivs_ms", "us_per_string")


def git_revision(src: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=src, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def timed(fn):
    """(normalised seconds, wall seconds, result) of one call of fn."""
    meter = SpeedMeter()
    with meter.timing() as out:
        result = fn()
    return normalised(out["seconds"], meter.probe_s), out["seconds"], result


def cold(casework) -> None:
    """Empty the symbolic-case and formula-check memos (checkouts without them
    have nothing to clear)."""
    for name in ("symbolic_case", "_formula_checks"):
        getattr(getattr(casework, name, None), "cache_clear", lambda: None)()


def cold_timed(casework, fn):
    """timed(fn), started with empty memos."""
    cold(casework)
    return timed(fn)


def summary(runs, unit: str, scale: float = 1.0) -> dict:
    """Median and per-run figures of (normalised, wall, ...) runs."""
    return {unit: round(scale * statistics.median(r[0] for r in runs), 4),
            f"runs_{unit}": [round(scale * r[0], 4) for r in runs],
            f"wall_{unit}": round(scale * statistics.median(r[1] for r in runs), 4)}


def traced_gate_loop(casework, cfg, signs: str) -> float:
    tracer = tracing.Tracer("bench")
    meter = SpeedMeter()
    cold(casework)      # before install: the tracing wrapper has no cache_clear
    tracer.install()
    try:
        with meter.timing():
            casework.sweep_case(cfg, signs)
    finally:
        tracer.uninstall()
    value = tracing.layer_metrics(tracer, 0, 0.0)["casework.gate_loop.us_per_instance"]
    return normalised(value, meter.probe_s)


def symbolic_row(casework, family: str) -> dict:
    from twistknots.families import load_family, symbolic_derivs

    fam = load_family(family)
    specs = [fam.with_signs(signs) for signs in casework.ALL_CASES]

    def all_cases():
        for spec in specs:
            symbolic_derivs(spec, 4)

    runs = [timed(all_cases) for _ in range(REPEAT)]
    return {"family": family, "cases": len(specs), "kmax": 4, **summary(runs, "s")}


def symbolic_case_row(casework, family: str) -> dict:
    def all_cases():
        for signs in casework.ALL_CASES:
            casework.symbolic_case(family, signs)
            casework.verify_paper_case(family, signs)

    runs = [cold_timed(casework, all_cases) for _ in range(REPEAT)]
    return {"family": family, "cases": len(casework.ALL_CASES), **summary(runs, "s")}


def conway_symbolic_row(casework, family: str) -> dict:
    from twistknots.seifert import conway_symbolic, template_for

    templates = [template_for(family, signs) for signs in casework.ALL_CASES]

    def all_cases():
        for tpl in templates:
            conway_symbolic(tpl)

    runs = [timed(all_cases) for _ in range(REPEAT)]
    return {"family": family, "cases": len(templates), **summary(runs, "s")}


def row(casework, family: str, signs: str, n_range: int, use_root5: bool = False) -> dict:
    cfg = casework.SweepConfig(family, n_range=n_range, use_root5=use_root5)
    runs = [cold_timed(casework, lambda: casework.sweep_case(cfg, signs))
            for _ in range(REPEAT)]
    gate_loop = [traced_gate_loop(casework, cfg, signs) for _ in range(REPEAT)]
    report = runs[0][2]
    return {"family": family, "signs": signs, "range": n_range,
            "instances": report.instance_count, "exceptions": len(report.exceptions),
            **summary(runs, "s"),
            "gate_loop_us_per_instance": round(statistics.median(gate_loop), 3)}


def exceptions_row(casework, family: str, signs: str, n_range: int) -> dict:
    from twistknots.obstruction import instance_verdict

    cfg = casework.SweepConfig(family, n_range=n_range)
    report = casework.sweep_case(cfg, signs)
    twists = [v.twists for v in report.exceptions]
    sym = casework.symbolic_case(family, signs)
    registry = casework.load_registry(family)

    def certify():
        for n in twists:
            instance_verdict(sym.spec, sym.template, n, False)
        casework.classify_exceptions(cfg, [report], registry)

    runs = [timed(certify) for _ in range(REPEAT)]
    return {"family": family, "signs": signs, "range": n_range, "exceptions": len(twists),
            **summary(runs, "us", 1e6 / len(twists))}


def assemble_row(families, family: str, signs: str, n: int) -> dict:
    spec = families.load_family(family).with_signs(signs)
    twists = (n,) * len(spec.variables)
    runs = []
    start = time.perf_counter()
    while len(runs) < REPEAT and (not runs or time.perf_counter() - start < ROW_BUDGET_S):
        runs.append(timed(lambda: families.assemble_jones(spec, twists)))
    jones = runs[0][2]
    derivs = [timed(lambda: jones.derivs_at_one(4)) for _ in range(REPEAT)]
    return {"family": family, "signs": signs, "twist": n, "terms": len(jones.terms),
            **summary(runs, "ms", 1e3),
            "derivs_ms": round(1e3 * statistics.median(r[0] for r in derivs), 4)}


def eval_root5_row(families, family: str, signs: str, n: int) -> dict:
    spec = families.load_family(family).with_signs(signs)
    jones = families.assemble_jones(spec, (n,) * len(spec.variables))

    def calls():
        for _ in range(ROOT5_CALLS):
            jones.eval_root5()

    runs = [timed(calls) for _ in range(REPEAT)]
    return {"family": family, "signs": signs, "twist": n, "terms": len(jones.terms),
            "calls": ROOT5_CALLS, **summary(runs, "ms", 1e3 / ROOT5_CALLS)}


def paper_case_row(casework, family: str) -> dict:
    registry = casework.load_registry(family)
    cases = sorted(registry.cases)
    cfg = casework.SweepConfig(family, n_range=PAPER_CASE_RANGE)

    def all_cases():
        for signs in cases:
            casework.verify_paper_case(family, signs, registry)
            casework.sweep_case(cfg, signs, registry)

    runs = [cold_timed(casework, all_cases) for _ in range(REPEAT)]
    return {"family": family, "cases": len(cases), "range": PAPER_CASE_RANGE,
            **summary(runs, "s")}


def expression_strings(casework) -> list:
    """(text, variables) of every ``parse_poly`` string in the package data:
    the registry's formulas and exception constraints, and the family files'
    ``count`` rows and ``seifert`` entries."""
    from importlib import resources

    from twistknots.families import load_family

    out = []
    for family in PAPER_CASES:
        fam = load_family(family)
        variables = fam.with_signs(casework.ALL_CASES[0]).variables
        registry = casework.load_registry(family)
        for entry in (e for entries in registry.cases.values() for e in entries):
            texts = [entry.expr]
            texts += [entry.target_num, entry.target_den] if entry.target_num is not None else []
            texts += [text for _, num, den in entry.chain for text in (num, den)]
            texts += [entry.shift[1]] if entry.shift else []
            out += [(text, variables) for text in texts if text is not None]
        out += [(text, variables) for rows in registry.exceptions.values()
                for row in rows for text in row["constraints"].values()]
        states = tuple(f"x{i + 1}" for i in range(len(fam.parities)))
        lines = resources.files("twistknots").joinpath(
            f"data/families/{family}.family").read_text().splitlines()
        out += [(line.partition("->")[2].strip(), states)
                for line in lines if line.startswith("count ")]
        counts = tuple(f"n{i + 1}" for i in range(len(fam.parities)))
        out += [(text, counts) for line in lines if line.startswith("seifert ")
                for text in line.partition(" ")[2].split(",")]
    return out


def parse_poly_row(casework) -> dict:
    from twistknots.multipoly import parse_poly

    texts = expression_strings(casework)

    def all_texts():
        for text, variables in texts:
            parse_poly(text, variables)

    runs = [timed(all_texts) for _ in range(REPEAT)]
    row = {"strings": len(texts), **summary(runs, "ms", 1e3)}
    row["us_per_string"] = round(1e3 * row["ms"] / len(texts), 3)
    return row


def bracket_rows() -> dict:
    from twistknots.diagrams import build_diagram, load_template
    from twistknots.families import load_family
    from twistknots.pdcodes import kauffman_bracket

    ops = next(workloads.rounds("oracle-crosscheck", BRACKET_SEED))
    rows = {}
    for crossings in BRACKET:
        chosen = [op for op in ops if op.size == f"c{crossings}"]
        pds = [build_diagram(load_template(op.family),
                             load_family(op.family).with_signs(op.signs), op.twists)
               for op in chosen]

        def all_diagrams():
            for pd in pds:
                kauffman_bracket(pd)

        runs = [timed(all_diagrams) for _ in range(REPEAT)]
        rows[f"bracket.c{crossings}"] = {
            "seed": BRACKET_SEED, "diagrams": [op.key for op in chosen],
            **summary(runs, "ms", 1e3 / len(pds))}
    return rows


def child_env(src: Path) -> dict:
    """This process's environment with src as PYTHONPATH and no workers."""
    env = {k: v for k, v in os.environ.items() if k != "TWISTKNOTS_WORKERS"}
    env["PYTHONPATH"] = str(src)
    return env


def process_row(src: Path, *argv: str) -> dict:
    """Median wall time of CLI_RUNS whole ``python3 <argv>`` processes."""
    env = child_env(src)
    runs = []
    for _ in range(CLI_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
        runs.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"python3 {' '.join(argv)} exited {proc.returncode}")
    return {"argv": list(argv), "s": round(statistics.median(runs), 4),
            "runs_s": [round(r, 4) for r in runs]}


def cli_row(src: Path, *argv: str) -> dict:
    """``process_row`` of a whole ``twistknots`` command; argv is its arguments."""
    return {**process_row(src, "-m", "twistknots.cli", *argv), "argv": list(argv)}


def tier1_row(src: Path) -> dict:
    """Wall time and outcome counts of one Tier-1 run of src's checkout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=src.parent, env=child_env(src),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed)", lines[-1] if lines else "")}
    return {"argv": ["python3", *TIER1], "s": round(wall, 2),
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "exit": proc.returncode}


def quartiles(values: list) -> list:
    """[first, third] quartile of values, inclusive of the extremes."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def merged(results: list) -> dict:
    """One side's rounds as one result: each ``MEASURES`` field the median over
    the rounds, with its quartiles and per-round figures."""
    rows = {}
    for name, first in results[0]["rows"].items():
        row = {k: v for k, v in first.items() if not k.startswith("runs_")}
        for key in (k for k in MEASURES if k in first):
            values = [r["rows"][name][key] for r in results]
            row[key] = round(statistics.median(values), 4)
            row[f"{key}_quartiles"] = quartiles(values)
            row[f"{key}_rounds"] = values
        rows[name] = row
    return {**{k: v for k, v in results[0].items() if k != "rows"},
            "rounds": len(results), "rows": rows}


def pair(before: Path, after: Path) -> dict:
    """Both src directories timed in alternating order, their rounds merged."""
    results = {"before": [], "after": []}
    for r in range(PAIR_ROUNDS):
        sides = [("before", before), ("after", after)]
        for label, src in sides[::-1] if r % 2 else sides:
            print(f"round {r + 1}/{PAIR_ROUNDS}: {label} ({src})", file=sys.stderr, flush=True)
            proc = subprocess.run([sys.executable, __file__, "--src", str(src)],
                                  capture_output=True, text=True, check=True)
            results[label].append(json.loads(proc.stdout))
    return {label: merged(runs) for label, runs in results.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="src directory holding the twistknots package")
    parser.add_argument("--pair", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="two src directories to time in alternating rounds")
    args = parser.parse_args()
    if args.pair:
        print(json.dumps(pair(*(Path(p).resolve() for p in args.pair)), indent=1,
                         sort_keys=True))
        return 0

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import twistknots.casework as casework
    import twistknots.families as families

    rows = {f"symbolic_derivs.{family}": symbolic_row(casework, family)
            for family in SYMBOLIC}
    for family in PAPER_CASES:
        rows[f"symbolic_case.{family}"] = symbolic_case_row(casework, family)
        rows[f"conway_symbolic.{family}"] = conway_symbolic_row(casework, family)
    rows["gate_loop"] = row(casework, *GATE_LOOP)
    for family, signs, n_range in BOX_SWEEPS:
        rows[f"box_sweep.{family}"] = row(casework, family, signs, n_range)
    rows["root5_sweep"] = row(casework, *ROOT5_SWEEP, use_root5=True)
    rows[f"exceptions.{EXCEPTIONS[0]}"] = exceptions_row(casework, *EXCEPTIONS)
    family, signs, twists = ASSEMBLE
    spec = families.load_family(family).with_signs(signs)
    families.assemble_jones(spec, (1,) * len(spec.variables))
    for n in twists:
        rows[f"assemble.n{n}"] = assemble_row(families, family, signs, n)
    family, signs, twists = EVAL_ROOT5
    for n in twists:
        rows[f"eval_root5.n{n}"] = eval_root5_row(families, family, signs, n)
    for family in PAPER_CASES:
        rows[f"paper_case.{family}"] = paper_case_row(casework, family)
    rows["parse_poly"] = parse_poly_row(casework)
    rows.update(bracket_rows())
    for family in PAPER_CASES:
        rows[f"cli.sweep.{family}"] = cli_row(src, "sweep", "--family", family,
                                              "--range", str(PAPER_CASE_RANGE))
        rows[f"cli.verify_paper.{family}"] = cli_row(src, "verify-paper", "--family", family)
    rows["cli.check"] = cli_row(src, "check", *CLI_INSTANCE)
    rows["cli.jones"] = cli_row(src, "jones", *CLI_INSTANCE)
    rows["cli.import"] = process_row(src, "-c", "import twistknots.cli")
    rows["python.start"] = process_row(src, "-c", "pass")
    rows["tier1"] = tier1_row(src)
    result = {"revision": git_revision(src), "nproc": os.cpu_count(),
              "python": platform.python_version(), "repeat": REPEAT, "rows": rows}
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
