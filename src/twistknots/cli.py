"""Command-line front end.

Subcommands: jones, alexander, check, sweep, verify-paper, crosscheck.
Exit codes: 0 all checks pass, 1 a verification failed, 2 usage/config error.
Set TWISTKNOTS_WORKERS to parallelize sweeps over sign cases.
"""

from __future__ import annotations

import argparse
import json
import sys

from .families import (FAMILIES, FamilyError, check_twists, jones_derivs, load_family,
                       parse_ints, parse_signs)
from .obstruction import instance_id, instance_verdict
from .seifert import SeifertError, alexander_poly, conway_poly, template_for


def _spec(args):
    fam = load_family(args.family)
    return fam.with_signs(args.signs)


def _twists(args, spec):
    return check_twists(spec, parse_ints(
        args.twists.split(","), f"--twists must be comma-separated integers, got {args.twists!r}"))


def _int(text: str, flag: str) -> int:
    return parse_ints([text], f"{flag} must be an integer, got {text!r}")[0]


def cmd_jones(args) -> int:
    spec = _spec(args)
    n = _twists(args, spec)
    jones, derivs = jones_derivs(spec, n)
    print(jones.format())
    for k, v in enumerate(derivs):
        print(f"derivative {k} at 1: {v}")
    return 0


def cmd_alexander(args) -> int:
    spec = _spec(args)
    n = _twists(args, spec)
    tpl = template_for(args.family, args.signs)
    delta = alexander_poly(tpl, n)
    series = conway_poly(tpl, n)
    print(f"alexander: {delta.format()}")
    print(f"conway: a2 = {series.a2}, a4 = {series.a4}, a6 = {series.a6}")
    print(f"leading coefficient: {series.a4}")
    return 0


def cmd_check(args) -> int:
    spec = _spec(args)
    verdict, _, _ = instance_verdict(spec, template_for(args.family, args.signs),
                                     _twists(args, spec), args.root5)
    print(json.dumps(verdict.to_dict(), indent=1, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    # only sweep and verify-paper use the sweep engine, so only they import it
    from .casework import SweepConfig, full_report

    cfg = SweepConfig(args.family, n_range=_int(args.range, "--range"), use_root5=args.root5)
    report = full_report(cfg)
    blob = json.dumps(report, indent=1, sort_keys=True)
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(blob + "\n")
    for case in report["cases"]:
        gates = " ".join(f"{k}={v}" for k, v in case["exclusions"].items() if v)
        print(f"{case['signs']}  instances={case['instances']}  {gates}"
              f"  exceptions={len(case['exceptions'])}")
    for rec in report["exception_patterns"]:
        print(f"exception family {rec['signs']} pattern {rec['pattern']}: "
              f"{rec['count']} instances")
    summary = report["summary"]
    print(f"total {summary['instances']} instances, {summary['excluded']} excluded, "
          f"{summary['exceptions']} exceptions, "
          f"{summary['unmatched_exceptions']} unmatched, "
          f"{summary['formula_failures']} formula failures")
    ok = summary["unmatched_exceptions"] == 0 and summary["formula_failures"] == 0
    return 0 if ok else 1


def cmd_verify_paper(args) -> int:
    from .casework import load_registry, verify_paper_case

    registry = load_registry(args.family)
    cases = sorted(registry.cases)
    if args.case is not None:   # read as --signs is
        parse_signs(args.case, len(load_family(args.family).parities))
        cases = [args.case]
    # every case is checked and the output written before anything prints, so
    # a registry fault or an unwritable --output stops the run with its error alone
    results = [{"signs": signs, **rec} for signs in cases
               for rec in verify_paper_case(args.family, signs, registry)]
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for rec in results:
        print(f"{rec['signs']} {rec['quantity']}: {rec['status']} ({'; '.join(rec['checks'])})")
    failures = sum(rec["status"] != "PASS" for rec in results)
    print(f"{len(results)} checks, {failures} failures")
    return 0 if failures == 0 else 1


def _verification_failed(exc: Exception) -> int:
    print(f"verification failed: {exc}", file=sys.stderr)
    return 1


def cmd_crosscheck(args) -> int:
    if (args.signs is None) != (args.twists is None):
        raise ValueError("crosscheck needs --signs and --twists together, or neither")
    # only crosscheck uses the diagram oracle, so only it imports it
    from .diagrams import DiagramError, crosscheck, load_template
    from .pdcodes import MAX_CROSSINGS, BudgetExceeded, PDError

    budget = _int(args.budget, "--budget")
    if not 1 <= budget <= MAX_CROSSINGS:
        raise ValueError(f"--budget must be from 1 to {MAX_CROSSINGS}, got {budget}")

    try:
        fam = load_family(args.family)
        tpl = load_template(args.family)
        if args.signs is not None:
            spec = fam.with_signs(args.signs)
            jobs = [(spec, _twists(args, spec))]
        else:
            # per sign case, all twists 1 (i = -1), then each twist in turn 2
            k = len(fam.with_signs("+" * len(fam.parities)).active_bands)
            jobs = [(fam.with_signs(signs), tuple(2 if j == i else 1 for j in range(k)))
                    for signs in ("+" * 5, "++-+-", "-+-++") for i in range(-1, k)]
        failures = skipped = 0
        for spec, n in jobs:
            name = instance_id(args.family, spec.signs_str(), n)
            try:
                ok = crosscheck(spec, tpl, n, budget=budget)
            except BudgetExceeded as exc:
                print(f"{name}: skipped ({exc})")
                skipped += 1
                continue
            print(f"{name}: {'agree' if ok else 'MISMATCH'}")
            failures += not ok
    except (PDError, DiagramError) as exc:
        return _verification_failed(exc)
    if skipped == len(jobs):
        raise ValueError(f"no cross-check fits the crossing budget {budget}")
    print(f"{len(jobs) - skipped} cross-checks, {failures} failures"
          + (f", {skipped} skipped" if skipped else ""))
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistknots",
        description="Exact Jones/Alexander invariants for twist families of "
                    "knots and machine-checked cosmetic-surgery casework.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p):
        p.add_argument("--family", required=True, choices=FAMILIES)
        p.add_argument("--signs", required=True, help="sign case, e.g. ++-+-")
        p.add_argument("--twists", required=True,
                       help="comma-separated positive twist counts")

    p = sub.add_parser("jones", help="Jones polynomial and derivatives at 1")
    add_instance_flags(p)
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("alexander", help="Alexander/Conway data of an instance")
    add_instance_flags(p)
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("check", help="cosmetic-surgery gate verdict for an instance")
    add_instance_flags(p)
    p.add_argument("--root5", action="store_true",
                   help="also apply the fifth-root-of-unity gate")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="sweep all 32 sign cases over a twist box")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--range", default="4", help="twist box upper bound")
    p.add_argument("--root5", action="store_true")
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-paper",
                       help="check computed case formulas against the registry")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--case", help="verify a single sign case")
    p.add_argument("--output", help="write the JSON results here")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("crosscheck",
                       help="compare the family engine against the diagram oracle")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--signs")
    p.add_argument("--twists")
    p.add_argument("--budget", default="18",
                   help="crossing budget for the state sum")
    p.set_defaults(func=cmd_crosscheck)
    return parser


def _attach_signs(argv: list[str]) -> list[str]:
    """Rewrite ``--signs -++-+`` as ``--signs=-++-+``, and ``--case`` alike;
    argparse would read a sign case that starts with '-' as an option."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in ("--signs", "--case") and arg.startswith("-")
                and set(arg) <= {"+", "-"}):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signs(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    # internal failures of the engines are ValueErrors too, so catch them first
    except (AssertionError, SeifertError) as exc:
        return _verification_failed(exc)
    except (FamilyError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its argument, quotes and all
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # an --output file that cannot be written; names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
