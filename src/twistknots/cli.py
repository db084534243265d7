"""Command-line front end.

Subcommands: jones, alexander, check, sweep, verify-paper, crosscheck.
Exit codes: 0 all checks pass, 1 a verification failed, 2 usage/config error.
Set TWISTKNOTS_WORKERS to parallelize sweeps over sign cases.
"""

from __future__ import annotations

import argparse
import json
import sys

from .casework import (
    SweepConfig,
    full_report,
    instance_id,
    load_registry,
    verify_paper_case,
)
from .families import (FAMILIES, FamilyError, assemble_jones, check_twists, jones_derivs,
                       load_family)
from .obstruction import cosmetic_gate
from .seifert import (SeifertError, alexander_poly, conway_poly, leading_coeff_symbolic,
                      template_for)


def _spec(args):
    fam = load_family(args.family)
    return fam.with_signs(args.signs)


def _twists(args, spec):
    return check_twists(spec, [int(v) for v in args.twists.split(",")])


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
    lead = leading_coeff_symbolic(tpl).eval(dict(zip(tpl.variables, n)))
    print(f"leading coefficient: {lead}")
    return 0


def cmd_check(args) -> int:
    spec = _spec(args)
    n = _twists(args, spec)
    tpl = template_for(args.family, args.signs)
    jones = assemble_jones(spec, n)
    verdict = cosmetic_gate(jones, jones.derivs_at_one(4), conway_poly(tpl, n),
                            leading_coeff_symbolic(tpl).eval(dict(zip(tpl.variables, n))),
                            use_root5=args.root5,
                            instance=instance_id(args.family, args.signs, n),
                            twists=n)
    print(json.dumps(verdict.to_dict(), indent=1, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    cfg = SweepConfig(args.family, n_range=args.range, use_root5=args.root5)
    report = full_report(cfg)
    blob = json.dumps(report, indent=1, sort_keys=True)
    if args.output:
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
    registry = load_registry(args.family)
    cases = [args.case] if args.case else sorted(registry.cases)
    failures = 0
    results = []
    for signs in cases:
        for rec in verify_paper_case(args.family, signs, registry):
            results.append({"signs": signs, **rec})
            status = rec["status"]
            if status != "PASS":
                failures += 1
            print(f"{signs} {rec['quantity']}: {status} ({'; '.join(rec['checks'])})")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"{len(results)} checks, {failures} failures")
    return 0 if failures == 0 else 1


def _verification_failed(exc: Exception) -> int:
    print(f"verification failed: {exc}", file=sys.stderr)
    return 1


def cmd_crosscheck(args) -> int:
    if bool(args.signs) != bool(args.twists):
        raise ValueError("crosscheck needs --signs and --twists together, or neither")
    # only crosscheck uses the diagram oracle, so only it imports it
    from .diagrams import DiagramError, crosscheck, load_template
    from .pdcodes import BudgetExceeded, PDError

    try:
        fam = load_family(args.family)
        tpl = load_template(args.family)
        if args.signs and args.twists:
            spec = fam.with_signs(args.signs)
            jobs = [(spec, _twists(args, spec))]
        else:
            k = len(fam.with_signs("+" * len(fam.parities)).active_bands)
            base = (1,) * k
            jobs = []
            for signs in ("+" * 5, "++-+-", "-+-++"):
                spec = fam.with_signs(signs)
                jobs.append((spec, base))
                for i in range(k):
                    jobs.append((spec, tuple(2 if j == i else 1 for j in range(k))))
        failures = 0
        for spec, n in jobs:
            try:
                ok = crosscheck(spec, tpl, n, budget=args.budget)
            except BudgetExceeded as exc:
                print(f"{instance_id(args.family, spec.signs_str(), n)}: skipped ({exc})")
                continue
            print(f"{instance_id(args.family, spec.signs_str(), n)}: "
                  f"{'agree' if ok else 'MISMATCH'}")
            if not ok:
                failures += 1
        print(f"{len(jobs)} cross-checks, {failures} failures")
        return 0 if failures == 0 else 1
    except (PDError, DiagramError) as exc:
        return _verification_failed(exc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistknots",
        description="Exact Jones/Alexander invariants for twist families of "
                    "knots and machine-checked cosmetic-surgery casework.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p, twists_required=True):
        p.add_argument("--family", required=True, choices=FAMILIES)
        p.add_argument("--signs", required=twists_required,
                       help="sign case, e.g. ++-+-")
        if twists_required:
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
    p.add_argument("--range", type=int, default=4, help="twist box upper bound")
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
    p.add_argument("--budget", type=int, default=18,
                   help="crossing budget for the state sum")
    p.set_defaults(func=cmd_crosscheck)
    return parser


def _attach_signs(argv: list[str]) -> list[str]:
    """Rewrite ``--signs -++-+`` as ``--signs=-++-+``; argparse would read a
    sign case that starts with '-' as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--signs" and arg.startswith("-") and set(arg) <= {"+", "-"}:
            out[-1] = f"--signs={arg}"
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
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
