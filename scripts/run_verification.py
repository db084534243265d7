#!/usr/bin/env python3
"""Run the full verification pipeline and write reports to out/.

For each family, three CLI runs: ``verify-paper`` (the registry formula
checks, written to ``<family>-formulas.json``), ``sweep`` over [1..N]^k with
exception classification (``<family>-sweep.json``) and ``crosscheck`` (the
oracle battery).  Exits 1 if any run fails.
Usage:  python3 scripts/run_verification.py [--range N] [--root5] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twistknots import cli  # noqa: E402
from twistknots.families import FAMILIES  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--range", default="4", help="passed to sweep, which reads it")
    parser.add_argument("--root5", action="store_true")
    parser.add_argument("--out", default="out")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for family in FAMILIES:
        runs = (
            ["verify-paper", "--family", family,
             "--output", str(out_dir / f"{family}-formulas.json")],
            ["sweep", "--family", family, "--range", args.range]
            + (["--root5"] if args.root5 else [])
            + ["--output", str(out_dir / f"{family}-sweep.json")],
            ["crosscheck", "--family", family],
        )
        for run in runs:
            if cli.main(run) != 0:
                print(f"FAILED: twistknots {' '.join(run)}")
                failures += 1
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
