#!/usr/bin/env python3
"""Record the golden verdict digests that perfbench/run.py checks against.

Usage (from the root of a checkout):

    python3 perfbench/record_golden.py [--workload NAME ...]

For paper-casework and box-sweep it records every sign case the generator can
draw, so their digests are checked on any seed.  For instance-queries and
oracle-crosscheck it records the inputs of the first rounds of the default
seed.  An input whose own checks fail is not recorded and the script exits 1.
Re-record only when a change is meant to alter verdicts, and say so.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

QUERY_ROUNDS = 6
ORACLE_ROUNDS = 12


def inputs(workload: str, seed: int) -> list:
    if workload in ("paper-casework", "box-sweep"):
        kind, ranges = ("case", {f: workloads.CASEWORK_RANGE for f in workloads.FAMILIES}) \
            if workload == "paper-casework" else ("sweep", workloads.SWEEP_RANGE)
        return [workloads.Op(kind, f, s, n_range=ranges[f])
                for f, pool in workloads.case_pools(workload).items() for s in pool]
    count = QUERY_ROUNDS if workload == "instance-queries" else ORACLE_ROUNDS
    rounds = itertools.islice(workloads.rounds(workload, seed), count)
    return [op for ops in rounds for op in ops]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    seed = json.loads((HERE / "manifest.json").read_text())["default_seed"]
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    runner = workloads.Runner()
    bad = 0
    for workload in args.workload or workloads.WORKLOADS:
        recorded = {}
        for op in inputs(workload, seed):
            result = runner.run(op)
            if result.failures:
                print(f"not recorded: {op.key}: {result.failures}", file=sys.stderr)
                bad += 1
                continue
            recorded[op.key] = result.digest
        golden[workload] = dict(sorted(recorded.items()))
        print(f"{workload}: {len(recorded)} digests")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
