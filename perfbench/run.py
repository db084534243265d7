#!/usr/bin/env python3
"""Benchmark of the twistknots verifier: seeded workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: paper-casework, box-sweep, instance-queries, oracle-crosscheck
(see perfbench/README.md).  One process drives the program, closed loop, one
operation at a time, in whole rounds until ``--seconds`` have passed.

With ``--trace 0`` the last line of output holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the inputs of ``--seconds``/2 are run once
untraced and once with spans around the program's public functions, and the
last line holds the per-layer metrics.  The line before it is a JSON report: run
metadata, the generated inputs, named per-workload figures with their sample
counts, verdict digest and failures.  Exit code 2 means the benchmark could
not run (for example, no program sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 11


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds of SETUP_REPEATS cold set-ups, each in a fresh interpreter:
    (wall, normalised to the reference machine speed).

    One untimed set-up first, so that byte-code compilation of a fresh
    checkout is not counted.
    """
    from speed import SpeedMeter, normalised

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload]
    wall, norm = [], []
    for i in range(SETUP_REPEATS + 1):
        meter = SpeedMeter()
        with meter.timing():
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=120, check=True)
        if i:
            wall.append(float(proc.stdout.strip()))
            norm.append(normalised(wall[-1], meter.probe_s))
    return wall, norm


def summarize(workload: str, results) -> dict:
    """Per-workload figures under the names users know, with sample counts."""
    from workloads import PARAMS

    secs = [r.seconds for r in results]
    out: dict = {}
    if workload == "paper-casework":
        out = {"casework_s": sum(secs), "cases": len(secs)}
    elif workload == "box-sweep":
        instances = sum(r.op.n_range ** PARAMS[r.op.family] for r in results)
        out = {"sweep_instances_per_s": instances / sum(secs), "instances": instances,
               "cases": len(secs)}
    elif workload == "instance-queries":
        checks = [1e3 * r.seconds for r in results if r.op.kind == "check"]
        jones = [1e3 * r.seconds for r in results if r.op.kind == "jones"]
        out = {"check_ms.p50": quantile(checks, 0.5), "check_ms.p90": quantile(checks, 0.9),
               "checks": len(checks), "jones_ms.p50": quantile(jones, 0.5),
               "jones": len(jones)}
    elif workload == "oracle-crosscheck":
        out = {"oracle_s": sum(secs), "instances": len(secs)}
    classes: dict[str, list[float]] = {}
    for r in results:
        label = f"{r.op.kind}:{r.op.family}:{r.op.size}" if r.op.size else \
            f"{r.op.kind}:{r.op.family}"
        classes.setdefault(label, []).append(1e3 * r.seconds)
    out["median_ms_by_class"] = {k: [len(v), round(statistics.median(v), 3)]
                                 for k, v in sorted(classes.items())}
    return out


def tally(results) -> tuple[int, int, list]:
    attempted = sum(r.attempted for r in results)
    failed = sum(min(len(r.failures), r.attempted) for r in results)
    reasons = [[r.op.key, f] for r in results for f in r.failures]
    return attempted, failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the manifest's default seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twistknots" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC.relative_to(ROOT)}/twistknots; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    seed = manifest["default_seed"] if args.seed is None else args.seed
    golden = json.loads((HERE / "golden.json").read_text()).get(args.workload, {})
    meta = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "git": git_revision(), "loadavg_start": read_loadavg()}
    run_id = uuid.uuid4().hex[:12]

    setup_wall, setup_norm = ([], []) if args.trace else measure_setup(args.workload)
    runner = workloads.Runner(golden)
    # a traced run spends half its time untraced and replays those inputs traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    results = workloads.run_for(runner, args.workload, seed, seconds)
    if args.workload == "instance-queries":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, reasons = tally(results)
    report = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "run_id": run_id,
              "inputs": [r.op.key for r in results],
              "figures": summarize(args.workload, results),
              "verdict_digest": workloads.digest([r.digest for r in results]),
              "golden_checked": sum(1 for r in results if r.op.key in golden),
              "probe_ms.median": 1e3 * statistics.median(r.probe_s for r in results),
              "samples_ms": [[round(1e3 * r.seconds, 3), round(1e3 * r.probe_s, 4)]
                             for r in results]}

    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer(run_id, child_dir=TRACE_DIR)
        traced_runner = workloads.Runner(golden, tracer)
        tracer.install()
        try:
            traced = workloads.replay(traced_runner, [r.op for r in results])
        finally:
            tracer.uninstall()
        for plain, r in zip(results, traced):
            if r.digest != plain.digest:
                r.failures.append(f"traced verdict digest {r.digest} differs from "
                                  f"untraced {plain.digest}")
        t_attempted, t_failed, t_reasons = tally(traced)
        attempted, failed, reasons = attempted + t_attempted, failed + t_failed, \
            reasons + t_reasons
        overhead = (sum(r.norm_seconds for r in traced)
                    / sum(r.norm_seconds for r in results) - 1)
        queries = sum(1 for r in results if r.op.kind in ("check", "jones"))
        values = tracing.layer_metrics(tracer, queries, overhead)
        spans_file = TRACE_DIR / f"trace-{run_id}.jsonl"
        tracer.dump(spans_file)
        report["traced_verdict_digest"] = workloads.digest([r.digest for r in traced])
        report["self_time_shares"] = tracing.self_time_shares(tracer.spans)
        if args.workload == "instance-queries":
            # where the slow tail goes; bench.op self time is process start-up
            large = {i for i, r in enumerate(results)
                     if r.op.kind == "check" and r.op.size == "large"}
            report["self_time_shares.large_checks"] = tracing.self_time_shares(
                [sp for sp in tracer.spans if sp["op"] in large])
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        declared = spec["per_layer"]
    else:
        norm_ms = [1e3 * r.norm_seconds for r in results]
        values = {"setup_s": statistics.median(setup_norm),
                  "op_ms.p50": quantile(norm_ms, 0.5),
                  "op_ms.mean": statistics.fmean(norm_ms),
                  "peak_rss_mb": peak_kb / 1024}
        wall_ms = [1e3 * r.seconds for r in results]
        report["wall"] = {"setup_s": statistics.median(setup_wall),
                          "op_ms.p50": quantile(wall_ms, 0.5),
                          "op_ms.mean": statistics.fmean(wall_ms)}
        report["setup_samples_s"] = setup_wall
        declared = spec["end_to_end"]

    report["ops"] = len(results)
    report["failed_frac"] = [failed, attempted, failed / attempted]
    report["failures"] = reasons[:50]
    meta["loadavg_end"] = read_loadavg()
    report["meta"] = meta
    print(json.dumps(report, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
