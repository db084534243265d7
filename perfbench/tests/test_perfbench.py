"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

They take about a minute: one short run of every workload, plus a few single
operations.  Temporary files go under .bench_build/ in the checkout.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# one cheap operation of every kind
CHEAP = [
    Op("case", "8_12", "++-+-", n_range=4),
    Op("sweep", "8_12", "+-+--", n_range=6),
    Op("check", "7_6", "++-+-", (1, 2, 1, 1, 1), root5=True, size="small"),
    Op("check", "10_58", "-+-++", (2, 1, 3, 1, 2), size="small"),
    Op("jones", "8_12", "--+-+", (1, 2, 1, 1), size="small"),
    Op("oracle", "8_12", "-++-+", (2, 1, 2, 1), size="c12"),
]


@pytest.fixture
def scratch():
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=base))
    yield path
    shutil.rmtree(path)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["inputs"] and report["meta"]["nproc"] >= 1
    assert report["failed_frac"] == [0, result["attempted"], 0.0]


def test_traced_run_prints_every_layer_metric_and_matches_digests():
    proc = run_bench("--workload", "oracle-crosscheck", "--seed", "3",
                     "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert report["traced_verdict_digest"] == report["verdict_digest"]
    assert result["metrics"]["pdcodes.states"]["value"] > 0
    (ROOT / report["spans_file"]).unlink()


def test_generator_is_seeded_and_keeps_the_round_shape():
    for workload in workloads.WORKLOADS:
        first = list(itertools.islice(workloads.rounds(workload, 5), 2))
        again = list(itertools.islice(workloads.rounds(workload, 5), 2))
        other = list(itertools.islice(workloads.rounds(workload, 6), 2))
        assert first == again
        assert first != other
        shape = [sorted((op.kind, op.family, op.size) for op in ops) for ops in first]
        assert shape == [sorted((op.kind, op.family, op.size) for op in ops)
                         for ops in other]


def test_oracle_instances_have_their_crossing_class():
    from twistknots.diagrams import build_diagram, load_template
    from twistknots.families import load_family

    for op in next(workloads.rounds("oracle-crosscheck", 9)):
        spec = load_family(op.family).with_signs(op.signs)
        pd = build_diagram(load_template(op.family), spec, op.twists)
        assert f"c{pd.n_crossings}" == op.size


def test_corrupted_golden_digest_counts_as_a_failed_operation():
    op = CHEAP[-1]
    result = Runner({op.key: "0" * 16}).run(op)
    assert len(result.failures) == 1 and "golden" in result.failures[0]
    assert Runner({op.key: result.digest}).run(op).failures == []


def test_route_mismatch_counts_as_a_failed_operation(monkeypatch):
    runner = Runner()
    op = CHEAP[2]
    real = Runner.expected_a2
    monkeypatch.setattr(Runner, "expected_a2", lambda self, o: real(self, o) + Fraction(1))
    result = runner.run(op)
    assert result.attempted == 1
    assert len(result.failures) == 1 and "V''(1)" in result.failures[0]


def test_raising_program_call_counts_every_entry_as_failed(monkeypatch):
    import twistknots.casework as casework

    real = casework.conway_symbolic

    def skewed(tpl):
        out = real(tpl)
        out[2] = out[2] + out[2].const(out[2].vars, 1)
        return out

    monkeypatch.setattr(casework, "conway_symbolic", skewed)
    op = CHEAP[0]
    result = Runner().run(op)
    assert result.attempted == len(casework.load_registry("8_12").cases[op.signs]) + 1
    assert len(result.failures) == result.attempted
    assert "V''(1) != -6 a2" in result.failures[0]


def test_traced_and_untraced_digests_are_identical(scratch):
    import twistknots.families as families

    plain = workloads.replay(Runner(), CHEAP)
    tracer = tracing.Tracer("test", child_dir=scratch)
    original = families.assemble_jones
    tracer.install()
    try:
        assert families.assemble_jones is not original
        traced = workloads.replay(Runner(tracer=tracer), CHEAP)
    finally:
        tracer.uninstall()
    assert families.assemble_jones is original
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert all(not r.failures for r in plain + traced)
    names = {s["name"] for s in tracer.spans}
    assert {"bench.op", "cli.main", "casework.sweep_case", "families.symbolic_derivs",
            "pdcodes.kauffman_bracket"} <= names
    assert not list(scratch.iterdir())          # child span files merged and removed
    metrics = tracing.layer_metrics(tracer, queries=3, overhead_frac=0.0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["casework.symbolic_case.distinct"] == 2


def test_speed_meter_samples_during_the_call_and_restores_the_signal():
    import signal
    import time

    from speed import INTERVAL_S, SpeedMeter

    before = signal.getsignal(signal.SIGALRM)
    meter = SpeedMeter()
    with meter.timing() as timed:
        deadline = time.perf_counter() + 4 * INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 4              # before, after, and during
    assert meter.inside > 0
    assert abs(timed["seconds"] + meter.inside - 4 * INTERVAL_S) < INTERVAL_S


def test_exits_nonzero_without_program_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "box-sweep", "--seconds", "1", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""
