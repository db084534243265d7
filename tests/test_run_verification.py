"""scripts/run_verification.py runs three CLI commands per family."""

import runpy
import sys
from pathlib import Path

import pytest

from twistknots import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"


def _run_script(monkeypatch, fake_main, *args) -> int:
    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return exc.value.code


def _expected(out: Path, sweep_flags: list[str]) -> list[list[str]]:
    runs = []
    for family in ("7_6", "10_58", "8_12"):
        runs += [
            ["verify-paper", "--family", family,
             "--output", str(out / f"{family}-formulas.json")],
            ["sweep", "--family", family] + sweep_flags
            + ["--output", str(out / f"{family}-sweep.json")],
            ["crosscheck", "--family", family],
        ]
    return runs


def test_run_verification_calls_the_cli(monkeypatch, tmp_path, capsys):
    calls = []
    code = _run_script(monkeypatch, lambda argv: calls.append(argv) or 0,
                       "--range", "3", "--root5", "--out", str(tmp_path))
    assert code == 0
    assert calls == _expected(tmp_path, ["--range", "3", "--root5"])
    assert capsys.readouterr().out == "FAILURES: 0\n"


def test_run_verification_exits_1_when_a_run_fails(monkeypatch, tmp_path, capsys):
    calls = []

    def fake_main(argv):
        calls.append(argv)
        return 1 if argv[:3] == ["crosscheck", "--family", "10_58"] else 0

    assert _run_script(monkeypatch, fake_main, "--out", str(tmp_path)) == 1
    assert calls == _expected(tmp_path, ["--range", "4"])
    out = capsys.readouterr().out
    assert "FAILED: twistknots crosscheck --family 10_58" in out
    assert out.endswith("FAILURES: 1\n")


def test_run_verification_makes_a_nested_out_directory(monkeypatch, tmp_path, capsys):
    out = tmp_path / "a" / "b"
    calls = []
    assert _run_script(monkeypatch, lambda argv: calls.append(argv) or 0,
                       "--out", str(out)) == 0
    assert out.is_dir()
    assert calls == _expected(out, ["--range", "4"])
    assert capsys.readouterr().out == "FAILURES: 0\n"
