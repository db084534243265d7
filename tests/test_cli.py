import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twistknots.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_jones_unknot_exception(capsys):
    code = main(["jones", "--family", "7_6", "--signs", "++-+-",
                 "--twists", "1,2,1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "derivative 2 at 1: 0" in out


def test_check_exception_verdict(capsys):
    code = main(["check", "--family", "7_6", "--signs", "++-+-",
                 "--twists", "1,2,1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out)
    assert verdict["classification"] == "EXCEPTION"


def test_check_excluded_verdict(capsys):
    code = main(["check", "--family", "10_58", "--signs", "+++++",
                 "--twists", "1,1,1,1,1", "--root5"])
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out)
    assert verdict["classification"] == "EXCLUDED(alexander_leading)"
    assert verdict["root5"] in ("EXCLUDES", "INCONCLUSIVE")


def test_alexander_output(capsys):
    code = main(["alexander", "--family", "8_12", "--signs", "++-++",
                 "--twists", "1,1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "alexander:" in out and "conway:" in out


def test_verify_paper_single_case(capsys):
    code = main(["verify-paper", "--family", "10_58", "--case", "++-+-"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failures" in out


def test_sweep_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["sweep", "--family", "8_12", "--range", "2",
                 "--output", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(path.read_text())
    assert report["summary"]["instances"] == 32 * 16
    assert report["summary"]["exceptions"] == 0
    assert "total" in out


def test_crosscheck_single_instance(capsys):
    code = main(["crosscheck", "--family", "7_6", "--signs", "++-+-",
                 "--twists", "1,2,1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "agree" in out


@pytest.mark.parametrize("flag", ["--signs=++-+-", "--twists=1,2,1,1,1"])
def test_crosscheck_lone_instance_flag_exits_2(flag, capsys):
    code = main(["crosscheck", "--family", "8_12", flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_oracle_failure_exits_1(monkeypatch, capsys):
    import twistknots.diagrams as diagrams

    def broken(spec, tpl, n, budget):
        raise diagrams.DiagramError("template must be a closed column arrangement")

    monkeypatch.setattr(diagrams, "crosscheck", broken)
    code = main(["crosscheck", "--family", "7_6", "--signs", "++-+-",
                 "--twists", "1,2,1,1,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "verification failed: template must be a closed column arrangement\n"


def test_cli_import_leaves_out_the_oracle():
    """check and jones never use the diagram oracle, so importing the CLI
    does not import it."""
    probe = ("import sys, twistknots.cli; "
             "print(sorted(m for m in ('twistknots.diagrams', 'twistknots.pdcodes') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def test_usage_error_exit_codes(capsys):
    assert main(["jones", "--family", "7_6", "--signs", "++x+-",
                 "--twists", "1,1,1,1,1"]) == 2
    assert main(["jones", "--family", "7_6", "--signs", "+++++",
                 "--twists", "1,1,1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["jones", "--family", "nope", "--signs", "+++++",
              "--twists", "1,1,1,1,1"])
    assert exc.value.code == 2


def test_route_disagreement_exits_1(monkeypatch, capsys):
    import twistknots.families as families
    from twistknots.multipoly import MultiPoly

    def wrong(spec, kmax=4):
        return [MultiPoly.const(spec.variables, 7)] * (kmax + 1)

    monkeypatch.setattr(families, "symbolic_derivs", wrong)
    code = main(["jones", "--family", "7_6", "--signs", "++-+-",
                 "--twists", "1,2,1,1,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("verification failed: derivative routes disagree")
    assert err.count("\n") == 1


def test_sweep_survivor_disagreement_exits_1(monkeypatch, capsys):
    import dataclasses
    from fractions import Fraction

    import twistknots.casework as casework

    real = casework.conway_poly
    monkeypatch.setattr(casework, "conway_poly",
                        lambda tpl, n: dataclasses.replace(real(tpl, n), a2=Fraction(1)))
    code = main(["sweep", "--family", "7_6", "--range", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("verification failed: 7_6[")
    assert "passed the gate loop but conway excludes it" in err


def test_jones_assembles_once(monkeypatch, capsys):
    import twistknots.families as families
    assemble = families.assemble_jones
    calls = []

    def counting(spec, n):
        calls.append(n)
        return assemble(spec, n)

    monkeypatch.setattr(families, "assemble_jones", counting)
    code = main(["jones", "--family", "7_6", "--signs", "++-+-",
                 "--twists", "1,2,1,1,1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"
    assert calls == [(1, 2, 1, 1, 1)]


def test_internal_error_exits_1(monkeypatch, capsys):
    import twistknots.cli as cli
    from twistknots.seifert import SeifertError

    def broken(tpl, n):
        raise SeifertError("Alexander value at 1 is 3, not a unit")

    monkeypatch.setattr(cli, "conway_poly", broken)
    code = main(["check", "--family", "7_6", "--signs", "++-+-",
                 "--twists", "1,2,1,1,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "verification failed: Alexander value at 1 is 3, not a unit\n"


@pytest.mark.parametrize("command", ["check", "jones"])
def test_signs_with_leading_minus(command, capsys):
    """A sign case that starts with '-' works as a separate argument."""
    tail = ["--family", "8_12", "--twists", "80,3,5,80"]
    assert main([command, "--signs=-++-+"] + tail) == 0
    joined = capsys.readouterr()
    assert main([command, "--signs", "-++-+"] + tail) == 0
    assert capsys.readouterr() == joined


def test_large_twists_match_seifert_route(capsys):
    """check and jones at twists 1000: V''(1) = -6 a2, and both derivative routes agree."""
    from twistknots.families import jones_derivs, load_family
    from twistknots.seifert import conway_poly, template_for

    n = (1000,) * 5
    args = ["--family", "7_6", "--signs", "++-+-", "--twists", ",".join(map(str, n))]
    a2 = conway_poly(template_for("7_6", (1, 1, -1, 1, -1)), n).a2
    assert main(["check"] + args) == 0
    assert int(json.loads(capsys.readouterr().out)["d2"]) == -6 * a2
    assert main(["jones"] + args) == 0
    assert f"derivative 2 at 1: {-6 * a2}" in capsys.readouterr().out.splitlines()
    jones, derivs = jones_derivs(load_family("7_6").with_signs("++-+-"), n)
    assert derivs[2] == -6 * a2
    assert jones.derivs_at_one(4) == derivs
