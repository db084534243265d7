import json
import os
import shutil
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


@pytest.mark.parametrize("budget,code,last", [
    ("0", 2, None), ("-3", 2, None),   # refused up front
    ("5", 2, "8_12[-+-++](1,1,1,2): skipped (10 crossings over the spot-check budget 5)"),
    ("9", 0, "3 cross-checks, 0 failures, 12 skipped"),   # only the 8-crossing base instances
])
def test_crosscheck_counts_skipped_apart(budget, code, last, capsys):
    assert main(["crosscheck", "--family", "8_12", "--budget", budget]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1:] == ([last] if last else [])
    assert captured.err.count("\n") == (code == 2)   # one error: line on exit 2
    if code == 2:
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify-paper", "sweep"])
def test_malformed_registry_exits_2(command, tmp_path):
    """A packaged registry entry whose "sign" key is misspelt stops the run."""
    shutil.copytree(Path(SRC) / "twistknots", tmp_path / "twistknots")
    path = tmp_path / "twistknots" / "data" / "registry" / "10_58.json"
    path.write_text(path.read_text().replace('"sign"', '"sing"', 1))
    out = subprocess.run([sys.executable, "-m", "twistknots.cli", command, "--family", "10_58"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: 10_58 registry, cases['-----'][0]: unknown key 'sing'\n"


@pytest.mark.parametrize("command", ["verify-paper", "sweep"])
def test_formula_that_does_not_parse_exits_2(command, tmp_path):
    """A packaged formula with an unclosed parenthesis stops the run, naming
    the family, sign case, entry and field."""
    shutil.copytree(Path(SRC) / "twistknots", tmp_path / "twistknots")
    path = tmp_path / "twistknots" / "data" / "registry" / "8_12.json"
    path.write_text(path.read_text().replace('"a*b*c*d"', '"a*b*(c*d"', 1))
    out = subprocess.run([sys.executable, "-m", "twistknots.cli", command, "--family", "8_12"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: 8_12 registry, cases['+++++'][0] expr: "
                          "'(' was never closed in 'a*b*(c*d'\n")


def test_constraint_that_does_not_parse_exits_2(tmp_path):
    """A packaged exception constraint with an unclosed parenthesis stops a
    sweep, naming the family, sign case, row and variable."""
    shutil.copytree(Path(SRC) / "twistknots", tmp_path / "twistknots")
    path = tmp_path / "twistknots" / "data" / "registry" / "7_6.json"
    path.write_text(path.read_text().replace('"a": "1"', '"a": "(1"', 1))
    out = subprocess.run([sys.executable, "-m", "twistknots.cli", "sweep", "--family", "7_6",
                          "--range", "2"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: 7_6 registry, exceptions['++-+-'][0] constraints['a']: "
                          "'(' was never closed in '(1'\n")


def test_zero_denominator_exits_2(tmp_path):
    """A packaged target denominator of 0 would pass any chained check; it
    stops the run, naming the family, sign case, entry and field."""
    shutil.copytree(Path(SRC) / "twistknots", tmp_path / "twistknots")
    path = tmp_path / "twistknots" / "data" / "registry" / "7_6.json"
    path.write_text(path.read_text().replace('"target_den": "a+b-1"', '"target_den": "0"', 1))
    out = subprocess.run([sys.executable, "-m", "twistknots.cli", "verify-paper",
                          "--family", "7_6", "--case=++-++"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: 7_6 registry, cases['++-++'][2] target_den: "
                          "denominator '0' is zero\n")


def test_verify_paper_fault_in_a_later_case_prints_nothing(tmp_path):
    """Every sign case is checked before verify-paper prints, so a registry
    fault in a case after passing ones leaves stdout empty and writes no
    report."""
    from twistknots.casework import load_registry

    # the first "a+b-1" target denominator is in 7_6's ++-++, the fifth case
    assert sorted(load_registry("7_6").cases).index("++-++") == 4
    shutil.copytree(Path(SRC) / "twistknots", tmp_path / "twistknots")
    path = tmp_path / "twistknots" / "data" / "registry" / "7_6.json"
    path.write_text(path.read_text().replace('"target_den": "a+b-1"', '"target_den": "0"', 1))
    report = tmp_path / "report.json"
    out = subprocess.run([sys.executable, "-m", "twistknots.cli", "verify-paper",
                          "--family", "7_6", "--output", str(report)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: 7_6 registry, cases['++-++'][2] target_den: "
                          "denominator '0' is zero\n")
    assert not report.exists()


@pytest.mark.parametrize("value", ["abc", "", "2.5", "0", "-2"])
def test_bad_worker_count_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("TWISTKNOTS_WORKERS", value)
    assert main(["sweep", "--family", "8_12", "--range", "2"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: TWISTKNOTS_WORKERS must be a positive integer, "
                              f"got {value!r}\n")


@pytest.mark.parametrize("command", [["sweep", "--family", "8_12", "--range", "2"],
                                     ["verify-paper", "--family", "8_12"]])
def test_unwritable_output_exits_2(command, tmp_path, capsys):
    """An --output path in a missing directory is a usage error: one error line
    naming the path, nothing on stdout, exit 2."""
    path = tmp_path / "missing" / "out.json"
    assert main(command + ["--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_crosscheck_checks_budget_before_drawing(monkeypatch, capsys):
    """An instance far over the budget is skipped without building its diagram."""
    import twistknots.diagrams as diagrams

    def no_drawing(*args, **kwargs):
        raise AssertionError("built a diagram over the crossing budget")

    monkeypatch.setattr(diagrams, "build_diagram", no_drawing)
    huge = 10 ** 20
    assert main(["crosscheck", "--family", "8_12", "--signs", "+++++",
                 "--twists", f"1,1,1,{huge}"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith(f"8_12[+++++](1,1,1,{huge}): skipped (")
    assert captured.out.endswith(" crossings over the spot-check budget 18)\n")
    assert captured.err == "error: no cross-check fits the crossing budget 18\n"


def test_crosscheck_refuses_budget_over_the_bracket_limit(monkeypatch, capsys):
    """A budget the state sum could never run is bad input, refused before
    any diagram is drawn."""
    import twistknots.diagrams as diagrams

    def no_drawing(*args, **kwargs):
        raise AssertionError("built a diagram for a budget over the bracket's limit")

    monkeypatch.setattr(diagrams, "build_diagram", no_drawing)
    assert main(["crosscheck", "--family", "7_6", "--signs", "+++++",
                 "--twists", "1,1,1,1,3000", "--budget", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget must be from 1 to 24, got 100000\n"
    assert main(["crosscheck", "--family", "8_12", "--budget", "25"]) == 2
    assert capsys.readouterr().err == "error: --budget must be from 1 to 24, got 25\n"


def test_oracle_failure_exits_1(monkeypatch, capsys):
    import twistknots.diagrams as diagrams

    def broken(spec, tpl, n, budget):
        raise diagrams.DiagramError("no orientation makes every twist region anti-parallel")

    monkeypatch.setattr(diagrams, "crosscheck", broken)
    code = main(["crosscheck", "--family", "7_6", "--signs", "++-+-",
                 "--twists", "1,2,1,1,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "verification failed: no orientation makes every twist region anti-parallel\n"


def test_cli_import_leaves_out_the_oracle():
    """check and jones run on the instance engine alone: a query process never
    imports the sweep engine, the diagram oracle or ``dataclasses``."""
    probe = ("import sys; from twistknots.cli import main; code = main(sys.argv[1:]); "
             "print(sorted(m for m in ('dataclasses', 'inspect', 'twistknots.casework', "
             "'twistknots.diagrams', 'twistknots.pdcodes') if m in sys.modules)); "
             "sys.exit(code)")
    for command in ("check", "jones"):
        out = subprocess.run([sys.executable, "-c", probe, command, "--family", "7_6",
                              "--signs", "++-+-", "--twists", "1,2,1,1,1"],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.splitlines()[-1] == "[]", command


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
    from fractions import Fraction

    import twistknots.obstruction as obstruction

    real = obstruction.conway_poly
    monkeypatch.setattr(obstruction, "conway_poly",
                        lambda tpl, n: real(tpl, n)._replace(a2=Fraction(1)))
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


@pytest.mark.parametrize("entry, message", [
    ("-n1/2", "error: non-integer Seifert entry -a + 1/2 in 7_6[++-+-]\n"),
    ("n1*n2", "error: bad seifert line 'seifert n1*n2, -(n1+1)/2, 0, 1': "
              "'n1*n2' is not affine\n"),
], ids=["fraction", "not-affine"])
def test_bad_seifert_entry_exits_2(monkeypatch, capsys, entry, message):
    """A Seifert entry that is not affine, or that the band rule leaves with a
    true fraction on an odd band, is bad input, not a failed verification."""
    import twistknots.cli as cli
    import twistknots.seifert as seifert
    from helpers import family_text
    from twistknots.families import parse_family_file

    text = family_text("7_6").replace("seifert -(n1+n2)/2,", f"seifert {entry},")
    monkeypatch.setattr(cli, "load_family", lambda name: parse_family_file(text))
    monkeypatch.setattr(seifert, "load_family", lambda name: parse_family_file(text))
    assert main(["check", "--family", "7_6", "--signs", "++-+-", "--twists", "1,2,1,1,1"]) == 2
    assert capsys.readouterr() == ("", message)


def test_internal_error_exits_1(monkeypatch, capsys):
    import twistknots.obstruction as obstruction
    from twistknots.seifert import SeifertError

    def broken(tpl, n):
        raise SeifertError("Alexander value at 1 is 3, not a unit")

    monkeypatch.setattr(obstruction, "conway_poly", broken)
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


def test_case_with_leading_minus(capsys):
    """verify-paper's --case takes a sign case that starts with '-' too."""
    head = ["verify-paper", "--family", "7_6"]
    assert main(head + ["--case=--+-+"]) == 0
    joined = capsys.readouterr()
    assert joined.out.startswith("--+-+ ") and joined.out.endswith(" checks, 0 failures\n")
    assert main(head + ["--case", "--+-+"]) == 0
    assert capsys.readouterr() == joined


def test_unregistered_case_exits_2_unquoted(capsys):
    assert main(["verify-paper", "--family", "7_6", "--case", "xyz"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: no registered formulas for 7_6 xyz\n")


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


@pytest.mark.parametrize("command", ["jones", "check"])
def test_oversized_twists_exit_2(command, capsys):
    """Twists whose assembly would outgrow the dense list are refused with one
    error line naming the limit, not a traceback."""
    from twistknots.families import MAX_DENSE

    assert main([command, "--family", "7_6", "--signs", "++-+-",
                 "--twists", f"1,1,1,1,{10 ** 20}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"limit of {MAX_DENSE}" in captured.err


def test_alexander_takes_oversized_twists(capsys):
    """The Seifert route has no dense list, so alexander answers at any twist."""
    huge = 10 ** 20
    assert main(["alexander", "--family", "7_6", "--signs", "++-+-",
                 "--twists", f"1,1,1,1,{huge}"]) == 0
    assert f"conway: a2 = {-huge}, a4 = 0, a6 = 0" in capsys.readouterr().out.splitlines()
