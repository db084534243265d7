import json

import pytest

from twistknots.cli import main


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
