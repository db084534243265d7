import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from importlib import resources
from itertools import product, repeat
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import twistknots.casework as casework
import twistknots.families as families
import twistknots.obstruction as obstruction
import twistknots.seifert as seifert
from helpers import family_text, match_exception, reference_assemble
from twistknots.casework import (
    ALL_CASES,
    RegistryEntry,
    RegistryError,
    SweepConfig,
    SymbolicCase,
    _certify_sign,
    _first_zeros,
    _gate_loop,
    _gate_rows,
    _plane_zeros,
    classify_exceptions,
    formula_records,
    full_report,
    instance_id,
    load_registry,
    parse_registry,
    report_to_dict,
    sweep_case,
    symbolic_case,
    verify_entry,
    verify_paper_case,
)
from twistknots.families import FAMILIES, assemble_jones, load_family, parse_family_file
from twistknots.laurent import HalfLaurent
from twistknots.multipoly import MultiPoly, parse_poly
from twistknots.obstruction import GATE_ORDER, cosmetic_gate
from twistknots.seifert import conway_poly, template_for


def test_sweep_config_validates():
    with pytest.raises(ValueError):
        SweepConfig("7_6", n_range=1)


def test_sweep_case_all_plus_excluded_by_leading():
    cfg = SweepConfig("7_6", n_range=2)
    report = sweep_case(cfg, "+++++")
    assert report.exclusions["alexander_leading"] == report.instance_count == 32
    assert not report.exceptions


def test_sweep_case_exception_family():
    cfg = SweepConfig("7_6", n_range=2)
    report = sweep_case(cfg, "++-+-")
    assert len(report.exceptions) == 2   # b = e+1 = 2, d in {1,2}
    total = sum(report.exclusions.values()) + len(report.exceptions)
    assert total == 32


def test_sweep_survivor_excluded_by_another_gate_raises(monkeypatch):
    # a survivor of the gate loop has a2 = 0, so a Seifert route that reads
    # a2 = 1 there disagrees with it; that must fail, not count as excluded
    def nontrivial(tpl, n):
        return conway_poly(tpl, n)._replace(a2=Fraction(1))

    monkeypatch.setattr(obstruction, "conway_poly", nontrivial)
    with pytest.raises(AssertionError,
                       match=re.escape("7_6[++-+-](1,2,1,1,1) passed the gate loop "
                                       "but conway excludes it")):
        sweep_case(SweepConfig("7_6", n_range=2), "++-+-")


# the three box cases of scripts/bench.py, beside every sign case at range 4
_EXIT_CASES = ([(f, s, 4) for f in FAMILIES for s in ALL_CASES]
               + [("7_6", "++-+-", 12), ("10_58", "+-+-+", 12), ("8_12", "-++-+", 20)])


def test_sweep_exceptions_take_the_early_exits(monkeypatch):
    """Every exception is certified by the packed T-form identity and the
    packed Delta = t^g alone: with the dense division and the z-rewrite cut
    off, the sweeps still pass.  Each exception's Jones polynomial is then
    checked against the dense state sum, and its Delta against the Delta of
    its int Seifert matrix over ``HalfLaurent`` entries."""
    for family, signs, _ in _EXIT_CASES:
        symbolic_case(family, signs)   # the symbolic set-up rewrites in z

    def cut(*args):
        raise AssertionError("a survivor left the early exit")

    found = []
    with monkeypatch.context() as patch:
        patch.setattr(families, "accumulate", cut)
        patch.setattr(seifert, "_conway", cut)
        for family, signs, n_range in _EXIT_CASES:
            report = sweep_case(SweepConfig(family, n_range=n_range), signs)
            found += [(family, signs, v.twists) for v in report.exceptions]
    assert len(found) == 208 + 132
    for family, signs, n in found:
        sym = symbolic_case(family, signs)
        assert assemble_jones(sym.spec, n) == reference_assemble(sym.spec, n) == HalfLaurent.one()
        delta = seifert._delta(sym.template.instantiate(n))
        assert seifert.alexander_poly(sym.template, n) == delta == HalfLaurent({4: 1})


def _with_n3_on_s13(monkeypatch, signs: str):
    """7_6's template with n3 added to S_13 and S_31: S - S^T, Delta(1) and a2
    stay as they were, while the leading coefficient changes."""
    text = family_text("7_6")
    for old, new in (("-(n1+n2)/2, -(n1+1)/2, 0, 1", "-(n1+n2)/2, -(n1+1)/2, n3, 1"),
                     ("0, 0, -n4/2, 1", "n3, 0, -n4/2, 1")):
        assert f"seifert {old}\n" in text
        text = text.replace(f"seifert {old}\n", f"seifert {new}\n")
    fam = parse_family_file(text)
    with monkeypatch.context() as patch:
        patch.setattr(seifert, "load_family", lambda name: fam)
        return template_for("7_6", signs)


# the first survivor in box order where the change reaches the leading
# coefficient; at those before it the added n3 leaves it 0
@pytest.mark.parametrize("signs, n", [("+-++-", (1, 1, 2, 1, 1)), ("+--++", (1, 1, 2, 1, 2))])
def test_sweep_raises_on_a_changed_seifert_matrix_at_a_survivor(monkeypatch, signs, n):
    # the gates stay right and only the instance's matrix changes, so the
    # packed Delta of a survivor is no longer t^2 and the routes disagree
    changed = _with_n3_on_s13(monkeypatch, signs)
    real = symbolic_case("7_6", signs)
    assert conway_poly(changed, n).a4 != 0 == conway_poly(real.template, n).a4
    monkeypatch.setattr(casework, "symbolic_case",
                        lambda family, s: dataclasses.replace(real, template=changed))
    with pytest.raises(AssertionError, match=re.escape(
            f"7_6[{signs}]({','.join(map(str, n))}) passed the gate loop "
            "but alexander_leading excludes it")):
        sweep_case(SweepConfig("7_6", n_range=2), signs)


def test_exception_classification_patterns():
    cfg = SweepConfig("7_6", n_range=3)
    reports = [sweep_case(cfg, "++-+-"), sweep_case(cfg, "+--++")]
    records = classify_exceptions(cfg, reports)
    patterns = {(r.signs, r.pattern) for r in records}
    assert ("++-+-", "(1,e+1,-1,d,-e)") in patterns
    assert ("+--++", "(1,-1,-e,d,e)") in patterns
    assert ("+--++", "(1,-e,-1,d,e)") in patterns
    assert all(r.pattern is not None for r in records)


def test_classify_exceptions_parses_each_pattern_once(monkeypatch):
    # 7_6 ++-+- has one registered pattern of three constraint strings and
    # 30 exceptions in [1..6]^5
    cfg = SweepConfig("7_6", n_range=6)
    report = sweep_case(cfg, "++-+-")
    assert len(report.exceptions) == 30
    real = casework.parse_poly
    calls = []

    def counting(text, variables):
        calls.append(text)
        return real(text, variables)

    monkeypatch.setattr(casework, "parse_poly", counting)
    records = classify_exceptions(cfg, [report])
    assert [r.pattern for r in records] == ["(1,e+1,-1,d,-e)"]
    assert len(calls) <= 3


def test_match_exception_overlap():
    # (1,1,1,d,1) satisfies both patterns of the (+--++) case
    registry = load_registry("7_6")
    matches = match_exception("7_6", registry, "+--++", (1, 1, 1, 2, 1),
                              ("a", "b", "c", "d", "e"))
    assert len(matches) == 2


def test_mirror_case_reports_match():
    cfg = SweepConfig("7_6", n_range=2)
    plus = sweep_case(cfg, "+-+--")
    minus = sweep_case(cfg, "-+-++")
    assert plus.exclusions == minus.exclusions
    assert [v.twists for v in plus.exceptions] == [v.twists for v in minus.exceptions]


def test_verify_paper_case_passes():
    for family, signs in (("7_6", "++-++"), ("7_6", "++-+-"),
                          ("10_58", "++-+-"), ("8_12", "--++-")):
        for rec in verify_paper_case(family, signs):
            assert rec["status"] == "PASS", (family, signs, rec)


def test_verify_paper_case_unregistered():
    with pytest.raises(KeyError):
        verify_paper_case("7_6", "++++")


def test_d4_demo_instances_reach_fourth_derivative():
    registry = load_registry("10_58")
    assert registry.d4_demo
    for signs, n in registry.d4_demo.items():
        sym = symbolic_case("10_58", signs)
        point = dict(zip(sym.spec.variables, n))
        assert sym.leading.eval(point) == 0
        assert sym.a2.eval(point) == 0
        assert sym.derivs[3].eval(point) == 0
        assert sym.derivs[4].eval(point) != 0


@pytest.mark.parametrize("text,zero", [
    ("a + b - 2", (1, 1)),              # shifted: a + b, constant 0
    ("a*b - 2*a", (3, 2)),              # a*(b - 2)
    ("(a - 2)^2 + (b - 1)^2", (2, 1)),
    ("a*b - a - b + 1", (1, 5)),        # shifted: a*b, constant 0
])
def test_certify_sign_rejects_a_zero(text, zero):
    # negative control: a polynomial that vanishes at a point with every
    # variable >= 1 is neither positive nor negative there
    variables = ("a", "b")
    poly = parse_poly(text, variables)
    assert poly.eval(dict(zip(variables, zero))) == 0
    assert _certify_sign(poly, "positive", None, variables) is False
    assert _certify_sign(-poly, "negative", None, variables) is False


def test_certify_sign_fallback():
    # there is no numeric fallback: a true claim the shifted-positivity test
    # cannot prove is uncertified, and verify_entry reports it as FAIL
    variables = ("a", "b")
    hard = parse_poly("(a-b)^2 + 1", variables)
    assert _certify_sign(hard, "positive", None, variables) is False
    easy = parse_poly("a*b + 1", variables)
    assert _certify_sign(easy, "positive", None, variables) is True
    assert _certify_sign(parse_poly("a - b", variables), "positive", None, variables) is False

    spec = load_family("8_12").with_signs("+++++")
    zero = MultiPoly.zero(spec.variables)
    entry = RegistryEntry("leading", None, (), None, "1", "positive", None)
    for lead, status, check in (("(a-b)^2 + 1", "FAIL", "uncertified"),
                                ("a*b + 1", "PASS", "certificate")):
        sym = SymbolicCase(spec, parse_poly(lead, spec.variables), zero, [zero] * 5,
                           template_for("8_12", "+++++"))
        assert verify_entry(sym, entry) == {
            "quantity": "leading", "status": status, "checks": [f"sign positive: {check}"]}


def test_full_report_deterministic():
    cfg = SweepConfig("8_12", n_range=2)
    blob1 = json.dumps(full_report(cfg), sort_keys=True)
    blob2 = json.dumps(full_report(cfg), sort_keys=True)
    assert blob1 == blob2


def test_8_12_mini_sweep_all_leading():
    cfg = SweepConfig("8_12", n_range=2)
    report = sweep_case(cfg, "-+-+-")
    assert report.exclusions["alexander_leading"] == report.instance_count == 16


def test_root5_sweep_records_gate():
    cfg = SweepConfig("8_12", n_range=2, use_root5=True)
    report = sweep_case(cfg, "+++++")
    assert report.exclusions["alexander_leading"] == 16
    cfg76 = SweepConfig("7_6", n_range=2, use_root5=True)
    report76 = sweep_case(cfg76, "++-+-")
    assert len(report76.exceptions) == 2
    assert all(v.root5 is not None and v.root5.value == "INCONCLUSIVE"
               for v in report76.exceptions)


def test_parallel_sweep_matches_serial(monkeypatch):
    """The workers' reports, verdicts included, come back whole: 7_6's 40
    exceptions cross the process boundary as ``ObstructionVerdict``s."""
    from twistknots.casework import sweep
    for family, exceptions in (("8_12", 0), ("7_6", 40)):
        cfg = SweepConfig(family, n_range=2)
        monkeypatch.delenv("TWISTKNOTS_WORKERS", raising=False)
        serial = sweep(cfg)
        monkeypatch.setenv("TWISTKNOTS_WORKERS", "2")
        parallel = sweep(cfg)
        assert sum(len(r.exceptions) for r in serial) == exceptions
        assert [r.exceptions for r in parallel] == [r.exceptions for r in serial]
        assert [report_to_dict(r) for r in parallel] == [report_to_dict(r) for r in serial]


def test_sweep_pool_capped_at_sign_cases(monkeypatch):
    import multiprocessing

    from twistknots.casework import ALL_CASES, sweep
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setenv("TWISTKNOTS_WORKERS", "64")
    reports = sweep(SweepConfig("8_12", n_range=2))
    assert sizes == [len(ALL_CASES)]
    assert [r.signs for r in reports] == list(ALL_CASES)


# --- the zero finder and the gate loop against brute force ----------------------

@st.composite
def axis_polys(draw):
    """Random Fraction polynomials in 1 to 5 variables, of degree 0, 1 or 3 at
    most in the last; with the factor (a - b), they vanish along every line
    where a == b (and on the line v = a, when b is the last variable)."""
    variables = ("a", "b", "c", "d", "e")[:draw(st.integers(min_value=1, max_value=5))]
    last = draw(st.sampled_from([0, 1, 3]))
    exponents = [st.integers(min_value=0, max_value=3)] * (len(variables) - 1)
    monos = st.tuples(*exponents, st.integers(min_value=0, max_value=last))
    coeffs = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    poly = MultiPoly(variables, draw(st.dictionaries(monos, coeffs, max_size=6)))
    if len(variables) > 1 and draw(st.booleans()):
        poly = poly * (MultiPoly.var(variables, "a") - MultiPoly.var(variables, "b"))
    return poly, draw(st.integers(min_value=2, max_value=3))


def _check_zero_finder(gates, n_range):
    """Chain the gates as _gate_loop does and compare every line's
    coefficients, the lines each solver picks and every zero with
    MultiPoly.eval on the same box: the first gate's core, its monomial
    content divided out, over the plane of (up to) two of the variables it
    mentions before its last; then the later gates with the first one's zeros
    as their plane, at each outer prefix of the other variables but the last.
    _gate_loop's histogram and survivors must match the gates evaluated point
    by point."""
    variables = gates[0].vars
    k = len(variables)
    axis = range(1, n_range + 1)

    def line_values(gate, rows, names, prefix):
        """The gate on the line at prefix, its variables named by ``names``
        in the order of the rows, checked against the line's rows."""
        values = [gate.eval(dict(zip(names, prefix + (v,)))) for v in axis]
        scale = lcm(*(c.denominator for c in gate.terms.values()))
        assert len(rows) == 1 + max((m[gate.vars.index(names[-1])] for m in gate.terms),
                                    default=0)
        assert all(type(c) is int for c in rows)
        assert [sum(c * v ** e for e, c in enumerate(rows)) for v in axis] == \
            [scale * value for value in values]
        return values

    # the first gate is its monomial content times a core in the variables it
    # mentions, the last alone if none
    first = gates[0]
    low = [min((m[i] for m in first.terms), default=0) for i in range(k)]
    used = [i for i in range(k) if any(m[i] != low[i] for m in first.terms)] or [k - 1]
    core = MultiPoly([variables[i] for i in used],
                     {tuple(m[i] - low[i] for i in used): c for m, c in first.terms.items()})
    lifted = {tuple(m[used.index(i)] if i in used else 0 for i in range(k)): c
              for m, c in core.terms.items()}
    assert MultiPoly(variables, lifted) * MultiPoly(variables, {tuple(low): 1}) == first
    j = max(len(used) - 3, 0)
    plane = list(product(axis, repeat=len(used) - 1 - j))
    finder = _gate_rows(core, plane, range(j, len(used) - 1))
    for outer in product(axis, repeat=j):
        rows = finder(outer)
        assert all(len(row) == len(plane) for row in rows)
        expected = []
        for g, point in enumerate(plane):
            values = line_values(core, [row[g] for row in rows], core.vars, outer + point)
            zeros = [v for v in axis if not values[v - 1]]
            if zeros:
                expected.append((g, zeros))
        lines = _plane_zeros(rows, zip(range(len(plane)), repeat(axis)))
        assert [(g, list(alive)) for g, alive in lines] == expected

    # the first gate's zeros on the box, the later gates on them, and the
    # histogram, each against every point of the box
    at, picks = _first_zeros(first, axis)
    assert k - 1 not in at and all(len(p) == len(at) for p, _ in picks)
    covered = {(p, v) for p, alive in picks for v in alive}
    assert len(covered) == sum(len(alive) for _, alive in picks)
    excluded, survivors = [0] * len(gates), []
    for n in product(axis, repeat=k):
        point = dict(zip(variables, n))
        assert ((tuple(n[i] for i in at), n[-1]) in covered) == (not first.eval(point))
        gate = next((i for i, g in enumerate(gates) if g.eval(point)), None)
        if gate is None:
            survivors.append(n)
        else:
            excluded[gate] += 1
    assert _gate_loop(gates, axis) == (excluded, survivors)

    inner = [i for i in range(k - 1) if i not in at]
    names = [variables[i] for i in inner + at + [k - 1]]
    plane = [p for p, _ in picks]
    finders = [_gate_rows(g, plane, at) for g in gates[1:]] if picks else []
    reached = []
    for outer in product(axis, repeat=len(inner)) if picks else ():
        lines = [(g, list(alive)) for g, (_, alive) in enumerate(picks)]
        for gate, coeffs in zip(gates[1:], finders):
            rows = coeffs(outer)
            assert all(len(row) == len(plane) for row in rows)
            expected = []
            for g, alive in lines:
                values = line_values(gate, [row[g] for row in rows], names, outer + plane[g])
                zeros = [v for v in alive if not values[v - 1]]
                if zeros:
                    expected.append((g, zeros))
            lines = [(g, list(z)) for g, z in _plane_zeros(rows, lines)]
            assert lines == expected
        reached += [dict(zip(names, outer + plane[g] + (v,))) for g, alive in lines
                    for v in alive]
    assert sorted(tuple(point[v] for v in variables) for point in reached) == survivors


@settings(max_examples=80, deadline=None)
@given(axis_polys())
def test_zero_finder_matches_eval(case):
    poly, n_range = case
    _check_zero_finder([poly], n_range)
    # behind a gate that leaves one position alive per line, v = a
    _check_zero_finder([parse_poly(f"{poly.vars[-1]} - a", poly.vars), poly], n_range)
    # behind an identically zero gate, which leaves every line alive
    _check_zero_finder([MultiPoly.zero(poly.vars), poly], n_range)


ZERO_FINDER_GATES = {
    "linear root inside the box": ["e - a"],
    "linear root above the box": ["e - a - 4"],
    "linear root at 0": ["e"],
    "linear root below 0": ["e + a"],
    "linear root a+1/2": ["2*e - 2*a - 1"],
    "linear root a/3, integral for some a": ["3*e - a"],
    "linear with fractions": ["e/2 - a/6 - b/3"],
    "linear, degree 0 where a == b": ["(a - b)*e + c"],
    "linear, zero where a == b": ["(a - b)*(e - c)"],
    "root killed by an earlier gate": ["e - a", "e - b"],
    "linear behind a quadratic": ["(e - a)*(e - c)", "e - b"],
    "cubic with three integer roots": ["(e - a)*(e - b)*(e - 2)"],
    "cubic with one integer root": ["(e - c)*(2*e - 1)*(e + b)"],
    "cubic with no rational root": ["e^3 - 2*a^3"],
    "cubic with an integer root only where d = 4": ["e^3 - 2*a^3*d"],
    "cubic behind linear gates": ["e - a", "(a - b)*e + c - d", "(e - c)*(e - d)^2/5"],
    "linear root c+d, outside the box for most of the plane": ["e - c - d"],
    "linear root c*d/2, fractional where c*d is odd": ["2*e - c*d"],
    "linear, degree 0 where c == d": ["(c - d)*e + a"],
    "linear, zero where c == d": ["(c - d)*(e - a)", "e - b"],
    "degree 0 in the last variable": ["(a - c)*(b - d)", "e - c"],
    "identically zero first gate": ["0", "e - d", "(e - a)*(e - b)"],
    "monomial content": ["b*c*(e - a)", "e - d"],
    "core that omits the line variable": ["d*e*(a - b)", "e - c"],
    "core in one variable": ["d^2*(b - 2)", "(e - a)*(e - c)"],
    "pure monomial": ["3*a*b*c*d*e", "e - a"],
    "content gate behind an identically zero gate": ["0", "b*c*(e - a)", "e - d"],
    "7_6's first gate shape": ["d*e*(-a*b + a*c + b*c - c)", "e - b", "(e - d)*(e - 1)"],
    "10_58's first gate shape": ["b*c*(-a*d + a*e + d*e)", "c - b"],
}


@pytest.mark.parametrize("chain", ZERO_FINDER_GATES.values(), ids=ZERO_FINDER_GATES)
def test_zero_finder_on_built_gates(chain):
    variables = ("a", "b", "c", "d", "e")
    _check_zero_finder([parse_poly(g, variables) for g in chain], 4)


# chains in fewer variables than the outer prefix and plane of a 5-variable
# gate: with k <= 3 the outer prefix is empty, with k <= 2 the plane too is
# smaller than two variables
FEW_VARIABLE_GATES = {
    "one variable, linear": ("a", ["2*a - 4"]),
    "one variable, root outside the box": ("a", ["a + 1"]),
    "one variable, quadratic": ("a", ["(a - 1)*(a - 3)"]),
    "one variable, identically zero": ("a", ["0", "a - 2"]),
    "two variables, linear": ("ab", ["b - a", "b - 2"]),
    "two variables, degree 0 where a == 2": ("ab", ["(a - 2)*b + a - 2"]),
    "two variables, fractional root": ("ab", ["2*b - a"]),
    "three variables, linear, zero where a == b": ("abc", ["(a - b)*(c - 1)", "c - a"]),
    "three variables, quadratic": ("abc", ["(c - a)*(c - b)", "c - 2"]),
    "four variables, linear behind nothing": ("abcd", ["d*(b - c) + a - 1"]),
}


@pytest.mark.parametrize("variables,chain", FEW_VARIABLE_GATES.values(),
                         ids=FEW_VARIABLE_GATES)
def test_zero_finder_in_few_variables(variables, chain):
    _check_zero_finder([parse_poly(g, tuple(variables)) for g in chain], 4)


def _reference_sweep(cfg: SweepConfig, signs: str):
    """Gate histogram and exception verdicts, instance by instance with
    MultiPoly.eval in the gate order of sweep_case; with root5 every instance
    is assembled and sees every gate, as cosmetic_gate orders them."""
    sym = symbolic_case(cfg.family, signs)
    spec = sym.spec
    tpl = template_for(cfg.family, tuple(b.sign for b in spec.bands))
    gates = (("alexander_leading", sym.leading), ("conway", sym.a2),
             ("d3", sym.derivs[3]), ("d4", sym.derivs[4]))
    exclusions = {g: 0 for g in GATE_ORDER}
    exceptions = []
    for n in product(range(1, cfg.n_range + 1), repeat=len(spec.variables)):
        point = dict(zip(spec.variables, n))
        lead = sym.leading.eval(point)
        if not cfg.use_root5:
            gate = next((key for key, poly in gates if poly.eval(point)), None)
            if gate is not None:
                exclusions[gate] += 1
                continue
        jones = assemble_jones(spec, n)
        verdict = cosmetic_gate(jones, jones.derivs_at_one(4), conway_poly(tpl, n),
                                lead, use_root5=cfg.use_root5,
                                instance=instance_id(cfg.family, signs, n), twists=n)
        if verdict.is_exception:
            exceptions.append(verdict)
        else:
            exclusions[verdict.excluded_by] += 1
    return exclusions, exceptions


@pytest.mark.parametrize("family,signs,n_range,root5", [
    ("8_12", "--++-", 3, False),
    ("10_58", "++---", 3, False),
    ("7_6", "+--++", 3, False),     # two exception patterns
    ("7_6", "++-+-", 2, True),
    ("8_12", "-++-+", 3, True),     # all bands even; no exceptions
    ("7_6", "++-+-", 4, False),
    ("10_58", "+-+-+", 4, False),
    ("8_12", "--++-", 4, False),
])
def test_sweep_case_matches_brute_force(family, signs, n_range, root5):
    cfg = SweepConfig(family, n_range=n_range, use_root5=root5)
    report = sweep_case(cfg, signs)
    exclusions, exceptions = _reference_sweep(cfg, signs)
    assert report.exclusions == exclusions
    assert report.exceptions == exceptions
    assert [v.instance for v in report.exceptions] == \
           [instance_id(family, signs, v.twists) for v in exceptions]
    if root5:
        assert bool(exceptions) == (family == "7_6")
        assert all(v.alex_leading == Fraction(0) and v.root5 is not None
                   for v in report.exceptions)


# sha256 of json.dumps(full_report(SweepConfig(f, n_range=4)), sort_keys=True)
# plus a newline for f = 7_6, 10_58, 8_12, then of report_to_dict of
# sweep_case(SweepConfig(f, n_range=8), signs) the same way for each pair of
# REPORT_CASES; recorded from the line-at-a-time gate loop that solving the
# first gate a plane at a time replaced
SWEEP_REPORT_SHA256 = "630d6d92504f21387b0409e084dda59b47666c79269c1ab9e5dee56bd2aaab4a"
REPORT_CASES = (("7_6", "+--++"), ("10_58", "+-+-+"), ("8_12", "-++-+"))


def test_sweep_report_digest(monkeypatch, sweep_7_6, sweep_10_58):
    real = casework.sweep
    swept = {"7_6": sweep_7_6, "10_58": sweep_10_58}
    # the fixtures are sweep(SweepConfig(f, n_range=4)) already
    monkeypatch.setattr(casework, "sweep", lambda cfg: swept.get(cfg.family) or real(cfg))
    digest = hashlib.sha256()
    for family in ("7_6", "10_58", "8_12"):
        blob = json.dumps(full_report(SweepConfig(family, n_range=4)), sort_keys=True)
        digest.update(blob.encode() + b"\n")
    for family, signs in REPORT_CASES:
        report = sweep_case(SweepConfig(family, n_range=8), signs)
        digest.update(json.dumps(report_to_dict(report), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == SWEEP_REPORT_SHA256


# sha256 of json.dumps(report_to_dict(sweep_case(SweepConfig(f, n_range=6),
# signs)), sort_keys=True) plus a newline over the 96 (family, sign case) pairs,
# families 7_6, 10_58, 8_12 and sign cases in the order of ALL_CASES, then the
# same for REPORT_CASES at the ranges of perfbench's box sweep (12, 12, 20);
# recorded from the sweep that solved the first gate over the whole box and the
# later gates a line at a time
BOX_REPORT_SHA256 = "3d3efdf8fe6a101ec703eea2adc01b1ba2b9bd14f8f4e4e23140bc5fd78b306d"


def test_box_report_digest():
    cases = [(family, signs, 6) for family in ("7_6", "10_58", "8_12") for signs in ALL_CASES]
    cases += [(family, signs, r) for (family, signs), r in zip(REPORT_CASES, (12, 12, 20))]
    digest = hashlib.sha256()
    for family, signs, n_range in cases:
        report = sweep_case(SweepConfig(family, n_range=n_range), signs)
        digest.update(json.dumps(report_to_dict(report), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == BOX_REPORT_SHA256


# sha256 over the 96 (family, sign case) pairs, families 7_6, 10_58, 8_12 and
# sign cases in the order of ALL_CASES, of symbolic_case(f, signs).leading and
# .a2 as ``format()`` text and of json.dumps(formula_records(f, signs), sort_keys=True),
# each plus a newline; recorded from the Fraction-coefficient MultiPoly that
# storing integral coefficients as int replaced
SYMBOLIC_CASE_SHA256 = "adf1a84e048690b4b10b66b3da6b094b306d4df52257baa47af8e356ce6e3620"


def test_symbolic_case_digest():
    digest = hashlib.sha256()
    for family in ("7_6", "10_58", "8_12"):
        for signs in ALL_CASES:
            sym = symbolic_case(family, signs)
            for text in (sym.leading.format(), sym.a2.format(),
                         json.dumps(formula_records(family, signs), sort_keys=True)):
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == SYMBOLIC_CASE_SHA256


# --- the symbolic_case and formula-check memos ----------------------------------------

def _clear_memos():
    symbolic_case.cache_clear()
    casework._formula_checks.cache_clear()


def test_symbolic_case_computed_once_per_case(monkeypatch):
    _clear_memos()
    real = casework.symbolic_derivs
    calls = []

    def counting(spec, kmax=4):
        calls.append(spec.signs_str())
        return real(spec, kmax)

    monkeypatch.setattr(casework, "symbolic_derivs", counting)
    verify_paper_case("7_6", "+++++")
    sweep_case(SweepConfig("7_6", n_range=4), "+++++")
    assert calls == ["+++++"]


def test_formula_checks_run_once_per_entry(monkeypatch):
    _clear_memos()
    real = casework.verify_entry
    calls = []

    def counting(sym, entry):
        calls.append(entry)
        return real(sym, entry)

    monkeypatch.setattr(casework, "verify_entry", counting)
    records = verify_paper_case("10_58", "+-+-+")
    report = sweep_case(SweepConfig("10_58", n_range=2), "+-+-+")
    assert calls == list(load_registry("10_58").cases["+-+-+"])
    assert report.formula_checks == records and len(records) == 5


def test_formula_records_are_fresh():
    _clear_memos()
    cfg = SweepConfig("7_6", n_range=2)
    expected = verify_paper_case("7_6", "+++++")
    for records in (verify_paper_case("7_6", "+++++"),
                    sweep_case(cfg, "+++++").formula_checks):
        records[0]["status"] = "FAIL"
        records[0]["checks"].append("tampered")
        records.append({})
    assert verify_paper_case("7_6", "+++++") == expected
    assert sweep_case(cfg, "+++++").formula_checks == expected


def test_cached_symbolic_case_is_immutable():
    _clear_memos()
    sym = symbolic_case("7_6", "+++++")
    assert symbolic_case("7_6", "+++++") is sym
    assert isinstance(sym.derivs, tuple)
    checks = casework._formula_checks("7_6", "+++++")
    assert checks and all(isinstance(c, tuple) and isinstance(c[2], tuple) for c in checks)
    assert formula_records("7_6", "+++++") == [
        {"quantity": q, "status": status, "checks": list(c)} for q, status, c in checks]
    for name in ("spec", "leading", "a2", "derivs", "template"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym, name, None)


def _edited(family: str, old: str, new: str) -> str:
    """The packaged registry of ``family`` on one line, its first ``old`` made ``new``."""
    text = json.dumps(json.loads(resources.files("twistknots").joinpath(
        f"data/registry/{family}.json").read_text()))
    assert old in text
    return text.replace(old, new, 1)


# 8_12's first entry is {"quantity": "leading", "expr": "a*b*c*d", "sign": "positive"}
@pytest.mark.parametrize("family,old,new,message", [
    ("8_12", "{", "", "8_12 registry: not JSON"),
    ("8_12", '"family"', '"notes": "", "family"', "8_12 registry: unknown key 'notes'"),
    ("8_12", '"d4_demo"', '"d4_demos"', "8_12 registry: missing key 'd4_demo'"),
    ("8_12", '"family": "8_12"', '"family": "7_6"', "family field '7_6' is not '8_12'"),
    ("8_12", '"exceptions": {}', '"exceptions": []', "registry: exceptions [] is not an object"),
    ("8_12", '"+++++"', '"++++"', "cases['++++']: want a sign case of 5 characters"),
    ("8_12", '"+++++"', '"++x++"', "cases['++x++']: want a sign case of 5 characters"),
    ("10_58", '"sign"', '"sing"', "10_58 registry, cases['-----'][0]: unknown key 'sing'"),
    ("8_12", '"quantity"', '"quantities"', "cases['+++++'][0]: missing key 'quantity'"),
    ("8_12", '"leading"', '"lead"', "quantity 'lead' is not one of leading, c3, d2, d3, d4"),
    ("8_12", '"positive"', '"postive"', "sign 'postive' is not one of positive, negative"),
    ("8_12", '"sign"', '"target_num": 0, "sign"', "[0]: target_num 0 is not a string"),
    ("8_12", '"expr": "a*b*c*d", ', "", "cases['+++++'][0]: neither expr nor target_num"),
    ("8_12", '"sign"', '"chain": [], "sign"', "chain or target_den without target_num"),
    ("8_12", '"sign"', '"target_den": "1", "sign"', "chain or target_den without target_num"),
    ("8_12", '"sign": "positive"', '"shift": ["a", "b"]', "[0]: shift without sign"),
    ("8_12", '"sign"', '"target_num": "0", "chain": "a", "sign"', "[0]: chain 'a' is not a list"),
    ("8_12", '"sign"', '"target_num": "0", "chain": [["a", "b"]], "sign"', "[0] chain: "
     "['a', 'b'] is not 3 strings headed by one of a, b, c, d"),   # a two-element row
    ("8_12", '"sign"', '"target_num": "0", "chain": [["e", "b", "1"]], "sign"', "[0] chain: "
     "['e', 'b', '1'] is not 3 strings headed by one of a, b, c, d"),   # 8_12 has no e
    ("8_12", '"sign"', '"shift": ["a"], "sign"', "[0] shift: ['a'] is not 2 strings"),
    ("8_12", '"sign"', '"shift": ["e", "a"], "sign"', "[0] shift: ['e', 'a'] is not 2 strings"),
    ("7_6", '"tuple"', '"note": "", "tuple"', "exceptions['++-+-'][0]: unknown key 'note'"),
    ("7_6", '"constraints"', '"constraint"', "exceptions['++-+-'][0]: missing key 'constraints'"),
    ("7_6", '"a": "1"', '"f": "1"', "exceptions['++-+-'][0] constraints: unknown key 'f'"),
    ("7_6", '"tuple": "(1,e+1,-1,d,-e)"', '"tuple": null', "[0]: tuple None is not a string"),
    ("7_6", '"a": "1"', '"a": 1', "exceptions['++-+-'][0] constraints: a 1 is not a string"),
    ("10_58", "[2, 12, 3, 2, 1]", "[2, 12, 3, 2]", "[2, 12, 3, 2] is not 5 integers >= 1"),
    ("10_58", "[2, 12, 3, 2, 1]", "[0, 12, 3, 2, 1]", "d4_demo['++-+-']: [0, 12, 3, 2, 1]"),
    ("10_58", "[2, 12, 3, 2, 1]", "[true, 12, 3, 2, 1]", "[True, 12, 3, 2, 1] is not 5"),
    # plain JSON keeps only the last copy of a repeated key
    ("8_12", '"cases": {', '"cases": {"+++++": [{"quantity": "leading", "expr": "0"}], ',
     "8_12 registry, cases: repeated key '+++++'"),
    ("8_12", '"expr": "a*b*c*d"', '"expr": "0", "expr": "a*b*c*d"',
     "8_12 registry, cases['+++++'][0]: repeated key 'expr'"),
    ("8_12", '"family": "8_12"', '"family": "7_6", "family": "8_12"',
     "8_12 registry: repeated key 'family'"),
    ("7_6", '"a": "1"', '"a": "2", "a": "1"',
     "7_6 registry, exceptions['++-+-'][0] constraints: repeated key 'a'"),
])
def test_parse_registry_rejects(family, old, new, message):
    with pytest.raises(RegistryError, match=re.escape(message)):
        parse_registry(_edited(family, old, new), family)


# one formula field in turn that does not parse; the error names the family,
# the sign case, the entry's index and the field
@pytest.mark.parametrize("field,entry", [
    ("expr", ("leading", "a*b*(c*d", (), None, "1", None, None)),
    ("chain[1][2]", ("leading", None, (("a", "b", "1"), ("b", "c", "1/")), "a", "1", None, None)),
    ("target_num", ("leading", None, (), "a +* b", "1", None, None)),
    ("target_den", ("leading", None, (), "a", "f", None, None)),
    ("shift[1]", ("leading", "0", (), None, "1", "positive", ("a", "b^c"))),
])
def test_formula_that_does_not_parse_names_its_place(field, entry):
    sym = symbolic_case("8_12", "+-+-+")
    with pytest.raises(RegistryError, match=re.escape(f"8_12 registry, cases['+-+-+'][3] {field}: ")):
        verify_entry(sym, RegistryEntry(*entry, index=3))


def test_chain_denominator_may_hold_a_later_variable():
    # with leading a + b, a = 1/c and then c = b/(b+1) give (b^2+b+1)/b; the
    # first denominator c holds the second chain variable
    sym = symbolic_case("7_6", "+++++")
    sym = dataclasses.replace(sym, leading=parse_poly("a + b", sym.spec.variables))
    chain = (("a", "1", "c"), ("c", "b", "b+1"))
    for target_den, status, check in (("b", "PASS", "exact"), ("b^2+b", "FAIL", "mismatch")):
        entry = RegistryEntry("leading", None, chain, "b^2+b+1", target_den, None, None)
        assert verify_entry(sym, entry) == {
            "quantity": "leading", "status": status, "checks": [f"chained: {check}"]}


# a denominator that parses to the zero polynomial would make any chained
# check pass, so it is a registry fault naming its field
@pytest.mark.parametrize("field,entry", [
    ("target_den", ("d4", None, (), "0", "0", None, None)),
    ("chain[0][2]", ("d4", None, (("a", "b", "0"),), "5", "0", None, None)),
])
def test_zero_denominator_is_a_registry_error(field, entry):
    sym = symbolic_case("7_6", "+++++")
    message = f"7_6 registry, cases['+++++'][2] {field}: denominator '0' is zero"
    with pytest.raises(RegistryError, match=re.escape(message)):
        verify_entry(sym, RegistryEntry(*entry, index=2))


def test_constraint_that_does_not_parse_names_its_place():
    # 7_6's first exception constraint "a": "1" is in ++-+-, row 0
    registry = parse_registry(_edited("7_6", '"a": "1"', '"a": "(1"'), "7_6")
    cfg = SweepConfig("7_6", n_range=2)
    message = "7_6 registry, exceptions['++-+-'][0] constraints['a']: '(' was never closed in '(1'"
    with pytest.raises(RegistryError, match=re.escape(message)):
        classify_exceptions(cfg, [sweep_case(cfg, "++-+-")], registry)


@pytest.mark.parametrize("expr", ["b*c", "e^2 - 1", "1 + a*b"])
def test_constraint_that_is_not_affine_names_its_place(expr):
    registry = parse_registry(_edited("7_6", '"a": "1"', f'"a": "{expr}"'), "7_6")
    cfg = SweepConfig("7_6", n_range=2)
    message = f"7_6 registry, exceptions['++-+-'][0] constraints['a']: {expr!r} is not affine"
    with pytest.raises(RegistryError, match=re.escape(message)):
        classify_exceptions(cfg, [sweep_case(cfg, "++-+-")], registry)


def test_affine_constraints_match_as_their_polynomials():
    # every shipped row, read as affine rows, matches exactly where its
    # constraints' polynomials, evaluated in full, equal the twists
    for family in FAMILIES:
        registry = load_registry(family)
        for signs, rows in registry.exceptions.items():
            variables = load_family(family).with_signs(signs).variables
            parsed = casework._parsed_patterns(family, registry, signs, variables)
            polys = [(r["tuple"], [(v, parse_poly(e, variables))
                                   for v, e in r["constraints"].items()]) for r in rows]
            for n in product(range(1, 4), repeat=len(variables)):
                point = dict(zip(variables, n))
                expected = [pattern for pattern, constraints in polys
                            if all(point[v] == poly.eval(point) for v, poly in constraints)]
                assert casework._matching(parsed, n) == expected, (family, signs, n)


def test_parse_registry_parses_no_formula(monkeypatch):
    monkeypatch.setattr(casework, "parse_poly", None)
    for family in ("7_6", "10_58", "8_12"):
        assert parse_registry(_edited(family, "", ""), family) == load_registry(family)


def test_registry_is_read_once_and_read_only():
    registry = load_registry("7_6")
    assert load_registry("7_6") is registry
    for mapping in (registry.cases, registry.exceptions, registry.d4_demo):
        with pytest.raises(TypeError):
            mapping["+++++"] = ()


def test_failing_route_check_is_not_cached(monkeypatch):
    # the skew of perfbench's raising-program test: a2 off by one
    _clear_memos()
    real = casework.conway_symbolic

    def skewed(tpl):
        out = real(tpl)
        out[2] = out[2] + out[2].const(out[2].vars, 1)
        return out

    monkeypatch.setattr(casework, "conway_symbolic", skewed)
    for _ in range(2):
        with pytest.raises(AssertionError, match="-6 a2"):
            symbolic_case("8_12", "++-+-")
    assert symbolic_case.cache_info().currsize == 0
    monkeypatch.undo()
    symbolic_case("8_12", "++-+-")
    assert symbolic_case.cache_info().currsize == 1


def test_memos_hold_every_shipped_case():
    # families interleaved, so a memo of one family's 32 cases would never hit
    _clear_memos()
    pairs = [(family, signs) for signs in ALL_CASES for family in FAMILIES]
    assert len(pairs) == 96
    for pair in pairs:
        formula_records(*pair)
    before = symbolic_case.cache_info(), casework._formula_checks.cache_info()
    for pair in pairs:
        symbolic_case(*pair)
        formula_records(*pair)
    after = symbolic_case.cache_info(), casework._formula_checks.cache_info()
    for old, new in zip(before, after):
        assert (new.hits - old.hits, new.misses - old.misses, new.currsize) == (96, 0, 96)


def test_symbolic_case_reads_no_registry(monkeypatch):
    expected = [symbolic_case(family, "++-+-") for family in FAMILIES]
    _clear_memos()

    def unreadable(family):
        raise RuntimeError(f"symbolic_case read the registry of {family}")

    monkeypatch.setattr(casework, "load_registry", unreadable)
    for family, old in zip(FAMILIES, expected):
        sym = symbolic_case(family, "++-+-")
        assert sym is not old
        assert (sym.leading, sym.a2, sym.derivs) == (old.leading, old.a2, old.derivs)
    assert "formula_checks" not in {f.name for f in dataclasses.fields(SymbolicCase)}
