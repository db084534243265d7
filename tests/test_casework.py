import dataclasses
import json
import re
from fractions import Fraction
from itertools import product
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import twistknots.casework as casework
from twistknots.casework import (
    ALL_CASES,
    RegistryEntry,
    SweepConfig,
    SymbolicCase,
    _certify_sign,
    _line_coefficients,
    _line_zeros,
    classify_exceptions,
    full_report,
    instance_id,
    load_registry,
    match_exception,
    sweep_case,
    symbolic_case,
    verify_entry,
    verify_paper_case,
)
from twistknots.families import assemble_jones, load_family
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
        return dataclasses.replace(conway_poly(tpl, n), a2=Fraction(1))

    monkeypatch.setattr(casework, "conway_poly", nontrivial)
    with pytest.raises(AssertionError,
                       match=re.escape("7_6[++-+-](1,2,1,1,1) passed the gate loop "
                                       "but conway excludes it")):
        sweep_case(SweepConfig("7_6", n_range=2), "++-+-")


def test_exception_classification_patterns():
    cfg = SweepConfig("7_6", n_range=3)
    reports = [sweep_case(cfg, "++-+-"), sweep_case(cfg, "+--++")]
    records = classify_exceptions(cfg, reports)
    patterns = {(r.signs, r.pattern) for r in records}
    assert ("++-+-", "(1,e+1,-1,d,-e)") in patterns
    assert ("+--++", "(1,-1,-e,d,e)") in patterns
    assert ("+--++", "(1,-e,-1,d,e)") in patterns
    assert all(r.pattern is not None for r in records)


def test_match_exception_overlap():
    # (1,1,1,d,1) satisfies both patterns of the (+--++) case
    registry = load_registry("7_6")
    matches = match_exception(registry, "+--++", (1, 1, 1, 2, 1),
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
    from twistknots.casework import sweep
    cfg = SweepConfig("8_12", n_range=2)
    serial = sweep(cfg)
    monkeypatch.setenv("TWISTKNOTS_WORKERS", "2")
    parallel = sweep(cfg)
    assert [r.exclusions for r in parallel] == [r.exclusions for r in serial]
    assert [r.signs for r in parallel] == [r.signs for r in serial]


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
    """Random Fraction polynomials in 4 or 5 variables; with the factor
    (a - b), they vanish along every last-axis line where a == b."""
    variables = ("a", "b", "c", "d", "e")[:draw(st.sampled_from([4, 5]))]
    monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(variables))
    coeffs = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    poly = MultiPoly(variables, draw(st.dictionaries(monos, coeffs, max_size=6)))
    if draw(st.booleans()):
        poly = poly * (MultiPoly.var(variables, "a") - MultiPoly.var(variables, "b"))
    return poly, draw(st.integers(min_value=2, max_value=3))


def _check_zero_finder(gates, n_range):
    """Chain the gates as sweep_case does, a line at a time along the last
    variable, and compare every line's coefficients and zeros with
    MultiPoly.eval on the same box."""
    variables = gates[0].vars
    finders = [_line_coefficients(g) for g in gates]
    scales = [lcm(*(c.denominator for c in g.terms.values())) for g in gates]
    axis = range(1, n_range + 1)
    for prefix in product(axis, repeat=len(variables) - 1):
        alive = axis
        for gate, coeffs, scale in zip(gates, finders, scales):
            cs = coeffs(prefix)
            assert len(cs) == 1 + max((m[-1] for m in gate.terms), default=0)
            assert all(type(c) is int for c in cs)
            values = {v: gate.eval(dict(zip(variables, prefix + (v,)))) for v in axis}
            assert all(sum(c * v ** e for e, c in enumerate(cs)) == scale * values[v]
                       for v in axis)
            zeros = _line_zeros(cs, alive)
            assert list(zeros) == [v for v in alive if not values[v]]
            alive = zeros


@settings(max_examples=60, deadline=None)
@given(axis_polys())
def test_zero_finder_matches_eval(case):
    poly, n_range = case
    _check_zero_finder([poly], n_range)
    # behind a gate that leaves one position alive per line, v = a
    _check_zero_finder([parse_poly(f"{poly.vars[-1]} - a", poly.vars), poly], n_range)


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
}


@pytest.mark.parametrize("chain", ZERO_FINDER_GATES.values(), ids=ZERO_FINDER_GATES)
def test_zero_finder_on_built_gates(chain):
    variables = ("a", "b", "c", "d", "e")
    _check_zero_finder([parse_poly(g, variables) for g in chain], 4)


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


# --- the symbolic_case memo ----------------------------------------------------------

def test_symbolic_case_computed_once_per_case(monkeypatch):
    symbolic_case.cache_clear()
    real = casework.symbolic_derivs
    calls = []

    def counting(spec, kmax=4):
        calls.append(spec.signs_str())
        return real(spec, kmax)

    monkeypatch.setattr(casework, "symbolic_derivs", counting)
    verify_paper_case("7_6", "+++++")
    sweep_case(SweepConfig("7_6", n_range=4), "+++++")
    assert calls == ["+++++"]


def test_cached_symbolic_case_is_immutable():
    symbolic_case.cache_clear()
    sym = symbolic_case("7_6", "+++++")
    assert symbolic_case("7_6", "+++++") is sym
    assert isinstance(sym.derivs, tuple)
    for name in ("spec", "leading", "a2", "derivs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym, name, None)


def test_failing_route_check_is_not_cached(monkeypatch):
    # the skew of perfbench's raising-program test: a2 off by one
    symbolic_case.cache_clear()
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


def test_symbolic_case_cache_holds_one_family():
    symbolic_case.cache_clear()
    assert symbolic_case.cache_info().maxsize == len(ALL_CASES) == 32
