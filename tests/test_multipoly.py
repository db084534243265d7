from fractions import Fraction
from math import lcm, prod

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from helpers import substitute
from twistknots.laurent import HalfLaurent
from twistknots.multipoly import ExprError, MultiPoly, parse_poly

ABC = ("a", "b", "c")


def mk(terms):
    return MultiPoly(ABC, terms)


monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)
polys = st.dictionaries(monos, st.fractions(min_value=-5, max_value=5), max_size=4).map(mk)
int_polys = st.dictionaries(monos, st.integers(min_value=-5, max_value=5), max_size=4).map(mk)
points = st.fixed_dictionaries({v: st.integers(min_value=-6, max_value=6) for v in ABC})


def test_eval_example():
    p = parse_poly("a*b - c", ABC)
    assert p.eval({"a": 2, "b": 3, "c": 1}) == 5


def test_eval_zero():
    assert MultiPoly.zero(ABC).eval({"a": 7, "b": -2, "c": 0}) == 0


def test_eval_case_formula_at_ones():
    # a V''(1) case formula evaluated at unit parameters
    variables = ("a", "b", "c", "d", "e")
    p = parse_poly("-6*(a*b - c*(a+b+d-1) + d*(b+e))", variables)
    ones = {v: 1 for v in variables}
    assert p.eval(ones) == -6


def fraction_eval(p: MultiPoly, point) -> Fraction:
    """The value of p at point in Fraction arithmetic, term by term."""
    return sum((Fraction(c) * prod(Fraction(point[v]) ** e for v, e in zip(p.vars, m))
                for m, c in p.terms.items()), Fraction(0))


@given(polys, points)
def test_eval_at_int_points_is_exact_and_int_when_integral(p, pt):
    value = p.eval(pt)
    assert value == fraction_eval(p, pt)
    assert type(value) is (int if value.denominator == 1 and all_int(p) else Fraction)


@given(int_polys, points)
def test_eval_at_fraction_points_is_exact(p, pt):
    halves = {v: Fraction(x, 2) for v, x in pt.items()}
    value = p.eval(halves)
    assert value == fraction_eval(p, halves)
    # a Fraction once a term holds a variable; a constant stays an int
    assert type(value) is (Fraction if any(map(any, p.terms)) else int)


def test_eval_missing_variable():
    p = parse_poly("a + b", ABC)
    with pytest.raises(KeyError):
        p.eval({"a": 1})


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p


@given(polys, polys, points)
def test_eval_is_ring_map(p, q, pt):
    assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
    assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)


def test_parse_power_and_unary():
    p = parse_poly("-a^2 + 3*b - 1/2", ABC)
    assert p.eval({"a": 2, "b": 1, "c": 0}) == Fraction(-3, 2)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ExprError):
        parse_poly("a + z", ABC)


def test_parse_rejects_nonconstant_division():
    with pytest.raises(ExprError):
        parse_poly("a / b", ABC)


@pytest.mark.parametrize("text, value", [
    (" a + b ", "a + b"),
    ("a\n+ b", "a + b"),
    ("-a^2", "-(a^2)"),
    ("a--b", "a + b"),
    ("+a", "a"),
    ("a/(b-b+2)", "a/2"),
    ("x2^0", "1"),
    ("a^(2)", "a^2"),
    ("1 + ", None), ("(x2", None), ("abs(x2)", None), ("x9", None), ("a**2", None),
    ("0x10", None), ("1_000", None), ("1.5", None), ("1e3", None), ("True", None),
    ("a.b", None), ("a[0]", None), ("(a)(b)", None), ("a)+(b", None), ("2a", None),
    ("a b", None), ("a^-1", None), ("1/0", None), ("a / b", None), ("\u00b2", None),
    ("a^2^3", None),  # write a power of a power as (a^2)^3
    pytest.param("-" * 2000 + "a", None, id="signs-2000"),
    pytest.param("-" * 20000 + "a", None, id="signs-20000"),
])
def test_parse_grammar(text, value):
    variables = ("a", "b", "x2")
    if value is None:
        with pytest.raises(ExprError):
            parse_poly(text, variables)
    else:
        assert parse_poly(text, variables) == parse_poly(value, variables)


def test_substitute_cleared_matches_rational_evaluation():
    variables = ("a", "b", "c")
    p = parse_poly("a^2*c + b*c - a + 2", variables)
    num = parse_poly("b*c", variables)
    den = parse_poly("b + c - 1", variables)
    cleared, d = p.substitute_cleared("a", num, den)
    assert d == 2
    # oracle: plain Fraction arithmetic at sample points
    for b in range(1, 5):
        for c in range(1, 5):
            a_val = Fraction(b * c, b + c - 1)
            pt = {"a": a_val, "b": b, "c": c}
            denv = Fraction(b + c - 1)
            assert cleared.eval({"a": 0, "b": b, "c": c}) == p.eval(pt) * denv ** d


def test_shift_certificate():
    variables = ("a", "b", "e")
    # b*(b-1) + e*(a-1) + b*e is strictly positive for a,b,e >= 1
    p = parse_poly("b^2 + b*(e-1) + (a-1)*e", variables)
    shifted = p.shifted_by_one()
    assert all(c > 0 for c in shifted.terms.values())
    assert shifted.terms.get((0, 0, 0), 0) > 0


def shifted_by_substitution(p):
    return substitute(p, {v: MultiPoly.var(p.vars, v) + MultiPoly.const(p.vars, 1)
                          for v in p.vars})


@given(int_polys)
def test_shift_is_substitution_int(p):
    assert p.shifted_by_one() == shifted_by_substitution(p)


@given(polys)
def test_shift_is_substitution_fraction(p):
    assert p.shifted_by_one() == shifted_by_substitution(p)


def test_format_graded_lex():
    p = parse_poly("b - a^2 + 3", ABC)
    assert p.format() == "-a^2 + b + 3"
    assert MultiPoly.zero(ABC).format() == "0"


# --- integral coefficients are ints, the rest Fractions ----------------------

def through_halves(p: MultiPoly) -> MultiPoly:
    """``p`` rebuilt from true-Fraction coefficients: halved, then doubled."""
    half = p.scale(Fraction(1, 2))
    return half + half


@given(int_polys, int_polys)
def test_int_and_fraction_coefficients_agree(p, q):
    for a, b in ((p, through_halves(p)), (p * q, through_halves(p) * through_halves(q)),
                 (p + q.scale(3), through_halves(p) + through_halves(q).scale(Fraction(3)))):
        assert a == b
        assert hash(a) == hash(b)
        assert a.format() == b.format()


@given(polys, polys)
def test_results_hold_no_zero_coefficients(p, q):
    assert (p - p).terms == {}
    assert (p + (-p)).terms == {}
    assert all(c != 0 for c in (p * q).terms.values())
    assert all(c != 0 for c in (p + q).terms.values())


def all_int(p: MultiPoly) -> bool:
    return all(type(c) is int for c in p.terms.values())


def normalised(p: MultiPoly) -> bool:
    """Every integral coefficient an int, every other one a Fraction."""
    return all(type(c) is (int if c == int(c) else Fraction) for c in p.terms.values())


def test_integral_coefficients_are_stored_as_int():
    half = MultiPoly.var(ABC, "a").scale(Fraction(1, 2))
    for p in (MultiPoly.const(ABC, 3), MultiPoly.const(ABC, Fraction(6, 2)),
              MultiPoly.var(ABC, "b"), parse_poly("6/3", ABC), parse_poly("a/2 + a/2", ABC),
              half.scale(2), parse_poly("n^2/2 + n^2/2", ("n",))):
        assert p and all_int(p), p
    assert half.terms == {(1, 0, 0): Fraction(1, 2)}
    assert type(half.terms[(1, 0, 0)]) is Fraction
    assert type(parse_poly("a/2 + b", ABC).terms[(1, 0, 0)]) is Fraction
    # the power sums S_m = 0^m + ... + (n - 1)^m for m = 1..3 have only true
    # fractions, and D * S_m, D = lcm of their denominators, only ints
    for text in ("n^2/2 - n/2", "n^3/3 - n^2/2 + n/6", "n^4/4 - n^3/2 + n^2/4"):
        s = parse_poly(text, ("n",))
        assert normalised(s) and not any(type(c) is int for c in s.terms.values())
        assert all_int(s.scale(lcm(*(c.denominator for c in s.terms.values()))))


@given(int_polys, int_polys)
@example(MultiPoly(ABC, {(1, 2, 0): 3}), MultiPoly.zero(ABC))
def test_fraction_with_denominator_one_is_its_int(p, q):
    # built from Fraction(c) coefficients, a polynomial and its sums and
    # products store only ints and equal the int-built ones
    fp, fq = (MultiPoly(ABC, {m: Fraction(c) for m, c in x.terms.items()}) for x in (p, q))
    for built, ints in ((fp, p), (fp * fq, p * q), (fp + fq.scale(Fraction(3)), p + q.scale(3)),
                        (fp - fq, p - q)):
        assert all_int(built), built
        assert built == ints and hash(built) == hash(ints) and built.format() == ints.format()


def test_symbolic_set_up_has_no_integral_fraction():
    from twistknots.casework import symbolic_case

    for family, signs in (("7_6", "++-+-"), ("10_58", "+-+-+"), ("8_12", "-++-+")):
        sym = symbolic_case(family, signs)
        polys = [sym.leading, sym.a2, *sym.derivs, *(e for row in sym.template.rows for e in row)]
        for p in polys:
            assert not any(type(c) is Fraction and c.denominator == 1
                           for c in p.terms.values()), (family, signs, p)
        assert all(all_int(p) for p in polys[:2])   # det and Conway: integer matrices


def test_arity_is_checked():
    with pytest.raises(ValueError):
        MultiPoly(ABC, {(1, 0): 1})


@given(st.dictionaries(st.integers(min_value=0, max_value=6),
                       st.fractions(min_value=-5, max_value=5), max_size=5),
       st.one_of(st.integers(min_value=-4, max_value=4), st.fractions(min_value=-3, max_value=3)))
@example({0: -1, 1: 1, 2: Fraction(-1, 2), 5: 3}, Fraction(2, 3))
def test_one_printer_for_both_polynomial_kinds(coeffs, k):
    """A polynomial in t with integral powers >= 0 prints the same text as a
    ``MultiPoly`` and as a ``HalfLaurent``, and left scaling is ``scale``."""
    p = MultiPoly(("t",), {(d,): c for d, c in coeffs.items()})
    assert p.format() == HalfLaurent({2 * d: c for d, c in coeffs.items()}).format()
    assert k * p == p.scale(k)
