import hashlib
import random
import re
from itertools import product
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import equal_up_to_unit, instantiate_by_eval, mirror
from twistknots.families import (
    FamilyError,
    assemble_jones,
    load_family,
    parse_family_file,
    symbolic_derivs,
)
from twistknots.laurent import HalfLaurent
from twistknots.multipoly import ExprError, MultiPoly, parse_poly
from twistknots import seifert
from twistknots.seifert import (
    SeifertError,
    SeifertTemplate,
    _delta,
    _packed_delta,
    alexander_poly,
    conway_poly,
    conway_symbolic,
    leading_coeff_symbolic,
    template_for,
)

V5 = ("a", "b", "c", "d", "e")

sign_tuples = st.tuples(*[st.sampled_from((1, -1))] * 5)
twist_tuples = st.tuples(*[st.integers(min_value=1, max_value=4)] * 5)


def test_template_7_6_entries():
    tpl = template_for("7_6", (1, 1, 1, 1, 1))
    assert tpl.rows[0][0] == parse_poly("-a - b + 1", V5)
    assert tpl.rows[1][0] == parse_poly("-a + 1", V5)
    assert tpl.rows[0][1] == parse_poly("-a", V5)
    assert tpl.rows[2][3] == MultiPoly.const(V5, 1)
    # the (2,2) entry pairs bands 1 and 3
    assert tpl.rows[1][1] == parse_poly("-a - c + 1", V5)


def test_template_7_6_signed_entries():
    tpl = template_for("7_6", (-1, 1, -1, 1, -1))
    assert tpl.rows[0][0] == parse_poly("a - b", V5)       # -(s1(2a-1)+s2(2b-1))/2
    assert tpl.rows[1][1] == parse_poly("a + c - 1", V5)
    assert tpl.rows[3][3] == parse_poly("e", V5)           # -s5 t5 with s5 = -1


def test_template_10_58_entries():
    tpl = template_for("10_58", (1, 1, 1, 1, 1))
    assert tpl.rows[0][1] == parse_poly("a", V5)
    assert tpl.rows[0][0] == parse_poly("-a - e", V5)
    assert tpl.rows[2][3] == MultiPoly.zero(V5)
    assert tpl.rows[0][2] == MultiPoly.const(V5, 1)


def test_template_8_12_entries():
    tpl = template_for("8_12", (1, 1, 1, 1, 1))
    assert tpl.rows[0][0] == parse_poly("-a", ("a", "b", "c", "d"))


def test_template_for_unknown_family():
    # a bad family name is bad input (exit 2), not a failed verification
    with pytest.raises(FamilyError, match="unknown family"):
        template_for("3_1", (1, 1, 1, 1, 1))


def test_8_12_ignores_frozen_band_sign():
    # band 5 of 8_12 is frozen: n5 = 0 whatever its sign
    for signs in product((1, -1), repeat=4):
        assert template_for("8_12", signs + (1,)) == template_for("8_12", signs + (-1,))


def test_leading_terms_match_published_cases():
    assert leading_coeff_symbolic(template_for("7_6", (1,) * 5)) == parse_poly(
        "((b-1)*(c-1) + a*(b+c-1))*d*e", V5)
    assert leading_coeff_symbolic(template_for("7_6", (1, 1, -1, 1, 1))) == parse_poly(
        "(a*b - c*(a+b-1))*d*e", V5)
    assert leading_coeff_symbolic(template_for("10_58", (1,) * 5)) == parse_poly(
        "(a*d + a*e + d*e)*b*c", V5)


def test_8_12_leading_is_single_monomial():
    for signs in product((1, -1), repeat=4):
        lead = leading_coeff_symbolic(template_for("8_12", signs + (1,)))
        assert len(lead.terms) == 1
        (mono, coeff), = lead.terms.items()
        assert mono == (1, 1, 1, 1)
        assert coeff in (1, -1)


def test_alexander_unknot_exception_is_unit():
    tpl = template_for("7_6", (1, 1, -1, 1, -1))
    delta = alexander_poly(tpl, (1, 2, 1, 1, 1))
    assert equal_up_to_unit(delta, HalfLaurent.one())


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["7_6", "10_58"]), sign_tuples, twist_tuples)
def test_alexander_properties(name, signs, n):
    tpl = template_for(name, signs)
    delta = alexander_poly(tpl, n)
    assert delta.eval_at_one() in (1, -1)
    assert equal_up_to_unit(delta, mirror(delta))  # palindromic up to units


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["7_6", "10_58"]), sign_tuples, twist_tuples)
def test_conway_normalization(name, signs, n):
    series = conway_poly(template_for(name, signs), n)
    assert series.a0 == 1
    assert series.a6 == 0  # genus 2
    fields = (series.a0, series.a2, series.a4, series.a6)
    assert all(type(c) is int for c in fields), fields


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["7_6", "10_58"]), sign_tuples, twist_tuples)
def test_leading_symbolic_matches_top_coefficient(name, signs, n):
    tpl = template_for(name, signs)
    top = alexander_poly(tpl, n).terms.get(8, 0)     # t^4, keyed by the doubled power
    assert leading_coeff_symbolic(tpl).eval(dict(zip(tpl.variables, n))) == top


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["7_6", "10_58", "8_12"]), sign_tuples, twist_tuples)
def test_cross_identity_second_derivative(name, signs, n):
    fam = load_family(name)
    spec = fam.with_signs("".join("+" if s > 0 else "-" for s in signs))
    n = n[: len(spec.active_bands)]
    series = conway_poly(template_for(name, signs), n)
    d2 = symbolic_derivs(spec, 2)[2].eval(dict(zip(spec.variables, n)))
    assert d2 == -6 * series.a2


def test_conway_symbolic_matches_instances():
    # 7_6 builds its entries by halving the raw twist counts; 8_12 has four variables
    for tpl in [template_for("10_58", (1, 1, -1, 1, -1)),
                template_for("7_6", (1, -1, 1, 1, -1)),
                template_for("8_12", (-1, 1, 1, -1, 1))]:
        sym = conway_symbolic(tpl)
        zero = MultiPoly.zero(tpl.variables)
        for n in [(1, 1, 1, 1, 1), (2, 3, 1, 2, 1)]:
            n = n[: len(tpl.variables)]
            series = conway_poly(tpl, n)
            point = dict(zip(tpl.variables, n))
            assert sym[0].eval(point) == series.a0
            assert sym.get(2, zero).eval(point) == series.a2
            assert sym.get(4, zero).eval(point) == series.a4


def test_symbolic_a4_equals_leading():
    for signs in [(1, 1, 1, 1, 1), (1, -1, 1, -1, 1), (-1, -1, 1, 1, -1)]:
        tpl = template_for("10_58", signs)
        sym = conway_symbolic(tpl)
        assert sym.get(4, MultiPoly.zero(V5)) == leading_coeff_symbolic(tpl)


def test_conway_telescope_is_band_independent():
    """Skein telescope: [Conway(n_i) - Conway(n_i - 1)] / z does not depend on n_i."""
    signs = (1, -1, 1, 1, -1)
    tpl = template_for("10_58", signs)

    def nabla(n):
        s = conway_poly(tpl, n)
        return (s.a0, s.a2, s.a4, s.a6)

    for band in range(5):
        diffs = []
        for v in (2, 3, 4):
            n_hi = tuple(v if i == band else 2 for i in range(5))
            n_lo = tuple(v - 1 if i == band else 2 for i in range(5))
            hi, lo = nabla(n_hi), nabla(n_lo)
            # difference must be divisible by z^2 here (even series), constant across v
            delta = tuple(h - l for h, l in zip(hi, lo))
            assert delta[0] == 0
            diffs.append(delta)
        assert diffs[0] == diffs[1] == diffs[2]


def test_alexander_rejects_bad_matrix():
    # S_13 one more than the template's: the Pfaffian of S - S^T goes from -1
    # to -2, so Delta(1) = det(S - S^T) from 1 to 4
    tpl = template_for("10_58", (1, 1, 1, 1, 1))
    row = tpl.entries[0]
    const, linear = row[2]
    bad = tpl._replace(entries=(row[:2] + ((const + 1, linear),) + row[3:],) + tpl.entries[1:])
    with pytest.raises(SeifertError, match="not a unit"):
        alexander_poly(bad, (1, 1, 1, 1, 1))


def _one_band(monkeypatch, parity: str, entry: str):
    """A one-band family whose Seifert matrix is ((entry, 1), (0, 0)), in place
    of every family ``template_for`` loads."""
    fam = parse_family_file(f"family x\nband 1 {parity}\nbase count\norder 1\n"
                            f"count 0 -> 1\ncount 1 -> 1\nseifert {entry}, 1\nseifert 0, 0\n"
                            f"disk 1:0:0\ndisk 1:1:1\n")
    monkeypatch.setattr(seifert, "load_family", lambda name: fam)


def test_instantiate_rejects_half_integer_entry(monkeypatch):
    # a true fraction left by the band rule is refused with the template,
    # before any instance, not rounded; n1/2 is an integer on an even band
    _one_band(monkeypatch, "odd", "n1/2")
    with pytest.raises(FamilyError, match="non-integer Seifert entry"):
        template_for("x", "+")
    _one_band(monkeypatch, "even", "n1/2")
    tpl = template_for("x", "+")
    assert tpl.instantiate((2,)) == ((2, 1), (0, 0))
    assert type(tpl.instantiate((2,))[0][0]) is int


@pytest.mark.parametrize("signs, entry", [("+", "-a + 1/2"), ("-", "a - 1/2")])
def test_template_for_refuses_a_fraction_on_an_odd_band(monkeypatch, signs, entry):
    # -n1/2 with n1 = s (2a - 1) is -s a + s/2, not an integer at any a
    _one_band(monkeypatch, "odd", "-n1/2")
    with pytest.raises(FamilyError, match=re.escape(
            f"non-integer Seifert entry {entry} in x[{signs}]")):
        template_for("x", signs)


def test_instantiate_rejects_entry_that_is_not_affine():
    # the one affine reader refuses a term of degree 2, so such an entry
    # never reaches a template: its family file does not load
    square = MultiPoly(("a",), {(2,): 1})
    with pytest.raises(ExprError, match="not affine"):
        square.affine()
    with pytest.raises(FamilyError, match="not affine"):
        parse_family_file("family x\nband 1 odd\nbase count\norder 1\ncount 0 -> 1\n"
                          "count 1 -> 1\nseifert n1^2, 1\nseifert 0, 0\n")


def _instances():
    """(template, twists) over every sign case of the three families: two
    random twist vectors in [1..30], and all twists 200 and all 10^6."""
    rng = random.Random(28)
    for name in ("7_6", "10_58", "8_12"):
        for signs in ("".join(p) for p in product("+-", repeat=5)):
            tpl = template_for(name, signs)
            k = len(tpl.variables)
            for n in ([tuple(rng.randint(1, 30) for _ in range(k)) for _ in range(2)]
                      + [(200,) * k, (10 ** 6,) * k]):
                yield name, signs, tpl, n


def test_instantiate_and_packed_delta_match_references():
    # the affine dot products against the family file's entries by
    # MultiPoly.eval, and the one packed integer determinant against Delta
    # over HalfLaurent entries
    for name, signs, tpl, n in _instances():
        matrix = tpl.instantiate(n)
        assert matrix == instantiate_by_eval(name, signs, n), (name, signs, n)
        assert all(type(v) is int for row in matrix for v in row)
        assert alexander_poly(tpl, n) == _delta(matrix), (tpl.rows, n)


def _bound(rows) -> int:
    """prod_i sum_j (|S_ij| + |S_ji|)."""
    size = len(rows)
    return prod(sum(abs(rows[i][j]) + abs(rows[j][i]) for j in range(size)) for i in range(size))


@pytest.mark.parametrize("rows", [
    # the t^2 coefficient is 1 - 4e-5 times the bound, and three of the five
    # coefficients are negative
    ((0, -10 ** 6, 0, 0), (-2, 0, 0, 0), (0, 0, -8, -7), (0, 0, 10 ** 6, 0)),
    # every entry +-10^6: (-16, 64, -96, 64, -16) * 10^24
    ((-10 ** 6, 10 ** 6, 10 ** 6, -10 ** 6), (10 ** 6, -10 ** 6, 10 ** 6, -10 ** 6),
     (10 ** 6, 10 ** 6, -10 ** 6, -10 ** 6), (-10 ** 6, -10 ** 6, -10 ** 6, -10 ** 6)),
    # the t^2 coefficient is the bound itself
    ((0, -10 ** 6, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 10 ** 6, 0)),
    # a bound of 0: row and column 3 are 0, and so is Delta
    ((5, -10 ** 6, 0, 0), (3, 10 ** 6, 7, 0), (0, 0, -10 ** 6, 0), (0, 0, 0, 0)),
], ids=["near_bound", "dense", "at_bound", "zero"])
def test_packed_delta_near_its_coefficient_bound(rows):
    expected = _delta(rows)
    assert _packed_delta(rows) == expected
    assert max(map(abs, expected.terms.values()), default=0) >= _bound(rows) // 50


def test_unit_check_survives_packing(monkeypatch):
    # Delta(1) = det(S - S^T) is the square of a Pfaffian, so an honest matrix
    # gives 0 or 4 but never 2; a packed determinant off by one in its t^0
    # digit turns the unit Delta(1) = 1 of a knot into 2
    for rows in (((0, 2), (0, 0)), ((1, 1), (1, 1))):
        const = tuple(tuple((v, ()) for v in row) for row in rows)
        with pytest.raises(SeifertError, match="not a unit"):
            alexander_poly(SeifertTemplate((), const), ())
    tpl, n = template_for("7_6", "++-+-"), (1, 2, 1, 3, 2)
    assert alexander_poly(tpl, n).eval_at_one() == 1
    det = seifert._det
    monkeypatch.setattr(seifert, "_det", lambda rows, zero: det(rows, zero) + (len(rows) == 4))
    with pytest.raises(SeifertError, match="Alexander value at 1 is 2, not a unit"):
        alexander_poly(tpl, n)


def _at_minus_one(poly: HalfLaurent) -> int:
    """The value at t = -1 of a polynomial in integral powers of t."""
    return sum(c * (-1) ** (e // 2 % 2) for e, c in poly.terms.items())


def test_determinant_matches_jones_at_minus_one():
    # |V(-1)| = |Delta(-1)| is the knot determinant, so this ties the engine to
    # the whole Seifert matrix, where V''(1) = -6 a2 ties it to one coefficient
    rng = random.Random(6)
    for name in ("7_6", "10_58", "8_12"):
        fam = load_family(name)
        for signs in ("".join(p) for p in product("+-", repeat=5)):
            spec, tpl = fam.with_signs(signs), template_for(name, signs)
            for _ in range(3):
                n = tuple(rng.randint(1, 30) for _ in spec.variables)
                assert (abs(_at_minus_one(assemble_jones(spec, n)))
                        == abs(_at_minus_one(alexander_poly(tpl, n)))), (name, signs, n)


# sha256 over the 96 (family, sign case) pairs, families 7_6, 10_58, 8_12 and
# sign cases in the order of product("+-", repeat=5), of "d:" plus ``format()``
# of each conway_symbolic coefficient in order of d, of leading_coeff_symbolic
# as ``format()`` text, and, at two twist vectors drawn from random.Random(24)
# with entries in 1..9, of alexander_poly(...).format() and the four
# conway_poly fields, each plus a newline; recorded from the lifted-ring
# determinant that the one Delta routine replaced
SEIFERT_SHA256 = "238109474e56cb3be20eb4ee534fc09c5357c8ec1f3caf2c2f666fa49a3f3ec2"


def test_seifert_digest():
    digest = hashlib.sha256()
    rng = random.Random(24)
    for name in ("7_6", "10_58", "8_12"):
        for signs in ("".join(p) for p in product("+-", repeat=5)):
            tpl = template_for(name, signs)
            cz = conway_symbolic(tpl)
            texts = [f"{d}:{cz[d].format()}" for d in sorted(cz)]
            texts.append(leading_coeff_symbolic(tpl).format())
            for _ in range(2):
                n = tuple(rng.randint(1, 9) for _ in tpl.variables)
                series = conway_poly(tpl, n)
                texts.append(alexander_poly(tpl, n).format())
                texts += [str(c) for c in (series.a0, series.a2, series.a4, series.a6)]
            for text in texts:
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == SEIFERT_SHA256
