from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from twistknots.families import assemble_jones, load_family, symbolic_derivs
from twistknots.laurent import HalfLaurent
from twistknots.multipoly import MultiPoly, parse_poly
from twistknots.seifert import (
    SeifertError,
    alexander_coeffs,
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
    with pytest.raises(SeifertError, match="no Seifert template"):
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
    assert delta.equal_up_to_unit(HalfLaurent.one())


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["7_6", "10_58"]), sign_tuples, twist_tuples)
def test_alexander_properties(name, signs, n):
    tpl = template_for(name, signs)
    delta = alexander_poly(tpl, n)
    assert delta.eval_at_one() in (1, -1)
    assert delta.equal_up_to_unit(delta.mirror())  # palindromic up to units


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["7_6", "10_58"]), sign_tuples, twist_tuples)
def test_conway_normalization(name, signs, n):
    series = conway_poly(template_for(name, signs), n)
    assert series.a0 == 1
    assert series.a6 == 0  # genus 2


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["7_6", "10_58"]), sign_tuples, twist_tuples)
def test_leading_symbolic_matches_top_coefficient(name, signs, n):
    tpl = template_for(name, signs)
    coeffs = alexander_coeffs(tpl, n)
    top = coeffs.get(4, 0)
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
    tpl = template_for("10_58", (1, 1, 1, 1, 1))
    broken = tpl.rows[0][0] + MultiPoly.const(V5, Fraction(1, 2))
    rows = ((broken,) + tpl.rows[0][1:],) + tpl.rows[1:]
    import dataclasses
    bad = dataclasses.replace(tpl, rows=rows)
    with pytest.raises(SeifertError):
        alexander_poly(bad, (1, 1, 1, 1, 1))
