from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from helpers import FiniteTypeInvariants, finite_type, h_coeffs, ito_residual, shift
from twistknots.laurent import HalfLaurent
from twistknots.obstruction import Root5Verdict, cosmetic_gate, root5_gate
from twistknots.seifert import ConwaySeries

HL = HalfLaurent
F = Fraction

TRIVIAL = ConwaySeries(F(1), F(0), F(0), F(0))


def test_h_coeffs_constant():
    assert h_coeffs(HL.one()) == (1, 0, 0, 0, 0, 0, 0)


def test_h_coeffs_t_squared():
    js = h_coeffs(HL({4: 1}))
    assert js[4] == F(2, 3)  # 2^4 / 4!
    assert js[0] == 1 and js[1] == 2


def test_h_coeffs_t():
    js = h_coeffs(HL({2: 1}))
    assert [js[n] for n in range(7)] == [F(1, k) for k in
                                         (1, 1, 2, 6, 24, 120, 720)]


knot_polys = st.dictionaries(
    st.integers(min_value=-5, max_value=5).map(lambda e: 2 * e),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(HL)


def gate_j4(p):
    """j4 as ``cosmetic_gate`` records it from p's derivatives at 1."""
    return cosmetic_gate(p, p.derivs_at_one(4), TRIVIAL, 0).j4


@given(knot_polys)
def test_h_coeffs_routes_agree(p):
    j4 = gate_j4(p)
    assert j4 == h_coeffs(p, 4)[4]
    # int derivatives sum in ints: j4 is an int exactly where 24 divides the sum
    assert type(j4) is (int if j4.denominator == 1 else Fraction)


fraction_knot_polys = st.dictionaries(
    st.integers(min_value=-5, max_value=5).map(lambda e: 2 * e),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    max_size=5,
).map(HL)

half_polys = st.dictionaries(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(HL)


@given(fraction_knot_polys)
def test_h_coeffs_routes_agree_on_fraction_coefficients(p):
    assert gate_j4(p) == h_coeffs(p, 4)[4]


@given(half_polys)
def test_h_coeffs_routes_agree_on_half_exponents(p):
    # p(e^h) = q(e^(h/2)) with q(t) = p(t^2), knot-valued, so j4(p) = j4(q) / 2^4
    q = HL({2 * e: c for e, c in p.terms.items()})
    assert gate_j4(p) == h_coeffs(q, 4)[4] / 2 ** 4


def test_j_invariants_of_knots():
    # every family instance has j0 = 1 and j1 = 0; check on a small sample here
    from twistknots.families import assemble_jones, load_family
    fam = load_family("10_58")
    v = assemble_jones(fam.with_signs("+-+-+"), (1, 2, 1, 1, 2))
    js = h_coeffs(v)
    assert js[0] == 1 and js[1] == 0


def test_finite_type_trivial_conway_reduction():
    ft = finite_type(0, 0, 0, 96)
    assert (ft.v4, ft.w4, ft.v6) == (0, 1, 0)
    assert finite_type(0, 0, 0, 0) == finite_type(0, 0, 0, 0)
    ft0 = finite_type(0, 0, 0, 0)
    assert (ft0.v4, ft0.w4, ft0.v6) == (0, 0, 0)


def test_finite_type_printed_formula():
    ft = finite_type(1, 0, 0, 0)
    assert ft.v4 == F(-1, 24) + F(1, 4)  # 5/24
    assert ft.w4 == F(-9, 2)
    assert ft.v6 == F(-1, 720) + F(1, 24) - F(1, 6)


def test_ito_residual_slope_two():
    # at slope 2 with trivial Conway the residual collapses to j4
    for j4 in (F(0), F(96), F(-7, 3)):
        ft = finite_type(0, 0, 0, j4)
        assert ito_residual(2, 1, ft) == j4


def test_ito_residual_examples():
    assert ito_residual(2, 1, FiniteTypeInvariants(F(0), F(0), F(0))) == 0
    assert ito_residual(2, 1, FiniteTypeInvariants(F(1), F(0), F(0))) == -10


def test_ito_residual_requires_coprime():
    with pytest.raises(ValueError):
        ito_residual(2, 2, FiniteTypeInvariants(F(0), F(0), F(0)))


def test_root5_gate():
    assert root5_gate(HL.one()) is Root5Verdict.INCONCLUSIVE
    assert root5_gate(HL({20: 1})) is Root5Verdict.INCONCLUSIVE  # t^10
    assert root5_gate(HL({2: 1})) is Root5Verdict.EXCLUDES


@given(st.integers(min_value=-3, max_value=3))
def test_root5_gate_unit_invariance(k):
    v = HL({4: -1, 2: 1, 0: 1})
    shifted = shift(v, 10 * k)  # multiply by t^(5k)
    assert root5_gate(shifted) is root5_gate(v)


def _derivs(*vals):
    return [F(v) for v in vals]


def test_cosmetic_gate_order():
    v = cosmetic_gate(HL.one(), _derivs(1, 0, 5, 7, 9), TRIVIAL, 3)
    assert v.classification == "EXCLUDED(alexander_leading)"
    v = cosmetic_gate(HL.one(), _derivs(1, 0, -6, 0, 0), ConwaySeries(F(1), F(1), F(0), F(0)), 0)
    assert v.classification == "EXCLUDED(conway)"
    v = cosmetic_gate(HL.one(), _derivs(1, 0, 0, 4, 0), TRIVIAL, 0)
    assert v.classification == "EXCLUDED(d3)"
    v = cosmetic_gate(HL.one(), _derivs(1, 0, 0, 0, 24), TRIVIAL, 0)
    assert v.classification == "EXCLUDED(d4)"
    assert v.j4 == 1
    v = cosmetic_gate(HL.one(), _derivs(1, 0, 0, 0, 0), TRIVIAL, 0)
    assert v.classification == "EXCEPTION"
    assert v.is_exception


def test_cosmetic_gate_root5():
    v = cosmetic_gate(HL({2: 1, 0: 1, -2: -1}), _derivs(1, 0, 0, 0, 0), TRIVIAL, 0,
                      use_root5=True)
    assert v.classification == "EXCLUDED(root5)"
    v = cosmetic_gate(HL.one(), _derivs(1, 0, 0, 0, 0), TRIVIAL, 0, use_root5=True)
    assert v.classification == "EXCEPTION"
