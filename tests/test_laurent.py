import cmath
from fractions import Fraction
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import given

from helpers import equal_up_to_unit, falling_factorial, mirror, shift
from twistknots.families import assemble_jones, load_family
from twistknots.laurent import HalfLaurent

HL = HalfLaurent


def P(d):
    return HL(d)


small_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(P)

knot_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4).map(lambda e: 2 * e),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(P)


def test_mul_difference_of_squares():
    a = P({1: 1, -1: -1})   # t^(1/2) - t^(-1/2)
    b = P({1: 1, -1: 1})    # t^(1/2) + t^(-1/2)
    assert a * b == P({2: 1, -2: -1})


def test_mul_identity():
    p = P({3: 2, -1: 5, 0: -4})
    assert HL.one() * p == p


def test_mul_square():
    p = P({0: 1, 4: 1})  # 1 + t^2
    assert p * p == P({0: 1, 4: 2, 8: 1})


def test_derivs_at_one_monomial():
    assert P({4: 1}).derivs_at_one(4) == [1, 2, 2, 0, 0]


def test_derivs_at_one_half_power():
    assert P({1: 1}).derivs_at_one(1)[1] == Fraction(1, 2)


def test_derivs_at_one_order_bounds():
    p = P({4: 1, -2: 3})
    assert p.derivs_at_one(0) == [4]
    assert len(p.derivs_at_one(8)) == 9
    for kmax in (-1, 9):
        with pytest.raises(ValueError):
            p.derivs_at_one(kmax)


def test_derivs_at_one_value():
    assert P({1: -1, -1: -1}).derivs_at_one(0)[0] == -2


def test_mirror():
    assert mirror(P({2: 1, -2: -1})) == P({-2: 1, 2: -1})
    assert mirror(HL.one()) == HL.one()


@given(small_polys)
def test_mirror_involution(p):
    assert mirror(mirror(p)) == p


def test_eval_root5_trivial():
    assert HL.one().eval_root5() == (1, 0, 0, 0)
    assert P({10: 1}).eval_root5() == (1, 0, 0, 0)  # t^5 -> 1
    assert P({8: 1}).eval_root5() == (-1, -1, -1, -1)  # t^4


@given(knot_polys, st.integers(min_value=-3, max_value=3))
def test_eval_root5_period_five(p, k):
    assert shift(p, 10 * k).eval_root5() == p.eval_root5()  # times t^(5k)


def test_eval_root5_rejects_half_powers():
    try:
        P({1: 1}).eval_root5()
    except ValueError:
        pass
    else:
        raise AssertionError("expected rejection of half-integral exponents")


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


@given(small_polys, small_polys)
def test_derivs_linear(p, q):
    dp = p.derivs_at_one(4)
    dq = q.derivs_at_one(4)
    dsum = (p + q).derivs_at_one(4)
    assert dsum == [a + b for a, b in zip(dp, dq)]


@given(small_polys, small_polys)
def test_mirror_is_ring_map(p, q):
    assert mirror(p * q) == mirror(p) * mirror(q)
    assert mirror(p + q) == mirror(p) + mirror(q)


ZETA = cmath.exp(2j * cmath.pi / 5)


def at_zeta(coords):
    """The complex number with coordinates ``coords`` in the basis 1, zeta, zeta^2, zeta^3."""
    return sum(c * ZETA ** k for k, c in enumerate(coords))


@given(knot_polys, knot_polys)
def test_root5_multiplicative(p, q):
    direct = sum(c * ZETA ** (e // 2) for e, c in p.terms.items())
    assert abs(at_zeta(p.eval_root5()) - direct) < 1e-6
    product = at_zeta(p.eval_root5()) * at_zeta(q.eval_root5())
    assert abs(at_zeta((p * q).eval_root5()) - product) < 1e-6


@given(st.dictionaries(st.integers(min_value=-60, max_value=60),
                       st.integers(min_value=-99, max_value=99), max_size=12).map(P),
       st.integers(min_value=0, max_value=8))
def test_derivs_at_one_is_falling_factorial_sum(p, kmax):
    """d^k/dt^k at 1 is the sum of c * ff(e/2, k) over the terms c t^(e/2)."""
    expected = [sum((c * falling_factorial(Fraction(e, 2), k) for e, c in p.terms.items()),
                    Fraction(0)) for k in range(kmax + 1)]
    derivs = p.derivs_at_one(kmax)
    assert derivs == expected
    # an int where 2^k divides the integer sum, a Fraction otherwise
    assert all(type(d) is (int if d.denominator == 1 else Fraction) for d in derivs)


@pytest.mark.parametrize("family, signs, twists", [
    ("7_6", "++-+-", (1, 1, 1, 1, 1)),
    ("7_6", "++-+-", (3, 1, 4, 1, 5)),
    ("7_6", "-+--+", (12, 2, 7, 1, 9)),
    ("10_58", "+-+-+", (1, 2, 1, 1, 2)),
    ("10_58", "--++-", (8, 3, 11, 5, 2)),
])
def test_derivs_at_one_of_a_knot_are_ints(family, signs, twists):
    jones = assemble_jones(load_family(family).with_signs(signs), twists)
    for k, d in enumerate(jones.derivs_at_one(8)):
        total = sum(c * prod(e - 2 * r for r in range(k)) for e, c in jones.terms.items())
        assert type(d) is int and d == Fraction(total, 2 ** k), (k, d)


def test_falling_factorial():
    assert falling_factorial(Fraction(5, 2), 0) == 1
    assert falling_factorial(Fraction(5, 2), 2) == Fraction(15, 4)
    assert falling_factorial(Fraction(3), 4) == 0


def test_format_canonical():
    assert P({5: -1, 1: -1}).format() == "-t^(5/2) - t^(1/2)"
    assert P({0: 1}).format() == "1"
    assert P({2: 1, -2: -1}).format() == "t - t^(-1)"
    assert P({4: 3, -3: 1}).format() == "3*t^2 + t^(-3/2)"
    assert HL.zero().format() == "0"


def test_equal_up_to_unit():
    p = P({0: 1, 2: -3, 4: 1})
    assert equal_up_to_unit(p, shift(p, 6))
    assert equal_up_to_unit(p, shift(-p, -4))
    assert not equal_up_to_unit(p, p + HL.one())


# --- coefficients are ints or Fractions, never normalised twice --------------

def as_fractions(p):
    return HL({e: Fraction(c) for e, c in p.terms.items()})


@given(small_polys, small_polys)
def test_int_and_fraction_coefficients_agree(p, q):
    for a, b in ((p, as_fractions(p)), (p * q, as_fractions(p) * as_fractions(q)),
                 (p + q.scale(3), as_fractions(p) + as_fractions(q).scale(Fraction(3)))):
        assert a == b
        assert hash(a) == hash(b)
        assert a.format() == b.format()


@given(small_polys, small_polys)
def test_results_hold_no_zero_coefficients(p, q):
    assert (p - p).terms == {}
    assert (p + (-p)).terms == {}
    assert all(c != 0 for c in (p * q).terms.values())
    assert all(c != 0 for c in (p + q).terms.values())
