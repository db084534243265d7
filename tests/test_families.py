import hashlib
import random
import re
from fractions import Fraction
from itertools import product
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import family_text, mirror, mirrored, prefactor, reference_assemble, shift
from twistknots import families
from twistknots.diagrams import band_crossings, crosscheck, load_template
from twistknots.families import (
    FamilyError,
    assemble_jones,
    base_case_jones,
    check_twists,
    jones_derivs,
    load_family,
    parse_family_file,
    parse_signs,
    symbolic_derivs,
    xn_jones,
)
from twistknots.laurent import HalfLaurent, unlink_factor
from twistknots.multipoly import MultiPoly, parse_poly
from twistknots.seifert import alexander_poly, conway_poly, template_for

HL = HalfLaurent
DELTA = unlink_factor()   # -(t^(1/2) + t^(-1/2))

SEVEN = load_family("7_6")
TEN = load_family("10_58")
EIGHT = load_family("8_12")
FAMILIES = {"7_6": SEVEN, "10_58": TEN, "8_12": EIGHT}
ALL_SIGNS = ["".join(c) for c in product("+-", repeat=5)]


# --- prefactors --------------------------------------------------------------

def test_prefactor_retained():
    assert prefactor(+1, 1, 3) == HL({12: 1})          # t^6
    assert prefactor(-1, 1, 2) == HL({-8: 1})          # t^(-4)


def test_prefactor_resolved_small():
    # n=1 leaves only the twist factor: (s t^s)(t^(1/2) - t^(-1/2))
    assert prefactor(+1, 0, 1) == HL({3: 1, 1: -1})    # t^(3/2) - t^(1/2)
    assert prefactor(-1, 0, 1) == HL({-3: 1, -1: -1})  # t^(-3/2) - t^(-1/2)


def test_prefactor_geometric_growth():
    # n=2 adds one full twist worth of exponent shift
    assert prefactor(+1, 0, 2) == prefactor(+1, 0, 1) + shift(prefactor(+1, 0, 1), 4)


@pytest.mark.parametrize("s", (+1, -1))
@pytest.mark.parametrize("x", (0, 1))
def test_prefactor_deriv_matches_instances(s, x):
    # the interpolated series at twists well past its kmax + 1 nodes, against
    # the reference prefactor differentiated at each twist
    for kmax in range(9):
        den, series = families._prefactor_series(s, kmax)
        for n in range(13):
            derivs = prefactor(s, x, n).derivs_at_one(kmax)
            assert [Fraction(sum(a * n ** e for e, a in series[x][k]) * factorial(k), den)
                    for k in range(kmax + 1)] == derivs, (kmax, n)


# --- two-circle patterns -------------------------------------------------------

def test_xn_base_values():
    assert xn_jones([]) == DELTA
    assert xn_jones([+1]) == HL.one()
    assert xn_jones([-1]) == HL.one()


def test_xn_two_and_three():
    assert xn_jones([+1, +1]) == HL({5: -1, 1: -1})          # positive Hopf link
    assert xn_jones([+1, +1, +1]) == HL({8: -1, 6: 1, 2: 1})  # right trefoil
    assert xn_jones([-1, -1, -1]) == mirror(xn_jones([1, 1, 1]))


def test_xn_cancellation():
    assert xn_jones([+1, -1]) == DELTA
    assert xn_jones([+1, -1, +1]) == HL.one()
    assert xn_jones([0, +1, 0, -1]) == DELTA
    assert xn_jones([+1, +1, -1, -1]) == DELTA
    assert xn_jones([-1, +1, +1]) == HL.one()


def test_xn_recursion_consistency():
    z_up = HL({3: 1, 1: -1})
    for n in range(2, 7):
        lhs = xn_jones([1] * n)
        rhs = HL({4: 1}) * xn_jones([1] * (n - 2)) + z_up * xn_jones([1] * (n - 1))
        assert lhs == rhs


def test_xn_rejects_bad_args():
    with pytest.raises(FamilyError):
        xn_jones([2])


# --- base cases ----------------------------------------------------------------

def test_base_case_7_6_examples():
    spec = SEVEN.with_signs("+++++")
    # all odd bands retained, even bands resolved: mirrored trefoil pattern
    assert base_case_jones(spec, (1, 1, 1, 0, 0)) == xn_jones([-1, -1, -1])
    # band 5 retained splits a connected summand; value is the 2-unlink factor
    assert base_case_jones(spec, (0, 0, 1, 0, 1)) == DELTA
    # only band 4 retained: two-circle pattern plus a disjoint unknot
    assert base_case_jones(spec, (0, 0, 0, 1, 0)) == DELTA * DELTA


def test_base_case_10_58_counts():
    spec = TEN.with_signs("+++++")
    assert base_case_jones(spec, (0, 0, 0, 0, 0)) == DELTA            # 2 unknots
    assert base_case_jones(spec, (1, 1, 1, 1, 1)) == HL.one()         # 1 unknot
    assert base_case_jones(spec, (0, 1, 0, 1, 1)) == HL.one()         # 2-(0-1)^2 = 1


def test_base_case_8_12_uses_retained_fifth_band():
    s8 = EIGHT.with_signs("+++++")
    s10 = TEN.with_signs("+++++")
    for x in product((0, 1), repeat=4):
        assert base_case_jones(s8, x) == base_case_jones(s10, x + (1,))


# --- assembly -------------------------------------------------------------------

def test_unknot_exception_instances():
    spec = SEVEN.with_signs("++-+-")
    for d in (1, 2, 3):
        for e in (1, 2):
            assert assemble_jones(spec, (1, e + 1, 1, d, e)) == HL.one()


def test_assembly_matches_mirror_family():
    spec = SEVEN.with_signs("++-+-")
    flipped = mirrored(spec)
    assert flipped.signs_str() == "--+-+"
    n = (1, 2, 2, 1, 3)
    assert assemble_jones(flipped, n) == mirror(assemble_jones(spec, n))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_specs_hold_their_unfrozen_bands(name):
    """``active_bands`` lists the bands that are not frozen, in order, in every
    spec that ``with_signs`` builds, mirrored specs included."""
    for signs in ALL_SIGNS:
        spec = FAMILIES[name].with_signs(signs)
        for s in (spec, mirrored(spec)):
            assert s.active_bands == tuple(i for i, b in enumerate(s.bands) if not b.frozen)
    assert len(EIGHT.with_signs("+++++").active_bands) == 4


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["7_6", "10_58", "8_12"]),
       st.tuples(*[st.sampled_from("+-")] * 5).map("".join),
       st.tuples(*[st.integers(min_value=1, max_value=3)] * 5))
def test_assembly_properties(name, signs, raw_n):
    fam = load_family(name)
    spec = fam.with_signs(signs)
    n = raw_n[: len(spec.active_bands)]
    v = assemble_jones(spec, n)
    assert v.is_knot_valued()
    assert v.eval_at_one() == 1
    assert v.derivs_at_one(1)[1] == 0
    assert assemble_jones(mirrored(spec), n) == mirror(v)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["7_6", "10_58"]),
       st.tuples(*[st.sampled_from("+-")] * 5).map("".join),
       st.tuples(*[st.integers(min_value=1, max_value=3)] * 5),
       st.integers(min_value=0, max_value=4))
def test_skein_recursion_per_band(name, signs, n, band):
    """Per-band recursion: V(n_i) = t^(2s) V(n_i - 1) + s t^s z Q_resolved."""
    fam = load_family(name)
    spec = fam.with_signs(signs)
    if n[band] < 2:
        n = n[:band] + (n[band] + 1,) + n[band + 1:]
    s = spec.bands[band].sign
    lower = n[:band] + (n[band] - 1,) + n[band + 1:]
    resolved = reference_assemble(spec, n, {band: 0})
    z = HL({1: 1, -1: -1})
    rhs = HL({4 * s: 1}) * assemble_jones(spec, lower) + HL({2 * s: s}) * z * resolved
    assert assemble_jones(spec, n) == rhs


def test_state_split_identity():
    # V = pre(s,1,n)*<retained part> + pre(s,0,n)*<resolved part> for each band
    spec = TEN.with_signs("+-++-")
    n = (2, 1, 2, 1, 1)
    for band in range(5):
        s = spec.bands[band].sign
        retained = reference_assemble(spec, n, {band: 1})
        resolved = reference_assemble(spec, n, {band: 0})
        combined = prefactor(s, 1, n[band]) * retained + prefactor(s, 0, n[band]) * resolved
        assert combined == assemble_jones(spec, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("signs", ALL_SIGNS)
def test_t_form_matches_reference(name, signs):
    """The T-form assembly equals the dense 2^k state sum at a random twist
    vector with entries <= 30."""
    spec = FAMILIES[name].with_signs(signs)
    rng = random.Random(f"{name}{signs}")
    n = tuple(rng.randint(1, 30) for _ in spec.active_bands)
    assert assemble_jones(spec, n) == reference_assemble(spec, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("signs", ALL_SIGNS[::4])
def test_t_form_matches_reference_at_twists_up_to_40(name, signs):
    """As above, on every fourth sign case, at twists in [30..40]."""
    spec = FAMILIES[name].with_signs(signs)
    rng = random.Random(f"{name}{signs}40")
    n = tuple(rng.randint(30, 40) for _ in spec.active_bands)
    assert assemble_jones(spec, n) == reference_assemble(spec, n)


def _with_term(form: tuple, extra) -> tuple:
    """``form``, a ``t_form`` result over five bands, with one more term (e, 1)
    after the last term of its last c_m, e = extra(the exponent of that term),
    packed anew as ``t_form`` packs it."""
    *front, (index, terms) = zip(form[2], form[-1])
    return families._packed_form([*front, (index, terms + ((extra(terms[-1][0]), 1),))], 5)


@pytest.mark.parametrize("extra, error, match", [
    (lambda e: e + 2 - e % 2, AssertionError, r"not divisible by 1 \+ t"),   # an integral power
    (lambda e: e + 1 + e % 2, AssertionError, "not knot-valued"),           # a half-integral one
], ids=["integral", "half_integral"])
def test_assembly_rejects_a_changed_t_form(monkeypatch, extra, error, match):
    spec = SEVEN.with_signs("++-+-")
    original = families.t_form
    # at (1, 2, 1, 3, 2) the packed identity fails and the dense division
    # runs; (1, 2, 1, 1, 1) is a sweep exception, V = 1, where it decides
    for n in [(1, 2, 1, 3, 2), (1, 2, 1, 1, 1)]:
        assert assemble_jones(spec, n) == reference_assemble(spec, n)
        with monkeypatch.context() as patch:
            patch.setattr(families, "t_form", lambda spec: _with_term(original(spec), extra))
            with pytest.raises(error, match=match):
                assemble_jones(spec, n)
    assert assemble_jones(spec, n) == HalfLaurent.one()


def test_check_reports_a_half_integral_assembly_as_failed(monkeypatch, capsys):
    """A T-form that assembles to half-integral powers is a wrong family, so
    ``check`` fails the verification (exit 1); the user's input was valid."""
    from twistknots.cli import main

    original = families.t_form
    monkeypatch.setattr(families, "t_form",
                        lambda spec: _with_term(original(spec), lambda e: e + 1 + e % 2))
    assert main(["check", "--family", "7_6", "--signs", "++-+-", "--twists", "1,2,1,3,2"]) == 1
    assert capsys.readouterr() == (
        "", "verification failed: assembled Jones polynomial is not knot-valued\n")


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_packing_width_bounds_every_coefficient(name):
    """2 B < 2^W in every sign case, B = sum_m L1(c_m) + 2^k: a coefficient of
    sum_m T^m c_m - prod_i (1 + t^(s_i)) stays under half the packing base."""
    for signs in ALL_SIGNS:
        spec = FAMILIES[name].with_signs(signs)
        width, unit, *_, terms = families.t_form(spec)
        k = len(spec.active_bands)
        bound = sum(abs(c) for c_m in terms for _, c in c_m) + 2 ** k
        assert 2 * bound < 2 ** width, (name, signs)
        assert unit == (1 + 2 ** (2 * width)) ** k


def test_jones_derivs_examples():
    spec = SEVEN.with_signs("++-+-")
    jones, derivs = jones_derivs(spec, (1, 2, 1, 1, 1))
    assert jones == HalfLaurent.one()
    assert derivs == [1, 0, 0, 0, 0]
    spec2 = SEVEN.with_signs("++-++")
    jones2, derivs = jones_derivs(spec2, (1, 1, 1, 1, 1))
    assert jones2 == assemble_jones(spec2, (1, 1, 1, 1, 1))
    assert derivs[1] == 0
    assert derivs[2] == -6


def test_symbolic_derivs_match_published_cases():
    V = ("a", "b", "c", "d", "e")
    cases = {
        "++-++": "-6*(a*b - c*(a+b+d-1) + d*(b+e))",
        "+--++": "6*(-b*c + a*(b+c-1) + d*(b+c-e-1))",
    }
    for signs, expr in cases.items():
        sd = symbolic_derivs(SEVEN.with_signs(signs), 2)
        assert not sd[1]
        assert sd[2] == parse_poly(expr, V)


def test_symbolic_first_derivative_vanishes():
    for signs in ("+++++", "+-+-+", "--+--"):
        for fam in (SEVEN, TEN, EIGHT):
            sd = symbolic_derivs(fam.with_signs(signs), 1)
            assert sd[0] == MultiPoly.const(fam.with_signs(signs).variables, 1)
            assert not sd[1]


def test_symbolic_evaluates_to_instance_derivs():
    # 8_12 has a frozen fifth band, so its active bands are not all its bands;
    # 7_6 has odd bands, whose resolved exponents are half-integers
    cases = [
        (TEN.with_signs("++-+-"), [(1, 1, 1, 1, 1), (2, 1, 3, 1, 2)]),
        (SEVEN.with_signs("+-+-+"), [(2, 1, 3, 1, 2)]),
        (EIGHT.with_signs("+-+--"), [(2, 1, 3, 2)]),
    ]
    for spec, vectors in cases:
        sd = symbolic_derivs(spec, 4)
        for n in vectors:
            point = dict(zip(spec.variables, n))
            assert [p.eval(point) for p in sd] == jones_derivs(spec, n)[1]


def test_symbolic_derivs_match_assembly_in_every_case():
    # the state-sum route against the T-form route, at two seeded twist
    # vectors in each of the 96 (family, sign case) pairs
    rng = random.Random(17)
    for fam in FAMILIES.values():
        for signs in ALL_SIGNS:
            spec = fam.with_signs(signs)
            sd = symbolic_derivs(spec, 4)
            for _ in range(2):
                n = tuple(rng.randint(1, 6) for _ in spec.variables)
                point = dict(zip(spec.variables, n))
                assert [p.eval(point) for p in sd] == \
                    assemble_jones(spec, n).derivs_at_one(4), (fam.name, signs, n)


# sha256 over the 96 (family, sign case) pairs, families in the order of
# FAMILIES and sign cases in the order of ALL_SIGNS, of each polynomial of
# symbolic_derivs(spec, 4) as ``format()`` text plus a newline; recorded from
# the MultiPoly-product state sum that the integer contraction replaced
SYMBOLIC_DERIVS_SHA256 = "9cf75aec307cc933b4a36d1ac8b9c67d1270c91afee79600eb0a8fa820a2af5c"


def test_symbolic_derivs_digest():
    digest = hashlib.sha256()
    for fam in FAMILIES.values():
        for signs in ALL_SIGNS:
            for p in symbolic_derivs(fam.with_signs(signs), 4):
                digest.update(p.format().encode() + b"\n")
    assert digest.hexdigest() == SYMBOLIC_DERIVS_SHA256


def test_symbolic_derivs_share_equal_monomials():
    # the memoised sign cases hold one tuple per distinct monomial, not one per term
    first, second = (symbolic_derivs(FAMILIES["7_6"].with_signs(s), 4) for s in ("+++++", "-----"))
    seen = {m: m for p in first for m in p.terms}
    shared = [m for p in second for m in p.terms if m in seen]
    assert len(shared) > 20 and all(seen[m] is m for m in shared)


# sha256 over the same 96 pairs, in the same order, of base_case_jones(spec, x)
# as ``format()`` text plus a newline for every resolution vector x in the
# order of product((0, 1), repeat=len(x)); recorded from the per-family row
# scans that the load-time base tables replaced
BASE_CASE_SHA256 = "208b5edfdde99c5aa3ea75d50cf890aaf7b33d6a5d93a05120859b54250584c7"


def test_base_case_digest():
    digest = hashlib.sha256()
    for fam in FAMILIES.values():
        for signs in ALL_SIGNS:
            spec = fam.with_signs(signs)
            for x in product((0, 1), repeat=len(spec.active_bands)):
                digest.update(base_case_jones(spec, x).format().encode() + b"\n")
    assert digest.hexdigest() == BASE_CASE_SHA256


def test_derivative_order_bounds():
    spec = EIGHT.with_signs("+-+-+")
    n = (2, 1, 3, 2)
    point = dict(zip(spec.variables, n))
    jones = assemble_jones(spec, n)
    assert [p.eval(point) for p in symbolic_derivs(spec, 8)] == jones.derivs_at_one(8)
    assert symbolic_derivs(spec, 0) == [MultiPoly.const(spec.variables, 1)]
    for kmax in (-1, 9):
        with pytest.raises(FamilyError):
            symbolic_derivs(spec, kmax)
        with pytest.raises(ValueError):
            jones_derivs(spec, n, kmax)


# --- validation and file format --------------------------------------------------

def test_parse_signs_rejects_bad_input():
    with pytest.raises(FamilyError):
        parse_signs("++++", 5)
    with pytest.raises(FamilyError):
        parse_signs("++x++", 5)
    # with_signs checks the bands it makes: a sign of +1 or -1, a parity of
    # 0 or 1, and no frozen odd band
    with pytest.raises(FamilyError, match="band sign must be"):
        SEVEN.with_signs((2, 1, 1, 1, 1))
    with pytest.raises(FamilyError, match="band parity must be"):
        SEVEN._replace(parities=(2, 1, 1, 0, 0)).with_signs("+++++")
    with pytest.raises(FamilyError, match="frozen bands must be even"):
        SEVEN._replace(frozen=(True,) + (False,) * 4).with_signs("+++++")


def test_check_twists():
    spec = SEVEN.with_signs("+++++")
    with pytest.raises(FamilyError):
        check_twists(spec, (1, 1, 1, 1))
    with pytest.raises(FamilyError):
        check_twists(spec, (1, 1, 0, 1, 1))
    s8 = EIGHT.with_signs("+++++")
    assert check_twists(s8, (1, 2, 3, 4)) == (1, 2, 3, 4)


@pytest.mark.parametrize("bad", [1.9, 2.0, "3", True, Fraction(2)], ids=repr)
def test_twists_that_are_not_ints_are_refused(bad):
    # neither route truncates or converts a twist: the Jones route's
    # check_twists and the Seifert route's instantiate both refuse it
    spec, n = SEVEN.with_signs("++-+-"), (bad, 2, 1, 2, 1)
    message = f"twist parameters must be ints, got {n}"
    with pytest.raises(FamilyError, match=re.escape(message)):
        assemble_jones(spec, n)
    with pytest.raises(FamilyError, match=re.escape(message)):
        conway_poly(template_for("7_6", "++-+-"), n)


# each route to an instance of 7_6 ++-+-, at twists that are no instance
ROUTES = {
    "assemble_jones": lambda spec, tpl, n: assemble_jones(spec, n),
    "jones_derivs": lambda spec, tpl, n: jones_derivs(spec, n),
    "alexander_poly": lambda spec, tpl, n: alexander_poly(tpl, n),
    "conway_poly": lambda spec, tpl, n: conway_poly(tpl, n),
    "band_crossings": lambda spec, tpl, n: band_crossings(spec, n),
    "crosscheck": lambda spec, tpl, n: crosscheck(spec, load_template("7_6"), n),
}


@pytest.mark.parametrize("n", [(1, 2, 1, 1, 1, 99), (1, 2), (1, 2, 0, 1, 1), (0, -3, 1, 1, 1)],
                         ids=["six", "two", "zero", "negative"])
@pytest.mark.parametrize("route", ROUTES)
def test_every_route_refuses_twists_that_are_no_instance(route, n):
    # one twist too many is not truncated, too few is not an IndexError, and
    # a twist below 1 gets no answer
    spec, tpl = SEVEN.with_signs("++-+-"), template_for("7_6", "++-+-")
    with pytest.raises(FamilyError, match="want 5 twist parameters|must be >= 1"):
        ROUTES[route](spec, tpl, n)


def test_family_file_errors():
    with pytest.raises(FamilyError):
        parse_family_file("family x\nband 2 odd\nbase compose\n")
    with pytest.raises(FamilyError):
        parse_family_file("family x\nband 1 odd\nbase count\n")


# a second family, base or order line is refused, not read in place of the first
@pytest.mark.parametrize("family, first, second", [
    ("7_6", "family 7_6", "family 10_58"),
    ("7_6", "base compose", "base compose"),
    ("10_58", "order 5 1 4", "order 5 1 4"),
], ids=["family", "base", "order"])
def test_family_file_rejects_a_repeated_directive(family, first, second):
    text = family_text(family)
    assert f"\n{first}\n" in text
    directive = first.split()[0]
    with pytest.raises(FamilyError, match=f"more than one '{directive}' line"):
        parse_family_file(text.replace(f"\n{first}\n", f"\n{first}\n{second}\n"))


# bands are frozen by a 'from' line, never by a word on a band line
@pytest.mark.parametrize("band", ["band 1 od", "band 1 even frozn", "band 1 even frozen frozen",
                                  "band 1 even frozen", "band 1", "band one odd"])
def test_family_file_rejects_malformed_band_lines(band):
    with pytest.raises(FamilyError, match="bad band line"):
        parse_family_file(f"family x\n{band}\nbase count\norder 1\ncount 0 -> 1\n")


@pytest.mark.parametrize("body,match", [
    ("band 1 even\nbase count\norder 1 x\ncount 0 -> 1", "bad order line"),
    ("band 1 even\nbase count\norder +1\ncount 0_0 -> 1", "bad order line"),
    ("band 1 even\nbase count\norder 1\ncount \uff10 -> 1", "bad count line"),
    ("band 1 even\nbase count\norder 1\ncount a -> 1", "bad count line"),
    ("band 1 odd\nbase compose\ncompose 0 -> X(a)", "bad compose line"),
    # int() refuses more than 4,300 digits with a bare ValueError of its own
    pytest.param(f"band {'1' * 5001} odd\nbase count\norder 1\ncount 0 -> 1", "bad band line",
                 id="band-5001-digits"),
])
def test_family_file_rejects_non_integer_fields(body, match):
    with pytest.raises(FamilyError, match=match):
        parse_family_file(f"family x\n{body}\n")


def test_derived_family_uses_its_parents_skeleton():
    assert (EIGHT.seifert, EIGHT.disks) == (TEN.seifert, TEN.disks)
    assert EIGHT.frozen == (False,) * 4 + (True,)
    assert EIGHT.base is TEN.base
    # a derived parent's frozen bands carry over
    twice = parse_family_file("family y\nfrom 8_12 freeze 4\n")
    assert twice.frozen == (False,) * 3 + (True, True)
    assert (twice.seifert, twice.disks) == (TEN.seifert, TEN.disks)


# a one-band family that is whole up to its Seifert and disk lines
ONE_BAND = "family x\nband 1 even\nbase count\norder 1\ncount 0 -> 1\ncount 1 -> 1\n"
SEIFERT = "seifert -n1/2, 1\nseifert 0, 0\n"
DISKS = "disk 1:0:0\ndisk 1:1:1\n"


def test_family_file_reads_seifert_and_disk_lines():
    # each entry an affine form (constant, ((index, coefficient), ...)) over n1
    fam = parse_family_file(ONE_BAND + SEIFERT + DISKS)
    assert fam.seifert == (((0, ((0, Fraction(-1, 2)),)), (1, ())), ((0, ()), (0, ())))
    assert fam.disks == (((1, 0, 0),), ((1, 1, 1),))
    assert TEN.disks == (((5, 0, 0), (2, 0, 0), (1, 0, 0), (4, 0, 0), (2, 1, 1)),
                         ((5, 1, 1), (3, 0, 0), (4, 1, 1), (3, 1, 1), (1, 1, 1)))


@pytest.mark.parametrize("layout,match", [
    (DISKS, "lengths \\[\\]: want a nonempty square matrix"),
    ("seifert 1, 0\nseifert 0\n" + DISKS, "lengths \\[2, 1\\]: want a nonempty square"),
    ("seifert 1, 0, 0\nseifert 0, 1, 0\n" + DISKS, "want a nonempty square matrix"),
    ("seifert -n1/2\n" + DISKS, "lengths \\[1\\]: want a nonempty square matrix of even"),
    ("seifert -n1/2, (1\nseifert 0, 0\n" + DISKS, "bad seifert line .* never closed"),
    ("seifert -n2/2, 1\nseifert 0, 0\n" + DISKS, "bad seifert line .* unknown variable 'n2'"),
    ("seifert -n1/2, , 1\nseifert 0, 0\n" + DISKS, "bad seifert line"),
    ("seifert -n1/2, 1\nseifert 0, n1*n1 + 1\n" + DISKS,
     "bad seifert line 'seifert 0, n1\\*n1 \\+ 1': 'n1\\^2 \\+ 1' is not affine"),
    (SEIFERT, "two 'disk' lines, got 0"),
    (SEIFERT + "disk 1:0:0 1:1:1\n", "two 'disk' lines, got 1"),
    (SEIFERT + DISKS + "disk\n", "two 'disk' lines, got 3"),
    (SEIFERT + "disk 2:0:0\ndisk 1:1:1\n", "bad disk lines \\['2:0:0', '1:1:1'\\]"),
    (SEIFERT + "disk 0:0:0\ndisk 1:1:1\n", "bad disk lines \\['0:0:0', "),
    (SEIFERT + "disk 1:2:0\ndisk 1:1:1\n", "bad disk lines \\['1:2:0', "),
    (SEIFERT + "disk 1:0:0\ndisk 1:1:2\n", "bad disk lines .*with flip 0 or 1"),
    (SEIFERT + "disk 1:0\ndisk 1:1:1\n", "bad disk lines \\['1:0', "),
    (SEIFERT + "disk 1:0:0:0\ndisk 1:1:1\n", "bad disk lines \\['1:0:0:0', "),
    (SEIFERT + "disk 1:x:0\ndisk 1:1:1\n", "bad disk line 'disk 1:x:0': want integers"),
    (SEIFERT + "disk 1:-1:0\ndisk 1:1:1\n", "want integers"),
    (SEIFERT + "disk 1:0:0\ndisk\n", "bad disk lines \\['1:0:0', ''\\]: .* of bands 1..1"),
    (SEIFERT + "disk 1:0:0 1:1:0\ndisk 1:1:1\n", "one at each end 0 and 1"),
], ids=["no-seifert", "ragged", "not-square", "odd-size", "entry-syntax", "entry-variable",
        "entry-empty", "entry-not-affine", "no-disks", "one-disk", "three-disks", "foot-band-2",
        "foot-band-0", "foot-end-2", "foot-flip-2", "foot-short", "foot-long", "foot-letter",
        "foot-sign", "end-without-foot", "end-with-two-feet"])
def test_family_file_rejects_bad_seifert_and_disk_lines(layout, match):
    with pytest.raises(FamilyError, match=match):
        parse_family_file(ONE_BAND + layout)


@pytest.mark.parametrize("text,match", [
    ("from 10_58 freeze 5\nseifert 1, 0\nseifert 0, 1", "nothing else"),
    ("from 10_58 freeze 5\ndisk 1:0:0", "nothing else"),
    ("from 3_1 freeze 1", "unknown family"),
    ("from 7_6 freeze 1", "no even band 1"),
    ("from 10_58 freeze 6", "no even band 6"),
    ("from 10_58 freeze 0", "no even band 0"),
    ("from 10_58 freeze x", "bad from line"),
    ("from 10_58 freeze", "bad from line"),
    ("from 10_58 5", "bad from line"),
    ("from 10_58 freeze 5\nband 1 even", "nothing else"),
    ("from 10_58 freeze 5\nbase count", "nothing else"),
    ("from 10_58 freeze 5\nfrom 10_58 freeze 4", "nothing else"),
])
def test_family_file_rejects_bad_derivations(text, match):
    with pytest.raises(FamilyError, match=match):
        parse_family_file(f"family x\n{text}\n")


def test_load_family_takes_shipped_names_only():
    with pytest.raises(FamilyError, match="unknown family"):
        load_family("src/twistknots/data/families/7_6.family")


@pytest.mark.parametrize("order", ["order 1 7", "order 0", "order 2"])
def test_family_file_rejects_order_outside_the_bands(order):
    with pytest.raises(FamilyError, match="outside 1..1"):
        parse_family_file(f"family x\nband 1 even\nbase count\n{order}\ncount 0 -> 1\n")


def test_count_provider_rejects_nonpositive_counts():
    text = """family bad
band 1 even
base count
order 1
count 0 -> 0
count 1 -> 1
"""
    with pytest.raises(FamilyError, match="not an integer >= 1"):
        parse_family_file(text)


def count_family(row: str) -> str:
    return f"""family bad
band 1 even
band 2 even
band 3 even
base count
order 1
count 0 -> 1
count 1 -> {row}
"""


@pytest.mark.parametrize("row", ["1 + ", "(x2", "abs(x2", "x9", "3 - x2 - ", "2 - abs(x3 - x2)"])
def test_count_rows_are_parsed_at_load(row):
    # a malformed row fails when the file loads, not at the first base case
    with pytest.raises(ValueError):
        parse_family_file(count_family(row))


@pytest.mark.parametrize("row", ["x2 - x3", "1/2 + x2"])
def test_count_provider_rejects_non_counts(row):
    # 0 and 1/2 at states (1, 0, 0) are not unknot counts; every state is
    # evaluated when the file loads
    with pytest.raises(FamilyError, match="not an integer >= 1"):
        parse_family_file(count_family(row))


TWO_ODD = "family bad\nband 1 odd\nband 2 odd\nbase compose\n"
ODD_EVEN = "family bad\nband 1 odd\nband 2 even\nbase compose\n"
TWO_EVEN = "family bad\nband 1 even\nband 2 even\nbase count\norder 2\n"


# base rows that could never give a right base case fail when the file loads
@pytest.mark.parametrize("text,match", [
    (ODD_EVEN + "compose 0 -> X(1)\ncompose 0 -> X(1)\ncompose 1 -> X(1)", "two compose rows"),
    (TWO_EVEN + "count 0 -> 1\ncount 0 -> 2\ncount 1 -> 1", "two count rows"),
    (TWO_ODD + "compose -> X(9)", "X takes odd bands in 1..2"),
    (TWO_ODD + "compose -> X(1,0)", "X takes odd bands in 1..2"),
    (ODD_EVEN + "compose 0 -> X(2)\ncompose 1 -> X(1)", "X takes odd bands in 1..2"),
    (ODD_EVEN + "compose 0 -> X(1)", "no base-case row for states \\(1,\\)"),
    (TWO_EVEN + "count 1 -> 1", "no base-case row for states \\(0,\\)"),
    (TWO_ODD + "compose 0 -> X(1,2)", "want 0 states"),
    (ODD_EVEN + "compose 0 1 -> X(1)\ncompose 1 -> X(1)", "want 1 states"),
    (ODD_EVEN + "compose 2 -> X(1)\ncompose 1 -> X(1)", "want 1 states"),
    (TWO_EVEN + "count 0 -> 1\ncount 1 -> x1 - x2", "integer >= 1 for states \\(0, 1\\)"),
    (TWO_EVEN + "count 0 -> 1\ncount 1 -> 1\ncompose 0 -> U", "in a 'base count' file"),
    (ODD_EVEN + "compose 0 -> X(1)\ncompose 1 -> U\ncount 0 -> 1", "in a 'base compose' file"),
    (ODD_EVEN + "order 2\ncompose 0 -> X(1)\ncompose 1 -> U", "needs 'base compose'"),
    ("family bad\nband 1 even\nbase count\norder 1 1\ncount 0 0 -> 1\ncount 1 1 -> 1",
     "names a band twice"),
], ids=["duplicate-compose", "duplicate-count", "x-band-9", "x-band-0", "x-even-band",
        "missing-compose", "missing-count", "long-key", "long-key-2", "key-state-2",
        "count-below-1", "compose-in-count", "count-in-compose", "order-in-compose",
        "order-repeats"])
def test_family_file_rejects_base_rows_that_cannot_be_right(text, match):
    with pytest.raises(FamilyError, match=match):
        parse_family_file(text + "\n")
