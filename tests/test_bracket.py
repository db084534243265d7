import pytest

from helpers import connected_sum, disjoint_union, flipped_foot, pretzel_pd, reference_assemble
from twistknots.diagrams import (
    _Builder,
    band_crossings,
    build_diagram,
    crosscheck,
    load_template,
)
from twistknots.families import load_family, xn_jones
from twistknots.laurent import HalfLaurent, unlink_factor
from twistknots.pdcodes import (
    BudgetExceeded,
    PDCode,
    PDError,
    jones_from_pd,
    kauffman_bracket,
)

HL = HalfLaurent

POS_KINK = PDCode(((1, 1, 2, 2),), (3,))
NEG_KINK = PDCode(((1, 2, 2, 1),), (1,))
# left trefoil as tabulated: all crossings negative
LEFT_TREFOIL = PDCode(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), (1, 1, 1))


def braid_pd(word, strands):
    """Closure of a braid word (letters ±i for a crossing of strands i, i+1)."""
    b = _Builder()
    tops = [b.new_port() for _ in range(strands)]
    current = list(tops)
    for letter in word:
        i = abs(letter) - 1
        slots = b.add_crossing("L" if letter > 0 else "R")
        b.weld(current[i], slots[0])      # NW
        b.weld(current[i + 1], slots[1])  # NE
        current[i], current[i + 1] = slots[2], slots[3]
    for top, bottom in zip(tops, current):
        b.weld(bottom, top)
    return b.realize()


def test_unknot_zero_crossings():
    pd = PDCode((), (), free_loops=1)
    assert jones_from_pd(pd) == HL.one()


def test_kink_brackets():
    assert kauffman_bracket(POS_KINK) == {3: -1}     # -A^3
    assert kauffman_bracket(NEG_KINK) == {-3: -1}    # -A^-3
    assert jones_from_pd(POS_KINK) == HL.one()
    assert jones_from_pd(NEG_KINK) == HL.one()


def test_hopf_bracket():
    bracket = kauffman_bracket(pretzel_pd(1, 1))
    assert bracket == {4: -1, -4: -1}


def test_bracket_budget():
    big = pretzel_pd(13, 13)
    with pytest.raises(BudgetExceeded):
        kauffman_bracket(big)


def test_left_trefoil_from_table_code():
    assert jones_from_pd(LEFT_TREFOIL) == xn_jones([-1, -1, -1])
    assert LEFT_TREFOIL.writhe() == -3


def test_reidemeister_one():
    # anti-parallel twists in a single band untwist completely
    for k in (1, 2, 3, 5):
        assert jones_from_pd(pretzel_pd(k)) == HL.one()
        assert jones_from_pd(pretzel_pd(-k)) == HL.one()


def test_reidemeister_two_and_three_on_braids():
    r3_a = braid_pd([1, 2, 1], 3)
    r3_b = braid_pd([2, 1, 2], 3)
    assert kauffman_bracket(r3_a) == kauffman_bracket(r3_b)
    r2 = braid_pd([1, -1, 2], 3)
    plain = braid_pd([2], 3)
    assert kauffman_bracket(r2) == kauffman_bracket(plain)
    assert jones_from_pd(r2) == jones_from_pd(plain)


@pytest.mark.parametrize("args", [
    (1,), (-1,), (1, 1), (-1, -1), (1, -1), (1, 1, 1), (-1, -1, -1),
    (1, 1, -1), (1, 1, 1, 1), (1, -1, 1, -1), (1, 1, 1, 1, 1),
])
def test_pretzels_match_two_circle_patterns(args):
    assert jones_from_pd(pretzel_pd(*args)) == xn_jones(list(args))


def test_disjoint_union_multiplies_by_unlink_factor():
    tref = pretzel_pd(1, 1, 1)
    two = disjoint_union(tref, PDCode((), (), free_loops=1))
    assert jones_from_pd(two) == jones_from_pd(tref) * unlink_factor()


def test_connected_sum_multiplies_jones():
    tref = pretzel_pd(1, 1, 1)
    arc = tref.arcs()[0]
    double = connected_sum(tref, tref, arc, arc)
    assert jones_from_pd(double) == jones_from_pd(tref) * jones_from_pd(tref)


def resolved_7_6(*bands):
    spec = load_family("7_6").with_signs("++-+-")
    return build_diagram(load_template("7_6"), spec, (1,) * 5, resolved=frozenset(bands))


@pytest.mark.parametrize("make,count", [
    (lambda: POS_KINK, 1),
    (lambda: pretzel_pd(1, 1), 2),
    (lambda: LEFT_TREFOIL, 1),
    (lambda: disjoint_union(LEFT_TREFOIL, PDCode((), (), free_loops=1)), 2),
    (lambda: resolved_7_6(0), 2),
    (lambda: resolved_7_6(0, 3), 3),
], ids=["kink", "hopf", "left_trefoil", "trefoil_and_loop", "7_6_resolved_0",
        "7_6_resolved_0_3"])
def test_component_count(make, count):
    """The strand walker's count c agrees with V(1) = (-2)^(c-1)."""
    pd = make()
    assert pd.n_components() == count
    assert sum(jones_from_pd(pd).terms.values()) == (-2) ** (count - 1)


def test_pd_parse_rejects_bad_codes():
    with pytest.raises(PDError):
        jones_from_pd(PDCode(((1, 2, 3, 4),), (3,)))  # arcs appear once


def test_bracket_validates_its_code():
    # four open arcs: the state sum itself refuses the code, not only its callers
    with pytest.raises(PDError, match="open strand ends"):
        kauffman_bracket(PDCode(((1, 2, 3, 4),), (3,)))


# each family's diagram at unit twists and all-plus signs; 8_12 is drawn with
# 10_58's disk layout
BASE_PD_7_6 = PDCode(((3, 4, 2, 1), (6, 7, 5, 2), (7, 6, 8, 9), (10, 11, 9, 5),
                      (11, 10, 1, 12), (4, 14, 13, 8), (14, 3, 12, 13)),
                     (3, 3, 3, 3, 3, 3, 3))
BASE_PD_10_58 = PDCode(((3, 4, 2, 1), (4, 3, 5, 6), (8, 9, 7, 2), (9, 8, 1, 10),
                        (12, 13, 11, 7), (13, 12, 6, 14), (15, 16, 10, 11), (16, 15, 17, 18),
                        (19, 20, 18, 5), (20, 19, 14, 17)),
                       (3, 3, 3, 3, 3, 3, 3, 3, 3, 3))
BASE_PD_8_12 = PDCode(((3, 4, 2, 1), (4, 3, 5, 6), (8, 9, 7, 2), (9, 8, 1, 10), (11, 12, 6, 7),
                       (12, 11, 13, 14), (15, 16, 14, 5), (16, 15, 10, 13)),
                      (3, 3, 3, 3, 3, 3, 3, 3))
BASE_PD = {"7_6": BASE_PD_7_6, "10_58": BASE_PD_10_58, "8_12": BASE_PD_8_12}


@pytest.mark.parametrize("family", ["7_6", "10_58", "8_12"])
def test_template_base_pd_matches_expansion(family):
    tpl = load_template(family)
    fam = load_family(family)
    spec = fam.with_signs("+++++")
    n = (1,) * len(spec.active_bands)
    assert build_diagram(tpl, spec, n) == BASE_PD[family]


def test_expand_adds_two_crossings_per_increment():
    tpl = load_template("7_6")
    spec = load_family("7_6").with_signs("++-+-")
    base = build_diagram(tpl, spec, (1, 1, 1, 1, 1))
    for i in range(5):
        n = tuple(2 if j == i else 1 for j in range(5))
        assert build_diagram(tpl, spec, n).n_crossings == base.n_crossings + 2


@pytest.mark.parametrize("family,signs,n", [
    ("7_6", "+++++", (1, 1, 1, 1, 1)),
    ("7_6", "++-+-", (1, 2, 1, 1, 1)),
    ("7_6", "-+--+", (2, 1, 1, 2, 1)),
    ("10_58", "+++++", (1, 1, 1, 1, 1)),
    ("10_58", "+-+-+", (1, 1, 2, 1, 1)),
    ("8_12", "++-++", (1, 2, 1, 1)),
    ("8_12", "-+-+-", (2, 1, 1, 2)),
])
def test_crosscheck_agrees(family, signs, n):
    tpl = load_template(family)
    spec = load_family(family).with_signs(signs)
    assert crosscheck(spec, tpl, n)


def test_crosscheck_negative_control():
    corrupted = flipped_foot(load_template("7_6"))
    spec = load_family("7_6").with_signs("+++++")
    assert crosscheck(spec, corrupted, (1, 1, 1, 1, 1)) is False


def test_crosscheck_budget():
    tpl = load_template("7_6")
    spec = load_family("7_6").with_signs("+++++")
    with pytest.raises(BudgetExceeded):
        crosscheck(spec, tpl, (4, 4, 4, 4, 4), budget=18)


@pytest.mark.parametrize("family", ["7_6", "10_58", "8_12"])
def test_band_crossings_count_the_drawn_diagram(family):
    """crosscheck budgets on the band counts before drawing, so over the CLI's
    default battery they must add up to the crossings build_diagram draws."""
    fam = load_family(family)
    tpl = load_template(family)
    for signs in ("+++++", "++-+-", "-+-++"):
        spec = fam.with_signs(signs)
        k = len(spec.active_bands)
        for i in range(-1, k):
            n = tuple(2 if j == i else 1 for j in range(k))
            drawn = build_diagram(tpl, spec, n).n_crossings
            assert sum(map(abs, band_crossings(spec, n))) == drawn


@pytest.mark.parametrize("family", ["7_6", "10_58", "8_12"])
def test_resolved_band_matches_partial_assembly(family):
    tpl = load_template(family)
    spec = load_family(family).with_signs("++-+-")
    n = (1,) * len(spec.active_bands)
    for band in spec.active_bands:
        pd = build_diagram(tpl, spec, n, resolved=frozenset({band}))
        assert jones_from_pd(pd) == reference_assemble(spec, n, {band: 0})
