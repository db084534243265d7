"""Acceptance criteria, one test per criterion; each prints a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from twistknots.casework import (
    SweepConfig,
    classify_exceptions,
    load_registry,
    sweep,
    verify_paper_case,
)
from twistknots.diagrams import build_diagram, load_template
from twistknots.families import (
    assemble_jones,
    assemble_partial,
    load_family,
    prefactor_deriv_poly,
    symbolic_derivs,
)
from twistknots.laurent import HalfLaurent
from twistknots.multipoly import parse_poly
from twistknots.obstruction import (
    cosmetic_gate,
    finite_type,
    h_coeffs,
    h_coeffs_from_derivs,
    ito_residual,
    root5_gate,
)
from twistknots.pdcodes import jones_from_pd
from twistknots.seifert import (
    alexander_poly,
    conway_poly,
    leading_coeff_symbolic,
    template_for,
)

ALL_CASES = ["".join(p) for p in product("+-", repeat=5)]


def announce(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def sweep_7_6():
    return sweep(SweepConfig("7_6", n_range=4))


@pytest.fixture(scope="module")
def sweep_10_58():
    return sweep(SweepConfig("10_58", n_range=4))


# The published derivative table of the band prefactors; upper signs first.
DERIVATIVE_TABLE = {
    (+1, 0): ["0", "n", "2*n^2 - n", "n/4*(5 - 24*n + 16*n^2)",
              "n/2*(-3 + 38*n - 48*n^2 + 16*n^3)"],
    (-1, 0): ["0", "-n", "2*n^2 + n", "n/4*(-5 - 24*n - 16*n^2)",
              "n/2*(3 + 38*n + 48*n^2 + 16*n^3)"],
    (+1, 1): ["1", "2*n", "2*n*(2*n - 1)", "4*n*(1 - 3*n + 2*n^2)",
              "4*n*(-3 + 11*n - 12*n^2 + 4*n^3)"],
    (-1, 1): ["1", "-2*n", "2*n*(2*n + 1)", "4*n*(-1 - 3*n - 2*n^2)",
              "4*n*(3 + 11*n + 12*n^2 + 4*n^3)"],
}


def test_criterion_1_derivative_table():
    start = time.perf_counter()
    for (s, x), column in DERIVATIVE_TABLE.items():
        for k, text in enumerate(column):
            assert prefactor_deriv_poly(s, x, k) == parse_poly(text, ("n",)), (s, x, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, f"all 20 prefactor-derivative table entries re-derived exactly "
                f"({elapsed:.2f}s)")


def test_criterion_2_symbolic_case_formulas():
    start = time.perf_counter()
    checked = 0
    for family in ("7_6", "10_58", "8_12"):
        registry = load_registry(family)
        for signs in sorted(registry.cases):
            for rec in verify_paper_case(family, signs, registry):
                assert rec["status"] == "PASS", (family, signs, rec)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(2, f"{checked} registered case formulas match exactly across the "
                f"three families ({elapsed:.1f}s)")


def test_criterion_3_casework_7_6(sweep_7_6):
    cfg = SweepConfig("7_6", n_range=4)
    reports = sweep_7_6
    assert len(reports) == 32
    registry = load_registry("7_6")
    total = sum(r.instance_count for r in reports)
    assert total == 32 * 1024
    for r in reports:
        r.check()
        for rec in r.formula_checks:
            assert rec["status"] == "PASS"
    records = classify_exceptions(cfg, reports)
    assert all(rec.pattern is not None for rec in records), "unmatched exception"
    found_rows = {(rec.signs, rec.pattern) for rec in records}
    expected_rows = {(signs, row["tuple"])
                     for signs, rows in registry.exceptions.items() for row in rows}
    assert found_rows == expected_rows and len(expected_rows) == 16
    n_exc = 0
    fam = load_family("7_6")
    seen = set()
    for r in reports:
        spec = fam.with_signs(r.signs)
        tpl = template_for("7_6", tuple(b.sign for b in spec.bands))
        for verdict in r.exceptions:
            n = verdict.twists
            assert assemble_jones(spec, n) == HalfLaurent.one()
            assert conway_poly(tpl, n).is_trivial()
            n_exc += 1
            seen.add((r.signs, n))
    announce(3, f"7_6 box [1..4]^5: {total} instances, {total - n_exc} excluded, "
                f"{n_exc} exceptions all with Jones = 1 and Conway = 1, "
                f"exception rows = the 16 published ones")


def test_criterion_4_casework_10_58(sweep_10_58):
    reports = sweep_10_58
    total = sum(r.instance_count for r in reports)
    assert total == 32 * 1024
    assert all(not r.exceptions for r in reports), "no unknots hide in this family"
    for r in reports:
        r.check()
        for rec in r.formula_checks:
            assert rec["status"] == "PASS"
    registry = load_registry("10_58")
    named = ("++-+-", "--+-+", "+-+-+", "-+-+-", "++---")
    assert all(signs in registry.d4_demo for signs in named)
    fam = load_family("10_58")
    for signs, n in sorted(registry.d4_demo.items()):
        spec = fam.with_signs(signs)
        tpl = template_for("10_58", tuple(b.sign for b in spec.bands))
        jones = assemble_jones(spec, n)
        derivs = jones.derivs_at_one(4)
        lead = leading_coeff_symbolic(tpl).eval(dict(zip(spec.variables, n)))
        verdict = cosmetic_gate(jones, derivs, conway_poly(tpl, n), lead)
        assert lead == 0 and derivs[2] == 0 and derivs[3] == 0
        assert verdict.classification == "EXCLUDED(d4)", (signs, n, verdict)
    announce(4, f"10_58 box [1..4]^5: {total} instances, zero exceptions; "
                f"{len(registry.d4_demo)} fourth-derivative cases demonstrated "
                f"on explicit instances")


def test_criterion_5_8_12_corollary():
    start = time.time()
    for signs in product((1, -1), repeat=4):
        lead = leading_coeff_symbolic(template_for("8_12", signs + (1,)))
        assert len(lead.terms) == 1
        (mono, coeff), = lead.terms.items()
        assert mono == (1, 1, 1, 1) and abs(coeff) == 1
    reports = sweep(SweepConfig("8_12", n_range=4))
    total = sum(r.instance_count for r in reports)
    assert total == 32 * 256
    for r in reports:
        assert r.exclusions["alexander_leading"] == r.instance_count
    elapsed = time.time() - start
    announce(5, f"8_12: leading coefficient is a single monomial and all {total} "
                f"instances are excluded by the Alexander gate ({elapsed:.1f}s)")


def _oracle_instances(family):
    """At least 20 instances within a 16-crossing budget."""
    fam = load_family(family)
    k = len(fam.with_signs("+" * 5).active_bands)
    signs_list = ["+" * 5, "++-+-", "-+-++", "+----"]
    vectors = [(1,) * k]
    for i in range(k):
        vectors.append(tuple(2 if j == i else 1 for j in range(k)))
    vectors.append(tuple(2 if j < 2 else 1 for j in range(k)))
    out = []
    for signs in signs_list:
        spec = fam.with_signs(signs)
        for n in vectors:
            out.append((spec, n))
            if len(out) >= 24:
                return out
    return out


@pytest.mark.parametrize("family", ["7_6", "10_58", "8_12"])
def test_criterion_6_oracle_equivalence(family):
    start = time.time()
    tpl = load_template(family)
    jobs = _oracle_instances(family)
    assert len(jobs) >= 20
    for spec, n in jobs:
        pd = build_diagram(tpl, spec, n)
        assert pd.n_crossings <= 16
        assert jones_from_pd(pd) == assemble_jones(spec, n), (spec.signs_str(), n)
    announce(6, f"{family}: state-sum oracle equals the family engine on "
                f"{len(jobs)} instances ({time.time() - start:.1f}s)")


def test_criterion_7_property_suite(sweep_7_6, sweep_10_58):
    # identities in the twist parameters cover every swept instance at once
    for family in ("7_6", "10_58", "8_12"):
        fam = load_family(family)
        for signs in ALL_CASES:
            spec = fam.with_signs(signs)
            from twistknots.casework import symbolic_case
            sym = symbolic_case(family, signs)      # asserts V'' = -6 a2
            assert sym.derivs[0] == parse_poly("1", spec.variables)
            assert not sym.derivs[1]

    # mirror symmetry of whole reports
    for reports in (sweep_7_6, sweep_10_58):
        by_signs = {r.signs: r for r in reports}
        for signs, r in by_signs.items():
            mirror = by_signs["".join("-" if c == "+" else "+" for c in signs)]
            assert r.exclusions == mirror.exclusions
            assert sorted(v.twists for v in r.exceptions) == \
                   sorted(v.twists for v in mirror.exceptions)

    # per-instance checks on a sample grid: unit Alexander value, Conway
    # normalization, mirror of the assembled polynomial, skein recursion
    z = HalfLaurent({1: 1, -1: -1})
    for family in ("7_6", "10_58", "8_12"):
        fam = load_family(family)
        k = len(fam.with_signs("+" * 5).active_bands)
        for signs in ("++-+-", "+-+-+"):
            spec = fam.with_signs(signs)
            tpl = template_for(family, tuple(b.sign for b in spec.bands))
            for n in [(1,) * k, (2, 1, 2, 1, 1)[:k], (1, 2, 1, 2, 2)[:k]]:
                delta = alexander_poly(tpl, n)       # asserts unit value at 1
                assert delta.equal_up_to_unit(delta.mirror())
                series = conway_poly(tpl, n)         # asserts normalization
                v = assemble_jones(spec, n)
                assert v.derivs_at_one(2)[2] == -6 * series.a2
                assert assemble_jones(spec.mirrored(), n) == v.mirror()
                for band in range(len(spec.bands)):
                    if spec.bands[band].frozen:
                        continue
                    j = spec.active_bands.index(band)
                    if n[j] < 2:
                        continue
                    s = spec.bands[band].sign
                    lower = n[:j] + (n[j] - 1,) + n[j + 1:]
                    resolved = assemble_partial(spec, n, {band: 0})
                    rhs = (HalfLaurent({4 * s: 1}) * assemble_jones(spec, lower)
                           + HalfLaurent({2 * s: s}) * z * resolved)
                    assert v == rhs
    announce(7, "V(1)=1, V'(1)=0, V''=-6a2 hold identically for all 96 sign "
                "cases; unit Alexander values, Conway normalization, mirror "
                "symmetry and per-band skein recursions hold on the sample grid")


def test_criterion_8_fourth_derivative_consistency(sweep_7_6):
    fam = load_family("7_6")
    registry10 = load_registry("10_58")
    fam10 = load_family("10_58")
    checked = 0

    def check_trivial_conway_instance(spec, family, n):
        nonlocal checked
        tpl = template_for(family, tuple(b.sign for b in spec.bands))
        series = conway_poly(tpl, n)
        assert series.is_trivial()
        jones = assemble_jones(spec, n)
        js = h_coeffs(jones, 6)
        derivs = jones.derivs_at_one(6)
        assert js == h_coeffs_from_derivs(derivs, 6)
        assert js[0] == 1 and js[1] == 0
        ft = finite_type(series.a2, series.a4, series.a6, js[4])
        assert ft.v4 == 0 and ft.v6 == 0 and ft.w4 == js[4] / 96
        assert ito_residual(2, 1, ft) == js[4]
        assert 24 * js[4] == derivs[4] + 6 * derivs[3] + 7 * derivs[2] + derivs[1]
        checked += 1
        return js[4]

    for report in sweep_7_6:
        spec = fam.with_signs(report.signs)
        for verdict in report.exceptions:
            n = verdict.twists
            j4 = check_trivial_conway_instance(spec, "7_6", n)
            assert j4 == 0
            assert root5_gate(assemble_jones(spec, n)).value == "INCONCLUSIVE"

    for signs, n in sorted(registry10.d4_demo.items()):
        spec = fam10.with_signs(signs)
        j4 = check_trivial_conway_instance(spec, "10_58", tuple(n))
        assert j4 != 0
    announce(8, f"h-expansion and derivative routes to j4 agree and the slope "
                f"relation collapses to j4 on {checked} trivial-Conway instances")
