"""Test-only helpers: constructions and reference formulas that the tests
use to check the engines, and that no engine needs."""

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product
from math import factorial, gcd

from twistknots.casework import CaseRegistry, _matching, _parsed_patterns
from twistknots.diagrams import DiagramTemplate, _Builder
from twistknots.families import FamilyDef, FamilySpec, base_case_jones, load_family
from twistknots.laurent import HalfLaurent
from twistknots.multipoly import MultiPoly, parse_poly
from twistknots.pdcodes import PDCode


def falling_factorial(x: Fraction, k: int) -> Fraction:
    """x (x-1) ... (x-k+1), with ff(x, 0) = 1."""
    out = Fraction(1)
    for r in range(k):
        out *= x - r
    return out


def substitute(p: MultiPoly, assignment) -> MultiPoly:
    """Replace variables of p by polynomials over the same variables; the
    reference for ``MultiPoly.shifted_by_one``."""
    out = MultiPoly.zero(p.vars)
    for m, c in p.terms.items():
        term = MultiPoly.const(p.vars, c)
        for name, exp in zip(p.vars, m):
            if exp:
                term = term * assignment.get(name, MultiPoly.var(p.vars, name)) ** exp
        out = out + term
    return out


def family_text(name: str) -> str:
    """The text of the family file shipped for ``name``."""
    return resources.files("twistknots").joinpath(f"data/families/{name}.family").read_text()


def instantiate_by_eval(family: str, signs: str, twists) -> tuple[tuple, ...]:
    """The Seifert matrix of a family at a sign case and twist vector: each
    ``seifert`` entry of the family file, its parent's for a derived family,
    parsed by ``parse_poly`` and evaluated at the crossing counts
    n_i = s_i (2 v - m_i) of the active bands, v the band's twist, and 0 of
    the frozen ones; the reference for ``SeifertTemplate.instantiate``."""
    fam = load_family(family)
    lines = family_text(family).splitlines()
    while not any(line.startswith("seifert ") for line in lines):
        parent = next(line.split()[1] for line in lines if line.startswith("from "))
        lines = family_text(parent).splitlines()
    twist = iter(twists)
    counts = {f"n{i + 1}": 0 if frozen else (1 if s == "+" else -1) * (2 * next(twist) - m)
              for i, (s, m, frozen) in enumerate(zip(signs, fam.parities, fam.frozen))}
    return tuple(tuple(parse_poly(entry, tuple(counts)).eval(counts)
                       for entry in line.split(" ", 1)[1].split(","))
                 for line in lines if line.startswith("seifert "))


# --- reference assembly: dense prefactors, 2^k state sum ---------------------

def prefactor(s: int, x: int, n: int) -> HalfLaurent:
    """Skein prefactor of one band: t^(2sn) if the band is retained, else the
    geometric-sum form (1 + t^(2s) + ... + t^(2s(n-1))) * (s t^s) * (t^(1/2) - t^(-1/2))."""
    if x == 1:
        return HalfLaurent.t_power(4 * s * n)
    geo = HalfLaurent({4 * s * j: 1 for j in range(n)})
    return geo * HalfLaurent({3 * s: 1, s: -1})


def reference_assemble(spec, n, forced=None) -> HalfLaurent:
    """V = sum over the 2^k states x of prod_i pre(s_i, x_i, n_i) * V_x, with the
    forced bands (0-based band index -> state 0 resolved or 1 retained) held at
    their state and their prefactor omitted."""
    forced = forced or {}
    active = spec.active_bands
    choices = [(forced[i],) if i in forced else (0, 1) for i in active]
    total = HalfLaurent.zero()
    for x in product(*choices):
        term = base_case_jones(spec, x)
        for j, i in enumerate(active):
            if i not in forced:
                term = term * prefactor(spec.bands[i].sign, x[j], n[j])
        total = total + term
    return total


# --- h-expansion and the paper's finite-type formulas ------------------------

def h_coeffs(V: HalfLaurent, N: int = 6) -> tuple[Fraction, ...]:
    """Coefficients j_0..j_N of h^n in V(e^h), exactly: a term c t^(e/2)
    contributes c (e/2)^n / n! to j_n.  The reference for the j_4 that
    ``obstruction.cosmetic_gate`` records."""
    if not V.is_knot_valued():
        raise ValueError("h-expansion needs integral powers of t")
    js = []
    for n in range(N + 1):
        total = Fraction(0)
        for e, c in V.terms.items():
            total += Fraction(c) * Fraction(e, 2) ** n
        js.append(total / factorial(n))
    return tuple(js)


@dataclass(frozen=True)
class FiniteTypeInvariants:
    v4: Fraction
    w4: Fraction
    v6: Fraction


def finite_type(a2, a4, a6, j4) -> FiniteTypeInvariants:
    """The degree-4/6 invariants from Conway coefficients and j_4, as printed."""
    a2, a4, a6, j4 = (Fraction(x) for x in (a2, a4, a6, j4))
    v4 = -Fraction(1, 2) * a4 - Fraction(1, 24) * a2 + Fraction(1, 4) * a2 ** 2
    w4 = Fraction(1, 96) * j4 + Fraction(3, 32) * a4 - Fraction(9, 2) * a2 ** 2
    v6 = (-Fraction(1, 2) * a6 - Fraction(1, 12) * a4 - Fraction(1, 720) * a2
          + Fraction(1, 24) * a2 ** 2 + Fraction(1, 2) * a2 * a4
          - Fraction(1, 6) * a2 ** 3)
    return FiniteTypeInvariants(v4, w4, v6)


def ito_residual(p: int, q: int, ft: FiniteTypeInvariants) -> Fraction:
    """Left side of the slope relation p^2(24 w4 - 5 v4) + 5 v4 + q^2(210 v6 + 5 v4)."""
    if gcd(p, q) != 1:
        raise ValueError("slope must be in lowest terms")
    return (p * p * (24 * ft.w4 - 5 * ft.v4) + 5 * ft.v4
            + q * q * (210 * ft.v6 + 5 * ft.v4))


def mirror(p: HalfLaurent) -> HalfLaurent:
    """t -> t^(-1); mirror image on Jones polynomials."""
    return HalfLaurent({-e: c for e, c in p.terms.items()})


def shift(p: HalfLaurent, e2: int) -> HalfLaurent:
    """p times t^(e2/2)."""
    return HalfLaurent({e + e2: c for e, c in p.terms.items()})


def equal_up_to_unit(p: HalfLaurent, q: HalfLaurent) -> bool:
    """True when q = ±t^(k/2) * p for some k."""
    if not p.terms or not q.terms:
        return p.terms == q.terms
    if len(p.terms) != len(q.terms):
        return False
    shifted = shift(p, min(q.terms) - min(p.terms))
    return shifted == q or shifted == -q


def mirrored(spec: FamilySpec) -> FamilySpec:
    """The family with every band sign flipped."""
    fam = FamilyDef(spec.name, tuple(b.parity for b in spec.bands),
                    tuple(b.frozen for b in spec.bands), spec.base, (), ())
    return fam.with_signs(tuple(-b.sign for b in spec.bands))


def pretzel_pd(*counts: int) -> PDCode:
    """Columns of vertical twists closed cyclically."""
    builder = _Builder()
    cols = [builder.vertical_region(k, band=i) for i, k in enumerate(counts)]
    m = len(cols)
    for i in range(m):
        nxt = cols[(i + 1) % m]
        builder.weld(cols[i][1], nxt[0])
        builder.weld(cols[i][3], nxt[2])
    return builder.realize()


def disjoint_union(p1: PDCode, p2: PDCode) -> PDCode:
    shift = max(p1.arcs(), default=0)
    crossings = p1.crossings + tuple(
        tuple(a + shift for a in quad) for quad in p2.crossings)
    return PDCode(crossings, p1.over_in + p2.over_in, p1.free_loops + p2.free_loops)


def connected_sum(p1: PDCode, p2: PDCode, arc1: int, arc2: int) -> PDCode:
    """Splice arc1 of p1 to arc2 of p2 (orientations must align: head of arc1
    feeds the consumer of arc2 and vice versa)."""
    p1.validate_orientation()
    p2.validate_orientation()
    shift = max(p1.arcs(), default=0)
    fresh = shift + max(p2.arcs(), default=0) + 1

    def role(pd, ci, pos):
        over = pd.over_in[ci]
        return {0: "head", 2: "tail", over: "head", (over + 2) % 4: "tail"}[pos]

    def rewrite(pd, target, is_first):
        quads = []
        for ci, quad in enumerate(pd.crossings):
            new = []
            for pos, arc in enumerate(quad):
                label = arc if is_first else arc + shift
                if arc == target:
                    r = role(pd, ci, pos)
                    if is_first:
                        # tail keeps the old label, head takes the fresh one
                        label = target if r == "tail" else fresh
                    else:
                        label = target + shift if r == "head" else fresh
                new.append(label)
            quads.append(tuple(new))
        return quads

    q1 = rewrite(p1, arc1, True)
    q2 = rewrite(p2, arc2, False)
    # p1's tail end (label arc1) must be consumed by p2's head slot: p2's head
    # of arc2 was relabeled arc2+shift; merge the two labels
    merged = []
    for quad in q2:
        merged.append(tuple(arc1 if a == arc2 + shift else a for a in quad))
    out = PDCode(tuple(q1) + tuple(merged), p1.over_in + p2.over_in,
                 p1.free_loops + p2.free_loops)
    out.validate_orientation()
    return out


def flipped_foot(tpl: DiagramTemplate, band: int = 1) -> DiagramTemplate:
    """The template with the band's foot on the second disk attached flipped."""
    feet_a, feet_b = tpl.disks
    feet_b = tuple((b, e, 1 - f if b == band else f) for b, e, f in feet_b)
    return DiagramTemplate((feet_a, feet_b))


def match_exception(family: str, registry: CaseRegistry, signs: str, n: tuple[int, ...],
                    variables) -> list[str]:
    """The registered exception patterns of the sign case that n satisfies."""
    return _matching(_parsed_patterns(family, registry, signs, variables), n)
