"""Test-only helpers: constructions and reference formulas that the tests
use to check the engines, and that no engine needs."""

from fractions import Fraction

from twistknots.casework import CaseRegistry, _matching, _parsed_patterns
from twistknots.diagrams import DiagramTemplate
from twistknots.families import BandSpec, FamilySpec
from twistknots.laurent import HalfLaurent
from twistknots.pdcodes import PDCode


def falling_factorial(x: Fraction, k: int) -> Fraction:
    """x (x-1) ... (x-k+1), with ff(x, 0) = 1."""
    out = Fraction(1)
    for r in range(k):
        out *= x - r
    return out


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
    flipped = tuple(BandSpec(-b.sign, b.parity, b.frozen) for b in spec.bands)
    return FamilySpec(spec.name, flipped, spec.base)


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
    return _matching(_parsed_patterns(family, registry, signs, variables), n, variables)
