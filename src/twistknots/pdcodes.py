"""Planar diagram codes and the Kauffman bracket state sum.

A crossing is a 4-tuple of arc labels listed counterclockwise from the incoming
under-strand, plus a marker saying at which tuple position (1 or 3) the over
strand enters.  With the corners of the tuple at south/east/north/west, a
crossing is positive exactly when the over strand enters at position 3.  The
A-smoothing joins tuple positions 0-1 and 2-3.

A ``PDCode`` need not be planar, and the diagrams that the oracle draws from a
family's disk layout are not (docs/family-format.md).

The bracket is a plain enumeration over all 2^c smoothings with union-find loop
counting; it is deliberately simple so it can serve as an independent oracle.
It validates its code first, so every route through it is checked once.
Exponents of the bracket variable A are kept quadrupled (A = t^(-1/4)), so the
result converts exactly to a Laurent polynomial in t^(1/2).
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .laurent import HalfLaurent

MAX_CROSSINGS = 24


class PDError(ValueError):
    pass


class BudgetExceeded(PDError):
    pass


def strand_cycles(crossings, partner) -> list[list[tuple[int, int]]]:
    """The closed strands of a diagram, each as the (crossing, slot) pairs at
    which it enters a crossing, in walking order.

    ``crossings`` gives each crossing's arc labels by slot, every label on
    exactly two slots; ``partner[slot]`` is the slot on the other side of the
    crossing along the same strand."""
    incidence: dict[int, list[tuple[int, int]]] = {}
    for ci, slots in enumerate(crossings):
        for pos, arc in enumerate(slots):
            incidence.setdefault(arc, []).append((ci, pos))
    seen: set[tuple[int, int]] = set()
    cycles = []
    for ci0, slots in enumerate(crossings):
        for pos0 in range(len(slots)):
            if (ci0, pos0) in seen:
                continue
            walk = []
            ci, pos = ci0, pos0
            while (ci, pos) not in seen:
                out_pos = partner[pos]
                seen.add((ci, pos))
                seen.add((ci, out_pos))
                walk.append((ci, pos))
                a, b = incidence[crossings[ci][out_pos]]
                ci, pos = b if a == (ci, out_pos) else a
            cycles.append(walk)
    return cycles


class PDCode(NamedTuple):
    crossings: tuple[tuple[int, int, int, int], ...]
    over_in: tuple[int, ...]          # per crossing: 1 or 3
    free_loops: int = 0               # crossingless unknot components

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def arcs(self) -> list[int]:
        out = set()
        for quad in self.crossings:
            out.update(quad)
        return sorted(out)

    def crossing_signs(self) -> tuple[int, ...]:
        return tuple(+1 if p == 3 else -1 for p in self.over_in)

    def writhe(self) -> int:
        return sum(self.crossing_signs())

    def n_components(self) -> int:
        # a strand leaves a crossing at the tuple position opposite its entry
        return len(strand_cycles(self.crossings, (2, 3, 0, 1))) + self.free_loops

    def validate_orientation(self) -> None:
        """A ``PDError`` unless there is one over-strand marker per crossing,
        each 1 or 3, and each arc is produced once and consumed once, so
        appears exactly twice.

        Under strand: in at 0, out at 2.  Over strand: in/out at over_in and
        its opposite.
        """
        if len(self.over_in) != len(self.crossings):
            raise PDError("need one over-strand marker per crossing")
        if any(p not in (1, 3) for p in self.over_in):
            raise PDError("over-strand marker must be position 1 or 3")
        heads: dict[int, int] = {}
        tails: dict[int, int] = {}
        for ci, quad in enumerate(self.crossings):
            over = self.over_in[ci]
            roles = {0: "head", 2: "tail", over: "head", (over + 2) % 4: "tail"}
            for pos, arc in enumerate(quad):
                store = heads if roles[pos] == "head" else tails
                if arc in store:
                    raise PDError(f"arc {arc} oriented inconsistently")
                store[arc] = ci
        if set(heads) != set(tails):
            raise PDError("open strand ends present")


def kauffman_bracket(pd: PDCode) -> dict[int, int]:
    """State-sum bracket; keys are exponents of A.  A malformed code is a
    ``PDError`` (``PDCode.validate_orientation``)."""
    pd.validate_orientation()
    c = pd.n_crossings
    if c > MAX_CROSSINGS:
        raise BudgetExceeded(f"{c} crossings exceeds the {MAX_CROSSINGS}-crossing budget")
    arcs = pd.arcs()
    index = {a: i for i, a in enumerate(arcs)}
    n_arcs = len(arcs)
    pairs_a = []   # A-smoothing joins (a,b) and (c,d)
    pairs_b = []   # B-smoothing joins (a,d) and (b,c)
    for quad in pd.crossings:
        a, b, cc, d = (index[x] for x in quad)
        pairs_a.append((a, b, cc, d))
        pairs_b.append((a, d, b, cc))
    out: dict[int, int] = {}
    parent = list(range(n_arcs))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for state in range(1 << c):
        for i in range(n_arcs):
            parent[i] = i
        sigma = 0
        for i in range(c):
            if state >> i & 1:
                sigma += 1
                x, y, z, w = pairs_a[i]
            else:
                sigma -= 1
                x, y, z, w = pairs_b[i]
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
            rz, rw = find(z), find(w)
            if rz != rw:
                parent[rz] = rw
        loops = sum(1 for i in range(n_arcs) if find(i) == i)
        loops += pd.free_loops
        # expand A^sigma * delta^(loops-1) with delta = -A^2 - A^(-2)
        sign = -1 if (loops - 1) % 2 else 1
        m = loops - 1
        for j in range(m + 1):
            expo = sigma + 2 * j - 2 * (m - j)
            out[expo] = out.get(expo, 0) + sign * comb(m, j)
    return {e: v for e, v in out.items() if v}


def bracket_to_t(poly_in_a: dict[int, int]) -> HalfLaurent:
    """Convert a polynomial in A to t^(1/2) powers via A = t^(-1/4)."""
    out: dict[int, int] = {}
    for e, ccoef in poly_in_a.items():
        if e % 2:
            raise PDError("odd power of A cannot convert to half-integral t")
        out[-e // 2] = out.get(-e // 2, 0) + ccoef
    return HalfLaurent(out)


def jones_from_pd(pd: PDCode) -> HalfLaurent:
    """Writhe-normalized bracket: (-A^3)^(-writhe) <L> expressed in t."""
    w = pd.writhe()
    bracket = kauffman_bracket(pd)
    shifted = {e - 3 * w: c for e, c in bracket.items()}
    value = bracket_to_t(shifted)
    return value if w % 2 == 0 else -value
