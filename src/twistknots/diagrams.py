"""Diagram templates: build diagrams for twist families and expand twists.

A template draws a family's genus-2 Seifert surface as two disks joined by
bands: each disk's boundary visits band feet in a given cyclic order (the
``disk`` lines of the family file), and each band carries one twist region.
Expanding a template at a sign case and twist vector rebuilds the diagram with
s_i (2 n_i - m_i) crossings in band i's region.

The diagrams are not planar: at unit twists 7_6's has 7 crossings and 7
faces, 10_58's 10 and 8, where a planar one has c + 2.  The bracket never sees
this, so agreement with the engine does not show that a diagram is the
family's knot (docs/family-format.md; ROADMAP.md, "Classical diagrams").

Strand orientations are recovered by traversal; a twist region along a band of
a spanning surface has anti-parallel strands, and for links the component
orientations are chosen to make every region anti-parallel.
"""

from __future__ import annotations

from itertools import product

from .families import FamilySpec, assemble_jones, check_twists, load_family
from .multipoly import affine_values
from .pdcodes import BudgetExceeded, PDCode, jones_from_pd, strand_cycles

# slot indices inside a crossing
NW, NE, SW, SE = 0, 1, 2, 3
_CCW_ORDER = (NW, SW, SE, NE)   # counterclockwise walk around a crossing
_PARTNER = {NW: SE, SE: NW, NE: SW, SW: NE}


class DiagramError(ValueError):
    pass


class _Builder:
    def __init__(self):
        self.crossings: list[list[int]] = []   # port id per slot
        self.over_diag: list[str] = []         # 'L' (NW-SE over) or 'R'
        self.regions: dict[int, list[int]] = {}
        self._ports = 0
        self._parent: dict[int, int] = {}

    def new_port(self) -> int:
        self._ports += 1
        p = self._ports
        self._parent[p] = p
        return p

    def find(self, p: int) -> int:
        while self._parent[p] != p:
            self._parent[p] = self._parent[self._parent[p]]
            p = self._parent[p]
        return p

    def weld(self, p: int, q: int):
        rp, rq = self.find(p), self.find(q)
        if rp != rq:
            self._parent[rp] = rq

    def add_crossing(self, over: str) -> list[int]:
        slots = [self.new_port() for _ in range(4)]
        self.crossings.append(slots)
        self.over_diag.append(over)
        return slots

    # --- twist regions ------------------------------------------------

    def vertical_region(self, count: int, band: int | None = None):
        """Ports (nw, ne, sw, se); a positive count gives the same chirality as
        the positive one-band two-circle pattern (calibrated against the
        family engine's Hopf-link value)."""
        if count == 0:
            ports = [self.new_port() for _ in range(4)]
            self.weld(ports[NW], ports[SW])
            self.weld(ports[NE], ports[SE])
            return tuple(ports)
        over = "L" if count > 0 else "R"
        first = None
        prev = None
        for _ in range(abs(count)):
            slots = self.add_crossing(over)
            if band is not None:
                self.regions.setdefault(band, []).append(len(self.crossings) - 1)
            if prev is None:
                first = slots
            else:
                self.weld(prev[SW], slots[NW])
                self.weld(prev[SE], slots[NE])
            prev = slots
        return (first[NW], first[NE], prev[SW], prev[SE])

    def cut_region(self):
        """Oriented smoothing of a band: cap the top ports, cup the bottom ones."""
        ports = [self.new_port() for _ in range(4)]
        self.weld(ports[NW], ports[NE])
        self.weld(ports[SW], ports[SE])
        return tuple(ports)

    # --- assembly into a PDCode ------------------------------------------

    def realize(self) -> PDCode:
        classes: dict[int, list[tuple[int, int]]] = {}
        for ci, slots in enumerate(self.crossings):
            for pos, port in enumerate(slots):
                classes.setdefault(self.find(port), []).append((ci, pos))
        for port in list(self._parent):
            classes.setdefault(self.find(port), [])
        free_loops = sum(1 for members in classes.values() if not members)
        arc_ids: dict[int, int] = {}
        next_arc = 1
        for root in sorted(classes, key=lambda r: sorted(classes[r]) or [(10 ** 9, r)]):
            members = classes[root]
            if not members:
                continue
            if len(members) != 2:
                raise DiagramError(f"arc class with {len(members)} endpoints; diagram not closed")
            arc_ids[root] = next_arc
            next_arc += 1

        arcs = [[arc_ids[self.find(p)] for p in slots] for slots in self.crossings]
        orientation = self._orient(arcs)
        crossings = []
        over_in = []
        for ci, slots in enumerate(arcs):
            over = self.over_diag[ci]
            under_slots = (NE, SW) if over == "L" else (NW, SE)
            under_in = next(s for s in under_slots if orientation[(ci, s)] == "in")
            order = []
            idx = _CCW_ORDER.index(under_in)
            for k in range(4):
                order.append(_CCW_ORDER[(idx + k) % 4])
            crossings.append(tuple(slots[s] for s in order))
            over_slots = (NW, SE) if over == "L" else (NE, SW)
            over_entry = next(s for s in over_slots if orientation[(ci, s)] == "in")
            over_in.append(order.index(over_entry))
        pd = PDCode(tuple(crossings), tuple(over_in), free_loops)
        pd.validate_orientation()
        return pd

    def _orient(self, arcs) -> dict[tuple[int, int], str]:
        """Orient the strands.  A knot has a canonical choice (reversal does not
        change the Jones polynomial); for links the component orientations are
        chosen so that every marked twist region has anti-parallel strands,
        matching the two-circle band patterns the fixtures realize."""
        comps = strand_cycles(arcs, _PARTNER)
        if len(comps) > 6:
            raise DiagramError("too many components to orient")
        for flips in product((False, True), repeat=max(len(comps) - 1, 0)):
            flip = (False,) + flips
            orientation: dict[tuple[int, int], str] = {}
            for k, comp in enumerate(comps):
                entries = comp if not flip[k] else [
                    (ci, _PARTNER[pos]) for ci, pos in reversed(comp)]
                for ci, pos in entries:
                    orientation[(ci, pos)] = "in"
                    orientation[(ci, _PARTNER[pos])] = "out"
            if len(comps) == 1 or self._antiparallel_ok(orientation):
                return orientation
        raise DiagramError("no orientation makes every twist region anti-parallel")

    def _antiparallel_ok(self, orientation) -> bool:
        for band, cr_list in self.regions.items():
            for ci in cr_list:
                top_in = (orientation[(ci, NW)] == "in", orientation[(ci, NE)] == "in")
                if top_in[0] == top_in[1]:
                    return False
        return True


# --- recipes ------------------------------------------------------------------

def band_crossings(spec: FamilySpec, twists) -> tuple[int, ...]:
    """The signed crossing count of each band's twist region, by 0-based band
    index: the band rule of ``FamilySpec.band_counts`` at the twists."""
    return affine_values(spec.band_counts(), check_twists(spec, twists))


def build_diagram(tpl: tuple, spec: FamilySpec, twists,
                  resolved: frozenset[int] = frozenset()) -> PDCode:
    """Instantiate the template at a sign case and twist vector.

    The template lays out two fat vertices; each foot of a band occupies two
    consecutive ports along a disk boundary, and boundary arcs join
    consecutive feet.  ``resolved`` lists 0-based band indices replaced by the
    oriented smoothing (the cut band), for skein cross-checks.
    """
    counts = band_crossings(spec, twists)
    builder = _Builder()
    ports: dict[int, tuple] = {}

    def region(i0: int):
        if i0 not in ports:
            if i0 in resolved:
                ports[i0] = builder.cut_region()
            else:
                ports[i0] = builder.vertical_region(counts[i0], band=i0)
        return ports[i0]

    for feet in tpl:
        walk = []
        for band_no, end, flip in feet:
            p = region(band_no - 1)
            pair = (p[NW], p[NE]) if end == 0 else (p[SW], p[SE])
            walk.append(pair if not flip else (pair[1], pair[0]))
        for k, (_, right) in enumerate(walk):
            builder.weld(right, walk[(k + 1) % len(walk)][0])
    return builder.realize()


def crosscheck(spec: FamilySpec, tpl: tuple, twists,
               budget: int = 18) -> bool:
    """True when the state-sum Jones of the expanded diagram matches the
    family-engine assembly exactly.  The budget is checked on the band counts
    before anything is drawn."""
    n_crossings = sum(map(abs, band_crossings(spec, twists)))
    if n_crossings > budget:
        raise BudgetExceeded(f"{n_crossings} crossings over the spot-check budget {budget}")
    return jones_from_pd(build_diagram(tpl, spec, twists)) == assemble_jones(spec, twists)


def load_template(family: str) -> tuple:
    """The disk layout of the family's file, a derived family's parent's: each
    disk's feet (band, end, flip) in boundary order."""
    return load_family(family).disks
