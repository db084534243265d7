#!/usr/bin/env python3
"""Fit each base family's disk layout to the family engine and rewrite the
``disk`` lines of its family file.

The engine is anchored to the published case formulas by the symbolic checks,
so a layout is accepted only when the state-sum Jones polynomial of its
expansion matches the engine's assembly on a battery of sign cases and twist
vectors.  Each disk's boundary visits band feet in some cyclic order, and each
foot may attach flipped.  ``fit_disks`` takes the feet on each disk from the
``disk`` lines and searches their orders and flips, starting from the file's
order.  A derived family (8_12, from 10_58) is drawn with its parent's layout.

Run from the repository root:  python3 scripts/fit_templates.py
"""

import sys
from itertools import permutations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twistknots.diagrams import DiagramError, build_diagram  # noqa: E402
from twistknots.families import (FAMILIES, assemble_jones, base_case_jones,  # noqa: E402
                                 load_family)
from twistknots.pdcodes import jones_from_pd  # noqa: E402

FAMILY_DIR = Path(__file__).resolve().parent.parent / "src" / "twistknots" / "data" / "families"

BATTERY_CASES = ["+++++", "++-+-", "-+-++", "+----", "--+++", "+-+-+"]
BATTERY_VECTORS = {
    5: [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 2, 1, 1, 1), (1, 1, 2, 1, 1),
        (1, 1, 1, 2, 1), (1, 1, 1, 1, 2), (2, 2, 1, 1, 1), (1, 2, 1, 2, 1)],
    4: [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2),
        (2, 1, 2, 1)],
}


def passes_battery(tpl, fam) -> bool:
    k = len(fam.with_signs("+" * 5).active_bands)
    for case in BATTERY_CASES:
        spec = fam.with_signs(case)
        for n in BATTERY_VECTORS[k]:
            try:
                if jones_from_pd(build_diagram(tpl, spec, n)) != assemble_jones(spec, n):
                    return False
            except DiagramError:
                return False
    return True


def component_counts_ok(tpl, fam) -> bool:
    """Each base link of the skein, drawn by resolving the bands in state 0
    and leaving the others at one twist, has the component count c that its
    Jones polynomial gives through V(1) = (-2)^(c-1)."""
    spec = fam.with_signs("+++++")
    unit = (1,) * len(spec.active_bands)
    for state in product((0, 1), repeat=len(spec.active_bands)):
        cut = frozenset(i for i, x in zip(spec.active_bands, state) if x == 0)
        try:
            pd = build_diagram(tpl, spec, unit, resolved=cut)
        except DiagramError:
            return False
        if (-2) ** (pd.n_components() - 1) != sum(base_case_jones(spec, state).terms.values()):
            return False
    return True


def fit_disks(name):
    """The first two-disk layout, in search order, that passes the component
    counts, the all-plus unit instance and the battery.  The feet on each disk
    are those of the family's ``disk`` lines; each disk's walk starts at its
    first foot, and the first foot on disk A is attached unflipped."""
    fam = load_family(name)
    spec = fam.with_signs("+++++")
    base_n = (1,) * len(spec.active_bands)
    target = assemble_jones(spec, base_n)
    feet_a, feet_b = ([(b, e) for b, e, _ in feet] for feet in fam.disks)
    for rest_a, rest_b in product(permutations(feet_a[1:]), permutations(feet_b[1:])):
        walk_a, walk_b = (feet_a[0],) + rest_a, (feet_b[0],) + rest_b
        for bits_a in product((0, 1), repeat=len(walk_a) - 1):
            fa = tuple((b, e, f) for (b, e), f in zip(walk_a, (0,) + bits_a))
            for bits_b in product((0, 1), repeat=len(walk_b)):
                fb = tuple((b, e, f) for (b, e), f in zip(walk_b, bits_b))
                tpl = (fa, fb)
                # the component counts build the unit diagram too (no band
                # cut), so a layout that cannot be drawn fails there
                if (component_counts_ok(tpl, fam)
                        and jones_from_pd(build_diagram(tpl, spec, base_n)) == target
                        and passes_battery(tpl, fam)):
                    return tpl
    return None


def main():
    for name in FAMILIES:
        path = FAMILY_DIR / f"{name}.family"
        if "\ndisk " not in path.read_text():
            continue   # a derived family, drawn with its parent's layout
        tpl = fit_disks(name)
        if tpl is None:
            raise SystemExit(f"no {name} layout found")
        disks = iter(tpl)   # replaces the disk lines in order
        path.write_text("".join(
            ("disk " + " ".join(f"{b}:{e}:{f}" for b, e, f in next(disks)) + "\n"
             if line.startswith("disk ") else line)
            for line in path.read_text().splitlines(keepends=True)))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
