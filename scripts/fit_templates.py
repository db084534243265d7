#!/usr/bin/env python3
"""Fit diagram templates to the family engine and write the template data files.

The engine is anchored to the published case formulas by the symbolic checks,
so a template is accepted only when the state-sum Jones polynomial of its
expansion matches the engine's assembly on a battery of sign cases and twist
vectors.  Every skeleton is drawn as a two-disk band layout: each disk's
boundary visits band feet in some cyclic order, and each foot may attach
flipped.  ``fit_disks`` searches those orders and flips for one family, given
the feet on each disk (bands joining the disks have a foot on both, a
self-band two feet on one).  A family derived by freezing bands (8_12, from
10_58) has no template of its own: ``diagrams.load_template`` gives it its
parent's.

Run from the repository root:  python3 scripts/fit_templates.py
"""

import json
import sys
from itertools import permutations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twistknots.diagrams import DiagramTemplate, DiagramError, build_diagram  # noqa: E402
from twistknots.families import assemble_jones, base_case_jones, load_family  # noqa: E402
from twistknots.pdcodes import format_pd, jones_from_pd  # noqa: E402

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


def fit_disks(name, feet_a, feet_b):
    """The first two-disk layout, in search order, that passes the component
    counts, the all-plus unit instance and the battery.  ``feet_a`` and
    ``feet_b`` list (band, end) feet; each disk's walk starts at its first
    foot, and the first foot on disk A is attached unflipped."""
    fam = load_family(name)
    spec = fam.with_signs("+++++")
    base_n = (1,) * len(spec.active_bands)
    target = assemble_jones(spec, base_n)
    for rest_a in permutations(feet_a[1:]):
        for rest_b in permutations(feet_b[1:]):
            walk_a, walk_b = (feet_a[0],) + rest_a, (feet_b[0],) + rest_b
            for bits_a in product((0, 1), repeat=len(walk_a) - 1):
                fa = tuple((b, e, f) for (b, e), f in zip(walk_a, (0,) + bits_a))
                for bits_b in product((0, 1), repeat=len(walk_b)):
                    fb = tuple((b, e, f) for (b, e), f in zip(walk_b, bits_b))
                    tpl = DiagramTemplate(("disks", fa, fb), ())
                    if not component_counts_ok(tpl, fam):
                        continue
                    try:
                        if jones_from_pd(build_diagram(tpl, spec, base_n)) != target:
                            continue
                    except DiagramError:
                        continue
                    if passes_battery(tpl, fam):
                        return tpl
    return None


def write_template(tpl, name, out_dir):
    fam = load_family(name)
    spec = fam.with_signs("+++++")
    base = build_diagram(tpl, spec, (1,) * len(spec.active_bands))
    data = {"structure": tpl.structure,
            "base_pd": format_pd(base).strip().split("\n")}
    path = out_dir / f"{name}.pdt"
    path.write_text(json.dumps(data, indent=1, default=list) + "\n")
    print(f"wrote {path} ({base.n_crossings} base crossings)")


def main():
    out_dir = Path(__file__).resolve().parent.parent / "src" / "twistknots" / "data" / "templates"
    # loops 3 and 4 of the Seifert skeleton, through self-bands 4 and 5, are
    # linked, so both self-bands interleave on one disk; bands 1-3 join the disks
    tpl76 = fit_disks("7_6", [(1, 0), (4, 0), (5, 0), (4, 1), (2, 0), (3, 0), (5, 1)],
                      [(1, 1), (2, 1), (3, 1)])
    if tpl76 is None:
        raise SystemExit("no 7_6 template found")
    write_template(tpl76, "7_6", out_dir)

    # self-band 2 interleaves the feet of bands 5 and 1 on one disk; self-band
    # 3 interleaves bands 1 and 4 on the other (forced by the
    # curve-intersection pattern of the self-linking matrix)
    tpl10 = fit_disks("10_58", [(5, 0), (2, 0), (2, 1), (1, 0), (4, 0)],
                      [(5, 1), (3, 0), (3, 1), (1, 1), (4, 1)])
    if tpl10 is None:
        raise SystemExit("no 10_58 template found")
    write_template(tpl10, "10_58", out_dir)


if __name__ == "__main__":
    main()
