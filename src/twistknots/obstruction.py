"""Cosmetic-surgery obstruction gates.

An instance is excluded from carrying a purely cosmetic surgery as soon as one
gate fires, in this order: nonzero leading Alexander coefficient, nontrivial
Conway polynomial, V''(1) != 0, V'''(1) != 0, V''''(1) != 0 (equivalently
j_4 != 0 once the earlier gates pass), and optionally V at a fifth root of
unity different from 1.  Instances surviving every gate are exceptions and
must be certified trivial elsewhere.

Each verdict records j_4, the coefficient of h^4 in V(e^h).  It comes from the
derivatives at 1 through the Stirling row S(4, k) = 0, 1, 7, 6, 1:
j_4 = (V'(1) + 7 V''(1) + 6 V'''(1) + V''''(1)) / 4!, an int where 24 divides
the sum and the exact ``Fraction`` otherwise.

``instance_verdict`` runs the gates on one instance from its assembled Jones
polynomial and its Seifert-route Conway series.  It lives here, beside the
gates, so that a ``check`` query loads the instance engine alone; the sweeps
of ``casework`` import it from here.  For the same reason the records on that
path are ``typing.NamedTuple``s, not frozen dataclasses: ``ObstructionVerdict``
here, ``ConwaySeries`` and ``SeifertTemplate`` in ``seifert``, and
``BandSpec``, ``FamilySpec`` and ``FamilyDef`` in ``families``.  Importing
``dataclasses`` pulls in ``inspect`` and ``dis``, about 10 ms of a query's
start-up, and each frozen dataclass takes about 1 ms more to create than a
NamedTuple.  Value equality, hashing and pickling stay as they were.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .families import FamilySpec, assemble_jones
from .laurent import HalfLaurent, exact_quotient
from .seifert import ConwaySeries, SeifertTemplate, conway_poly


class Root5Verdict(enum.Enum):
    EXCLUDES = "EXCLUDES"
    INCONCLUSIVE = "INCONCLUSIVE"


def root5_gate(V: HalfLaurent) -> Root5Verdict:
    """Excludes when V at a primitive fifth root of unity differs from 1."""
    return Root5Verdict.INCONCLUSIVE if V.eval_root5() == (1, 0, 0, 0) else Root5Verdict.EXCLUDES


GATE_ORDER = ("alexander_leading", "conway", "d2", "d3", "d4", "root5")


class ObstructionVerdict(NamedTuple):
    instance: str
    twists: tuple[int, ...]           # the twist vector; not part of to_dict()
    alex_leading: int | Fraction      # exact values, as the caller gives them
    conway_trivial: bool
    d2: int | Fraction
    d3: int | Fraction
    d4: int | Fraction
    j4: int | Fraction
    root5: Optional[Root5Verdict]
    excluded_by: Optional[str]        # the first gate that excludes, None if none does

    @property
    def is_exception(self) -> bool:
        return self.excluded_by is None

    @property
    def classification(self) -> str:
        return "EXCEPTION" if self.is_exception else f"EXCLUDED({self.excluded_by})"

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "alexander_leading": str(self.alex_leading),
            "conway_trivial": self.conway_trivial,
            "d2": str(self.d2),
            "d3": str(self.d3),
            "d4": str(self.d4),
            "j4": str(self.j4),
            "root5": self.root5.value if self.root5 is not None else None,
            "classification": self.classification,
        }


def cosmetic_gate(jones: HalfLaurent, derivs: Sequence[int | Fraction],
                  conway: ConwaySeries, alex_leading,
                  use_root5: bool = False, instance: str = "",
                  twists: Sequence[int] = ()) -> ObstructionVerdict:
    """Apply the gates in order and record the first that excludes.

    Only the root-of-unity gate reads the Jones polynomial ``jones``; every
    other gate runs from the derivative values and the Conway series.
    """
    d2, d3, d4 = derivs[2:5]
    j4 = exact_quotient(derivs[1] + 7 * d2 + 6 * d3 + d4, 24)
    root5 = root5_gate(jones) if use_root5 else None

    conway_trivial = conway.is_trivial()
    excludes = (alex_leading != 0, not conway_trivial, d2 != 0, d3 != 0, d4 != 0,
                root5 is Root5Verdict.EXCLUDES)
    excluded_by = next((gate for gate, e in zip(GATE_ORDER, excludes) if e), None)
    return ObstructionVerdict(instance, tuple(twists), alex_leading, conway_trivial,
                              d2, d3, d4, j4, root5, excluded_by)


def instance_id(family: str, signs: str, n) -> str:
    return f"{family}[{signs}]({','.join(str(v) for v in n)})"


def instance_verdict(spec: FamilySpec, template: SeifertTemplate, n: tuple[int, ...],
                     use_root5: bool):
    """(verdict, jones, conway): the cosmetic-gate verdict of instance n, with
    the assembled Jones and Conway polynomials it reads."""
    jones = assemble_jones(spec, n)
    conway = conway_poly(template, n)
    verdict = cosmetic_gate(jones, jones.derivs_at_one(4), conway, conway.a4,
                            use_root5=use_root5, twists=n,
                            instance=instance_id(spec.name, spec.signs_str(), n))
    return verdict, jones, conway
