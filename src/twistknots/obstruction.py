"""Cosmetic-surgery obstruction gates.

An instance is excluded from carrying a purely cosmetic surgery as soon as one
gate fires, in this order: nonzero leading Alexander coefficient, nontrivial
Conway polynomial, V''(1) != 0, V'''(1) != 0, V''''(1) != 0 (equivalently
j_4 != 0 once the earlier gates pass), and optionally V at a fifth root of
unity different from 1.  Instances surviving every gate are exceptions and
must be certified trivial elsewhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional, Sequence

from .laurent import HalfLaurent, exact_quotient
from .seifert import ConwaySeries


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def h_coeffs_from_derivs(derivs: Sequence[int | Fraction],
                         N: int = 6) -> tuple[int | Fraction, ...]:
    """Coefficients j_0..j_N of h^n in V(e^h), from the derivatives at 1 via
    Stirling numbers: j_n = sum_k V^(k)(1) S(n,k) / n!.

    The sum is taken in the derivatives' own arithmetic, ints for a knot, and
    divided by n! once per order, so j_n is an int where n! divides it and the
    exact ``Fraction`` otherwise."""
    if len(derivs) <= N:
        raise ValueError(f"need derivatives up to order {N}")
    return tuple(exact_quotient(sum(derivs[k] * _stirling2(n, k) for k in range(n + 1)),
                                factorial(n))
                 for n in range(N + 1))


class Root5Verdict(enum.Enum):
    EXCLUDES = "EXCLUDES"
    INCONCLUSIVE = "INCONCLUSIVE"


def root5_gate(V: HalfLaurent) -> Root5Verdict:
    """Excludes when V at a primitive fifth root of unity differs from 1."""
    return Root5Verdict.INCONCLUSIVE if V.eval_root5() == (1, 0, 0, 0) else Root5Verdict.EXCLUDES


GATE_ORDER = ("alexander_leading", "conway", "d2", "d3", "d4", "root5")


@dataclass(frozen=True)
class ObstructionVerdict:
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
    j4 = h_coeffs_from_derivs(derivs, 4)[4]
    root5 = root5_gate(jones) if use_root5 else None

    conway_trivial = conway.is_trivial()
    excludes = (alex_leading != 0, not conway_trivial, d2 != 0, d3 != 0, d4 != 0,
                root5 is Root5Verdict.EXCLUDES)
    excluded_by = next((gate for gate, e in zip(GATE_ORDER, excludes) if e), None)
    return ObstructionVerdict(instance, tuple(twists), alex_leading, conway_trivial,
                              d2, d3, d4, j4, root5, excluded_by)
