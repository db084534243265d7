"""Exact Laurent polynomials in t^(1/2) and their values at a fifth root of unity.

Exponents are stored doubled, so the key ``e`` represents t^(e/2) and all
arithmetic stays exact, in the coefficients' own ring.  Values produced
from knots have only even keys (integral powers of t).

At a primitive fifth root of unity zeta, t^k takes the value zeta^(k mod 5), so
V(zeta) = s_0 + s_1 zeta + ... + s_4 zeta^4, where s_r sums the coefficients of
the powers t^k with k = r mod 5.  The only rational relation among 1, zeta, ...,
zeta^4 is 1 + zeta + ... + zeta^4 = 0, so the coordinates
(s_0 - s_4, s_1 - s_4, s_2 - s_4, s_3 - s_4) in the basis 1, zeta, zeta^2,
zeta^3 determine V(zeta) exactly; V(zeta) = 1 exactly when they are (1, 0, 0, 0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


def exact_quotient(num, den: int) -> int | Fraction:
    """num/den as an int when den divides num, otherwise as a ``Fraction``;
    num is an int or a ``Fraction`` and den a positive int."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


class HalfLaurent:
    """Immutable Laurent polynomial in t^(1/2) with exact coefficients.

    ``terms`` maps distinct int keys (doubled exponents) to nonzero
    coefficients from any exact ring: the arithmetic needs only ``+``, ``-``,
    ``*`` and truth, so ``MultiPoly`` coefficients serve a Seifert template's
    Delta, while the evaluations and ``format`` need ints or ``Fraction``s,
    whose equal values compare and hash equal and format the same.  The
    constructor only drops zero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, object] | None = None):
        self.terms = {e: c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return cls()

    @classmethod
    def one(cls) -> "HalfLaurent":
        return cls({0: 1})

    @classmethod
    def t_power(cls, e2: int) -> "HalfLaurent":
        """t^(e2/2)."""
        return cls({e2: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, HalfLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return HalfLaurent(out)

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        out: dict[int, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return HalfLaurent(out)

    def scale(self, k) -> "HalfLaurent":
        return HalfLaurent({e: k * c for e, c in self.terms.items()})

    def is_knot_valued(self) -> bool:
        """True when every power of t is integral."""
        return all(e % 2 == 0 for e in self.terms)

    def eval_at_one(self):
        return sum(self.terms.values())

    def derivs_at_one(self, kmax: int) -> list[int | Fraction]:
        """Exact d^k/dt^k at t=1 for k = 0..kmax (0 <= kmax <= 8).

        The k-th derivative of t^(e/2) at 1 is the falling factorial
        (e/2)(e/2 - 1)...(e/2 - k + 1) = prod_{r<k} (e - 2r) / 2^k, so the
        products are summed in the coefficients' own arithmetic and divided by
        2^k once per k: the value is an int where 2^k divides the sum, as it
        does for every order when the coefficients are ints and the exponents
        integral, and a ``Fraction`` otherwise."""
        if not 0 <= kmax <= 8:
            raise ValueError(f"kmax {kmax} is outside 0..8")
        totals = [0] * (kmax + 1)
        for e, c in self.terms.items():
            for k in range(kmax + 1):
                totals[k] += c
                c *= e - 2 * k
        return [exact_quotient(total, 2 ** k) for k, total in enumerate(totals)]

    def eval_root5(self) -> tuple:
        """Coordinates of V(zeta) in the basis 1, zeta, zeta^2, zeta^3, where zeta
        is a primitive fifth root of unity; integral powers of t only."""
        if not self.is_knot_valued():
            raise ValueError("half-integral exponent; value is not knot-valued")
        s = [0] * 5
        for e, c in self.terms.items():
            s[e // 2 % 5] += c
        return tuple(x - s[4] for x in s[:4])

    def format(self) -> str:
        """Canonical text form, exponents descending: '-t^(5/2) - t^(1/2)'."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if e % 2 == 0:
                    expo = e // 2
                    power = "t" if expo == 1 else f"t^{expo}" if expo > 0 else f"t^({expo})"
                else:
                    power = f"t^({e}/2)"
                body = power if mag == 1 else f"{mag}*{power}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"HalfLaurent({self.format()})"


# Jones polynomial of the 2-component unlink; multiplying by it realizes
# disjoint union with an unknot.
def unlink_factor() -> HalfLaurent:
    return HalfLaurent({1: -1, -1: -1})
