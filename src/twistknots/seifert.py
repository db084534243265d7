"""Parametric Seifert matrices, Alexander and Conway polynomials.

Each family ships a 4x4 template whose entries are affine polynomials in the
twist parameters with the band signs baked in.  The Alexander polynomial of an
instance is det(S - t S^T); the Conway polynomial is det(u S - u^(-1) S^T) with
u = t^(1/2), rewritten exactly in powers of z = u - u^(-1).  Both routes, at an
instance and symbolically in the parameters, use one cofactor-expansion
determinant and one z-rewrite; the symbolic Conway coefficients come from
det(u S - u^(-1) S^T) = u^(-size) * Delta(u^2), Delta = det(S - t S^T), which
holds because the size is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .families import PARAM_LETTERS
from .laurent import HalfLaurent
from .multipoly import MultiPoly


class SeifertError(ValueError):
    pass


@dataclass(frozen=True)
class SeifertTemplate:
    family: str
    variables: tuple[str, ...]
    rows: tuple[tuple[MultiPoly, ...], ...]   # 4x4, affine entries

    def instantiate(self, twists) -> tuple[tuple[int, ...], ...]:
        """Integer Seifert matrix at a twist vector."""
        point = dict(zip(self.variables, twists))
        out = []
        for row in self.rows:
            vals = []
            for entry in row:
                v = entry.eval(point)
                if v.denominator != 1:
                    raise SeifertError("non-integer Seifert entry; template bug")
                vals.append(int(v))
            out.append(tuple(vals))
        return tuple(out)


def _signs5(signs) -> tuple[int, ...]:
    signs = tuple(signs)
    if len(signs) != 5 or any(s not in (+1, -1) for s in signs):
        raise SeifertError("need 5 band signs")
    return signs


def template_7_6(signs) -> SeifertTemplate:
    """Genus-2 matrix for the three-odd/two-even skeleton.

    Built from the unsubstituted self-linking matrix in the raw twist counts
    n_i, then specialized with n_i = s_i (2 t_i - 1) on the odd bands and
    n_i = 2 s_i t_i on the even bands.
    """
    s = _signs5(signs)
    V = PARAM_LETTERS
    half = Fraction(1, 2)

    def odd(i):   # n_i as a polynomial in t_i for odd bands 1..3
        return MultiPoly.var(V, V[i]).scale(2 * s[i]) - MultiPoly.const(V, s[i])

    def even(i):  # n_i for even bands 4..5
        return MultiPoly.var(V, V[i]).scale(2 * s[i])

    n1, n2, n3 = odd(0), odd(1), odd(2)
    n4, n5 = even(3), even(4)
    one = MultiPoly.const(V, 1)
    zero = MultiPoly.zero(V)
    rows = (
        ((n1 + n2).scale(-half), (n1 + one).scale(-half), zero, one),
        ((n1 - one).scale(-half), (n1 + n3).scale(-half), zero, one),
        (zero, zero, n4.scale(-half), one),
        (zero, zero, zero, n5.scale(-half)),
    )
    return SeifertTemplate("7_6", V, rows)


def template_10_58(signs) -> SeifertTemplate:
    """Genus-2 matrix for the all-even skeleton; n_i = 2 s_i t_i throughout."""
    s = _signs5(signs)
    V = PARAM_LETTERS

    # every band is even, so self-linking counts full twists: s_i t_i per band
    def ns(i):
        return MultiPoly.var(V, V[i]).scale(s[i])

    m1, m2, m3, m4, m5 = (ns(i) for i in range(5))
    one = MultiPoly.const(V, 1)
    zero = MultiPoly.zero(V)
    rows = (
        (-(m1 + m5), m1, one, zero),
        (m1, -(m1 + m4), zero, one),
        (zero, zero, -m2, zero),
        (zero, zero, zero, -m3),
    )
    return SeifertTemplate("10_58", V, rows)


def template_8_12(signs) -> SeifertTemplate:
    """The all-even matrix with the fifth band at zero twists."""
    signs = tuple(signs)
    if len(signs) == 4:
        signs = signs + (+1,)
    s = _signs5(signs)
    V = PARAM_LETTERS[:4]

    def ns(i):
        return MultiPoly.var(V, V[i]).scale(s[i])

    m1, m2, m3, m4 = (ns(i) for i in range(4))
    one = MultiPoly.const(V, 1)
    zero = MultiPoly.zero(V)
    rows = (
        (-m1, m1, one, zero),
        (m1, -(m1 + m4), zero, one),
        (zero, zero, -m2, zero),
        (zero, zero, zero, -m3),
    )
    return SeifertTemplate("8_12", V, rows)


TEMPLATE_BUILDERS = {"7_6": template_7_6, "10_58": template_10_58, "8_12": template_8_12}


def template_for(family: str, signs) -> SeifertTemplate:
    try:
        builder = TEMPLATE_BUILDERS[family]
    except KeyError:
        raise SeifertError(f"no Seifert template for family {family!r}")
    return builder(signs)


# --- determinant and z-rewrite ----------------------------------------------

def _det(rows, zero):
    """Determinant by cofactor expansion along the first row.

    Entries need only ``+``, ``-``, ``*`` and truth, so this serves both
    HalfLaurent and MultiPoly matrices; zero entries are skipped, which keeps
    the sparse templates to a handful of minors.
    """
    if len(rows) == 1:
        return rows[0][0]
    total = zero
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * _det(minor, zero)
        total = total - term if j % 2 else total + term
    return total


def _rewrite_in_z(laurent: dict) -> dict:
    """Rewrite {exponent of u: coefficient}, u = t^(1/2), as {d: coefficient
    of z^d} with z = u - u^(-1); exact, and the remainder must vanish.

    c z^d is formed from c by d rounds of shift-and-subtract, so coefficients
    need only ``+`` and ``-`` (int, Fraction or MultiPoly alike).
    """
    rest = {e: c for e, c in laurent.items() if c}
    out = {}
    while rest:
        d = max(rest)
        if d < 0:
            raise SeifertError("rewrite in z left negative-degree remainder")
        c = out[d] = rest[d]
        term = {0: c}
        for _ in range(d):
            step = {}
            for e, x in term.items():
                step[e + 1] = step[e + 1] + x if e + 1 in step else x
                step[e - 1] = step[e - 1] - x if e - 1 in step else -x
            term = step
        for e, x in term.items():
            left = rest[e] - x if e in rest else -x
            if left:
                rest[e] = left
            else:
                del rest[e]
    return out


def alexander_poly(tpl: SeifertTemplate, twists) -> HalfLaurent:
    """det(S - t S^T) at an instance; must be a unit at t = 1."""
    S = tpl.instantiate(twists)
    size = len(S)
    entries = [[HalfLaurent({0: S[i][j], 2: -S[j][i]}) for j in range(size)]
               for i in range(size)]
    delta = _det(entries, HalfLaurent.zero())
    if delta.eval_at_one() not in (1, -1):
        raise SeifertError(f"Alexander value at 1 is {delta.eval_at_one()}, not a unit")
    return delta


def alexander_coeffs(tpl: SeifertTemplate, twists) -> dict[int, int]:
    """Coefficients of det(S - t S^T) keyed by the power of t."""
    delta = alexander_poly(tpl, twists)
    return {e // 2: c for e, c in delta.terms.items()}


@dataclass(frozen=True)
class ConwaySeries:
    """Coefficients of z^0, z^2, z^4, z^6 of the Conway polynomial."""

    a0: Fraction
    a2: Fraction
    a4: Fraction
    a6: Fraction

    def is_trivial(self) -> bool:
        return not (self.a2 or self.a4 or self.a6)


def conway_poly(tpl: SeifertTemplate, twists) -> ConwaySeries:
    """det(t^(1/2) S - t^(-1/2) S^T) rewritten in z; normalized so a0 = 1."""
    S = tpl.instantiate(twists)
    size = len(S)
    entries = [[HalfLaurent({1: S[i][j], -1: -S[j][i]}) for j in range(size)]
               for i in range(size)]
    z_coeffs = _rewrite_in_z(_det(entries, HalfLaurent.zero()).terms)
    if any(d % 2 for d in z_coeffs):
        raise SeifertError("odd z-powers in a knot Conway polynomial")
    if z_coeffs.get(0, 0) != 1:
        raise SeifertError(f"Conway normalization is {z_coeffs.get(0, 0)}, not 1")
    return ConwaySeries(Fraction(1), Fraction(z_coeffs.get(2, 0)),
                        Fraction(z_coeffs.get(4, 0)), Fraction(z_coeffs.get(6, 0)))


def leading_coeff_symbolic(tpl: SeifertTemplate) -> MultiPoly:
    """det(S): the coefficient of t^4 in det(S - t S^T), sign convention det(S)."""
    return _det(tpl.rows, MultiPoly.zero(tpl.variables))


def conway_symbolic(tpl: SeifertTemplate) -> dict[int, MultiPoly]:
    """Conway z-coefficients as polynomials in the twist parameters.

    Takes det(S - t S^T) over the parameters and t, then reads t^p as
    u^(2p - size) (size is even) and rewrites in z.
    """
    size = len(tpl.rows)
    ring = tpl.variables + ("t",)
    t = MultiPoly.var(ring, "t")

    def lift(p: MultiPoly) -> MultiPoly:
        return MultiPoly(ring, {m + (0,): c for m, c in p.terms.items()})

    rows = [[lift(tpl.rows[i][j]) - t * lift(tpl.rows[j][i]) for j in range(size)]
            for i in range(size)]
    delta = _det(rows, MultiPoly.zero(ring))
    laurent = {2 * p - size: MultiPoly(tpl.variables, {m[:-1]: c for m, c in coeff.terms.items()})
               for p, coeff in delta.coefficients_in("t").items()}
    return _rewrite_in_z(laurent)
