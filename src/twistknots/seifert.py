"""Parametric Seifert matrices, Alexander and Conway polynomials.

``SKELETONS`` holds one raw 4x4 Seifert matrix per skeleton, each entry an
affine expression in the signed crossing counts n1..nk of the bands, written
in the grammar of ``multipoly.parse_poly`` and parsed once, on first use.  A
family maps to its skeleton's matrix; 8_12 maps to 10_58's, whose band 5 it
freezes.  ``template_for`` specialises the matrix to a sign case by the band
rule of ``families``: band i with sign s_i and parity m_i carries
n_i = s_i (2 v - m_i) crossings when v is its twist variable, and a frozen
band carries none, n_i = 0.  The result is the family's template, a 4x4
matrix affine in the twist parameters.  The Alexander polynomial of an
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
from functools import lru_cache

from .families import load_family
from .laurent import HalfLaurent
from .multipoly import MultiPoly, parse_poly


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


# Raw Seifert matrices in the signed crossing counts n1..n5 of the bands.
# 8_12 is 10_58 with band 5 frozen, which ``template_for`` sets to n5 = 0.
SKELETONS = {
    "7_6": (
        ("-(n1+n2)/2", "-(n1+1)/2", "0", "1"),
        ("-(n1-1)/2", "-(n1+n3)/2", "0", "1"),
        ("0", "0", "-n4/2", "1"),
        ("0", "0", "0", "-n5/2"),
    ),
    "10_58": (
        ("-(n1+n5)/2", "n1/2", "1", "0"),
        ("n1/2", "-(n1+n4)/2", "0", "1"),
        ("0", "0", "-n2/2", "0"),
        ("0", "0", "0", "-n3/2"),
    ),
}
SKELETONS["8_12"] = SKELETONS["10_58"]


@lru_cache(maxsize=None)
def _skeleton(family: str) -> tuple[tuple[MultiPoly, ...], ...]:
    """The family's skeleton matrix parsed over n1..nk, once per family."""
    try:
        rows = SKELETONS[family]
    except KeyError:
        raise SeifertError(f"no Seifert template for family {family!r}") from None
    counts = tuple(f"n{i + 1}" for i in range(len(load_family(family).parities)))
    return tuple(tuple(parse_poly(entry, counts) for entry in row) for row in rows)


def template_for(family: str, signs) -> SeifertTemplate:
    """The skeleton matrix with n_i = s_i (2 v - m_i) on an active band whose
    twist variable is v, and n_i = 0 on a frozen band."""
    skeleton = _skeleton(family)
    spec = load_family(family).with_signs(signs)
    V = spec.variables
    zero = MultiPoly.zero(V)
    counts = [zero] * len(spec.bands)
    for v, i in zip(V, spec.active_bands):
        band = spec.bands[i]
        counts[i] = (MultiPoly.var(V, v).scale(2 * band.sign)
                     - MultiPoly.const(V, band.sign * band.parity))

    def specialise(entry: MultiPoly) -> MultiPoly:
        out = zero
        for mono, c in entry.terms.items():
            term = MultiPoly.const(V, c)
            for n, e in zip(counts, mono):
                for _ in range(e):
                    term = term * n
            out = out + term
        return out

    return SeifertTemplate(family, V, tuple(tuple(map(specialise, row)) for row in skeleton))


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
