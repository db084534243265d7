"""Parametric Seifert matrices, Alexander and Conway polynomials.

Each family file holds its skeleton's raw Seifert matrix, one ``seifert``
line per row, read when the family loads as affine forms in the signed
crossing counts n1..nk of the bands (``FamilyDef.seifert``); a family derived
by freezing bands, as 8_12 is from 10_58, takes its parent's.
``template_for`` composes each entry with the band rule of
``FamilySpec.band_counts``, n_i = s_i (2 v - m_i) for band i of sign s_i and
parity m_i with twist variable v, and 0 on a frozen band.  The template holds
affine forms in the twist parameters with int coefficients; an entry left
with a true fraction is refused, as it is not an integer at some twist
vector.  ``instantiate`` evaluates it a row at a time by
``multipoly.affine_values``; ``rows``, its entries as ``MultiPoly``s, serves
the symbolic determinants.

``_delta`` takes Delta = det(S - t S^T) as a ``HalfLaurent`` keyed by the
doubled power of t, and ``_conway`` reads it in z.  The template's
``MultiPoly`` rows go through ``_delta``, which gives coefficients that are
polynomials in the twist parameters.  The int matrix of ``instantiate`` goes
through ``_packed_delta``, which gives the same Delta of one knot from one
integer determinant by Kronecker substitution: t = X = 2^B, with
B = bound.bit_length() + 2 and

    bound = prod_i sum_j (|S_ij| + |S_ji|),

so det(S - X S^T) = sum_e c_e X^e and the c_e are read back as balanced
base-X digits, each in [-X/2, X/2).  That needs |c_e| < X/2, and
|c_e| <= bound < X/4 holds: expanding the product of the row 1-norms of
|S| + |S^T| t gives every term of the Leibniz expansion of det(S - t S^T)
in absolute value, with nonnegative coefficients that sum to the bound.  A
bound of 0 means a zero row in S - t S^T and in S - X S^T alike, so both
determinants are 0.  By the same reading, Delta = t^g, g half the size,
holds exactly when the packed determinant is X^g, and ``_packed_delta``
returns t^g as soon as it sees that.  Such a Delta is the Conway polynomial 1,
which every sweep exception has, and ``conway_poly`` returns it without the
z-rewrite.  A template keeps ``_delta``, since a polynomial entry has no size
to bound and no integer to pack, and it is built once per sign case.

The Conway polynomial is det(u S - u^(-1) S^T) with u = t^(1/2), which
equals u^(-size) * Delta(u^2) because the size is even, so the doubled key e
of Delta reads as u^(e - size), rewritten exactly in powers of z = u - u^(-1).
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .families import FamilyError, int_twists, load_family
from .laurent import HalfLaurent
from .multipoly import MultiPoly, affine_values


class SeifertError(ValueError):
    pass


class SeifertTemplate(NamedTuple):
    """A square matrix of affine forms (constant, ((index, coefficient), ...))
    with int coefficients, indexed as the twist parameters ``variables``."""

    variables: tuple[str, ...]
    entries: tuple[tuple[tuple, ...], ...]

    @property
    def rows(self) -> tuple[tuple[MultiPoly, ...], ...]:
        """The entries as ``MultiPoly``s, for the symbolic determinants."""
        return tuple(tuple(MultiPoly.from_affine(self.variables, e) for e in row)
                     for row in self.entries)

    def instantiate(self, twists) -> tuple[tuple[int, ...], ...]:
        """The int Seifert matrix at a twist vector of ints."""
        n = int_twists(twists)
        return tuple(affine_values(row, n) for row in self.entries)


def template_for(family: str, signs) -> SeifertTemplate:
    """The family's Seifert matrix with ``FamilySpec.band_counts`` put in for the
    crossing counts; an entry left with a true fraction is a ``FamilyError``."""
    fam = load_family(family)
    spec = fam.with_signs(signs)
    counts = spec.band_counts()

    def specialise(form) -> tuple:
        const, coeffs = form[0], {}
        for i, c in form[1]:
            count, linear = counts[i]
            const += c * count
            for j, a in linear:
                coeffs[j] = coeffs.get(j, 0) + c * a
        if any(x.denominator != 1 for x in (const, *coeffs.values())):
            text = MultiPoly.from_affine(spec.variables, (const, coeffs.items())).format()
            raise FamilyError(f"non-integer Seifert entry {text} in {family}[{spec.signs_str()}]")
        return const.numerator, tuple((j, a.numerator) for j, a in sorted(coeffs.items()) if a)

    return SeifertTemplate(spec.variables,
                           tuple(tuple(map(specialise, row)) for row in fam.seifert))


# --- determinant and z-rewrite ----------------------------------------------

def _det(rows, zero):
    """Determinant of a square matrix of even size by Laplace expansion along
    its first two rows: each 2 x 2 minor of those rows, a d - b c, times the
    determinant of the rows below without the minor's two columns, with sign
    (-1)^(j + l + 1) for columns j < l counted from 0.

    Entries need only ``+``, ``-``, ``*`` and truth, so this serves
    HalfLaurent, MultiPoly and int matrices alike; zero columns of the two
    rows and zero minors are skipped, which keeps the sparse templates to a
    handful of products.  A Seifert matrix has even size (``families``
    refuses any other).
    """
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    top, second, below = rows[0], rows[1], rows[2:]
    size = len(rows)
    total = zero
    for j in range(size - 1):
        a, c = top[j], second[j]
        if not (a or c):
            continue
        for l in range(j + 1, size):
            minor = a * second[l] - top[l] * c
            if not minor:
                continue
            term = minor * _det([row[:j] + row[j + 1:l] + row[l + 1:] for row in below], zero)
            total = total + term if (j + l) % 2 else total - term
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


def _delta(rows) -> HalfLaurent:
    """det(S - t S^T) keyed by the doubled power of t, for a square matrix S
    of ``MultiPoly`` entries (a template), or of ints as the reference that
    the tests hold ``_packed_delta`` to."""
    size = len(rows)
    entries = [[HalfLaurent({0: rows[i][j], 2: -rows[j][i]}) for j in range(size)]
               for i in range(size)]
    return _det(entries, HalfLaurent.zero())


def _packed_delta(rows) -> HalfLaurent:
    """``_delta`` of a square int matrix S, from the one int determinant
    det(S - X S^T) read in balanced base-X digits (module docstring)."""
    cols = tuple(zip(*rows))
    bound = prod(sum(map(abs, row)) + sum(map(abs, col)) for row, col in zip(rows, cols))
    width = bound.bit_length() + 2
    base, half = 1 << width, 1 << (width - 1)
    packed = _det([[a - base * b for a, b in zip(row, col)] for row, col in zip(rows, cols)], 0)
    if packed == 1 << width * (len(rows) // 2):
        return HalfLaurent({len(rows): 1})   # t^g, the Delta of a trivial Conway polynomial
    terms, e = {}, 0
    while packed:
        c = (packed + half) % base - half
        terms[e] = c
        packed = (packed - c) >> width
        e += 2
    return HalfLaurent(terms)


def _conway(delta: HalfLaurent, size: int) -> dict:
    """Conway z-coefficients from Delta: det(u S - u^(-1) S^T) = u^(-size) *
    Delta(u^2), so the doubled key e reads as u^(e - size), rewritten in z."""
    return _rewrite_in_z({e - size: c for e, c in delta.terms.items()})


def alexander_poly(tpl: SeifertTemplate, twists) -> HalfLaurent:
    """det(S - t S^T) at an instance, from the int matrix of ``instantiate``;
    must be a unit at t = 1."""
    delta = _packed_delta(tpl.instantiate(twists))
    if delta.eval_at_one() not in (1, -1):
        raise SeifertError(f"Alexander value at 1 is {delta.eval_at_one()}, not a unit")
    return delta


class ConwaySeries(NamedTuple):
    """Coefficients of z^0, z^2, z^4, z^6 of the Conway polynomial."""

    a0: int
    a2: int
    a4: int
    a6: int

    def is_trivial(self) -> bool:
        return not (self.a2 or self.a4 or self.a6)


def conway_poly(tpl: SeifertTemplate, twists) -> ConwaySeries:
    """det(t^(1/2) S - t^(-1/2) S^T) rewritten in z; normalized so a0 = 1.
    A Delta of t^g, g half the size, is the Conway polynomial 1 and needs no
    rewrite."""
    delta = alexander_poly(tpl, twists)
    if delta.terms == {len(tpl.entries): 1}:
        return ConwaySeries(1, 0, 0, 0)
    z_coeffs = _conway(delta, len(tpl.entries))
    if any(d % 2 for d in z_coeffs):
        raise SeifertError("odd z-powers in a knot Conway polynomial")
    if z_coeffs.get(0, 0) != 1:
        raise SeifertError(f"Conway normalization is {z_coeffs.get(0, 0)}, not 1")
    return ConwaySeries(1, z_coeffs.get(2, 0), z_coeffs.get(4, 0), z_coeffs.get(6, 0))


def leading_coeff_symbolic(tpl: SeifertTemplate) -> MultiPoly:
    """det(S): the coefficient of t^4 in det(S - t S^T), sign convention det(S)."""
    return _det(tpl.rows, MultiPoly.zero(tpl.variables))


def conway_symbolic(tpl: SeifertTemplate) -> dict[int, MultiPoly]:
    """Conway z-coefficients as polynomials in the twist parameters, from
    det(S - t S^T) over the template's rows."""
    return _conway(_delta(tpl.rows), len(tpl.entries))
