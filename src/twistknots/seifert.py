"""Parametric Seifert matrices, Alexander and Conway polynomials.

Each family file holds its skeleton's raw Seifert matrix, one ``seifert``
line per row, each entry an affine expression in the signed crossing counts
n1..nk of the bands, parsed when the family loads (``FamilyDef.seifert``).  A
family derived by freezing bands, as 8_12 is from 10_58, takes its parent's.
``template_for`` specialises the matrix to a sign case by the band rule of
``families``: band i with sign s_i and parity m_i carries n_i = s_i (2 v - m_i)
crossings when v is its twist variable, and a frozen band carries none,
n_i = 0.  The result is the family's template, a square matrix affine in the
twist parameters with int coefficients, which ``SeifertTemplate.instantiate``
evaluates at a twist vector with ``MultiPoly.eval`` in int arithmetic.

One routine, ``_delta``, takes Delta = det(S - t S^T) as a ``HalfLaurent``
keyed by the doubled power of t, and one, ``_conway``, reads it in z.  The
instance and the template differ only in the matrix passed in: the int matrix
of ``instantiate`` gives the Alexander polynomial of one knot, and the
template's ``MultiPoly`` rows give coefficients that are polynomials in the
twist parameters.  The Conway polynomial is det(u S - u^(-1) S^T) with
u = t^(1/2), which equals u^(-size) * Delta(u^2) because the size is even, so
the doubled key e of Delta reads as u^(e - size), rewritten exactly in powers
of z = u - u^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import load_family
from .laurent import HalfLaurent
from .multipoly import MultiPoly


class SeifertError(ValueError):
    pass


@dataclass(frozen=True)
class SeifertTemplate:
    variables: tuple[str, ...]
    rows: tuple[tuple[MultiPoly, ...], ...]   # square, affine entries

    def instantiate(self, twists) -> tuple[tuple[int, ...], ...]:
        """Integer Seifert matrix at a twist vector; a non-integer entry, which
        only a template with a true fraction can give, is a ``SeifertError``."""
        point = dict(zip(self.variables, twists))
        values = [[entry.eval(point) for entry in row] for row in self.rows]
        if any(v.denominator != 1 for row in values for v in row):
            raise SeifertError("non-integer Seifert entry; template bug")
        return tuple(tuple(map(int, row)) for row in values)


def template_for(family: str, signs) -> SeifertTemplate:
    """The family's Seifert matrix with n_i = s_i (2 v - m_i) on an active band
    whose twist variable is v, and n_i = 0 on a frozen band."""
    fam = load_family(family)
    spec = fam.with_signs(signs)
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

    return SeifertTemplate(V, tuple(tuple(map(specialise, row)) for row in fam.seifert))


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


def _delta(rows) -> HalfLaurent:
    """det(S - t S^T) keyed by the doubled power of t, for a square matrix S
    of ints (an instance) or of ``MultiPoly`` entries (a template)."""
    size = len(rows)
    entries = [[HalfLaurent({0: rows[i][j], 2: -rows[j][i]}) for j in range(size)]
               for i in range(size)]
    return _det(entries, HalfLaurent.zero())


def _conway(delta: HalfLaurent, size: int) -> dict:
    """Conway z-coefficients from Delta: det(u S - u^(-1) S^T) = u^(-size) *
    Delta(u^2), so the doubled key e reads as u^(e - size), rewritten in z."""
    return _rewrite_in_z({e - size: c for e, c in delta.terms.items()})


def alexander_poly(tpl: SeifertTemplate, twists) -> HalfLaurent:
    """det(S - t S^T) at an instance; must be a unit at t = 1."""
    delta = _delta(tpl.instantiate(twists))
    if delta.eval_at_one() not in (1, -1):
        raise SeifertError(f"Alexander value at 1 is {delta.eval_at_one()}, not a unit")
    return delta


@dataclass(frozen=True)
class ConwaySeries:
    """Coefficients of z^0, z^2, z^4, z^6 of the Conway polynomial."""

    a0: int
    a2: int
    a4: int
    a6: int

    def is_trivial(self) -> bool:
        return not (self.a2 or self.a4 or self.a6)


def conway_poly(tpl: SeifertTemplate, twists) -> ConwaySeries:
    """det(t^(1/2) S - t^(-1/2) S^T) rewritten in z; normalized so a0 = 1."""
    z_coeffs = _conway(alexander_poly(tpl, twists), len(tpl.rows))
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
    return _conway(_delta(tpl.rows), len(tpl.rows))
