"""Twist-family engine: Jones polynomials of knots obtained by adding twists in bands.

A family is a knot skeleton with k twist bands.  Band i carries s_i(2n_i - m_i)
crossings, where s_i is the band sign, m_i the parity (1 for odd bands, 0 for
even) and n_i >= 1 the twist parameter.  The skein relation (Lickorish, An
Introduction to Knot Theory, ch. 3) writes the Jones polynomial of an instance
as a sum over the 2^k ways of either resolving each band (state 0) or retaining
it with its residual -s_i m_i half-twists (state 1):

    V(n_1..n_k) = sum over states x of  (prod_i  pre(s_i, x_i, n_i)) * V_x

where V_x is the Jones polynomial of the fully degenerate base link, looked up
in the family's base-case table, which is built when its file loads.  With
T_i = t^(2 s_i n_i) the prefactors are pre(s, 1, n) = T and

    pre(s, 0, n) = (1 + t^(2s) + ... + t^(2s(n-1))) (t^(3s/2) - t^(s/2))
                 = -t^(s/2) (1 - T) / (1 + t^s),

so clearing the denominators gives the T-form

    prod_i (1 + t^(s_i)) * V = sum over 0/1 vectors m of  T^m c_m(t),

in which each c_m is a short Laurent polynomial in t^(1/2) that does not
depend on n.  ``t_form`` builds the c_m once per sign case; an instance shifts
each c_m by T^m, adds them up and divides exactly by the (1 + t^(s_i)), in time
linear in the twists (``assemble_jones``).  The sum of a knot holds integral
powers of t only, so every half-integral slot must be 0 and the divisions run
on the integral powers alone, one prefix sum per band.  V = 1 exactly when the
sum equals prod_i (1 + t^(s_i)); each side packed into one int by Kronecker
substitution, t^(1/2) = 2^W with W fixed per sign case by a bound on the
coefficients, that identity is tested before any division, and it decides
every sweep exception without a dense list.

The derivatives at t=1, as polynomials in n_1..n_k, come from the state sum by
an independent route: every prefactor and every V_x becomes its Taylor series
in (t - 1), and the states are summed out one band at a time, in integers
over one common denominator (``symbolic_derivs``).  It never uses the T-form,
so ``jones_derivs`` compares two constructions.

A family file also holds its skeleton's Seifert matrix, affine forms in the
bands' crossing counts, and its diagrams' disk layout, which ``seifert`` and
``diagrams`` read with ``FamilySpec.band_counts`` (docs/family-format.md).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import accumulate, cycle, product
from math import factorial, lcm
from operator import add, lshift, mul
from typing import NamedTuple

from .laurent import HalfLaurent, exact_quotient, unlink_factor
from .multipoly import ExprError, MultiPoly, falling_factorial_poly, parse_poly, power_sum_poly

PARAM_LETTERS = ("a", "b", "c", "d", "e")


class FamilyError(ValueError):
    pass


class BandSpec(NamedTuple):
    """One band of a sign case; ``FamilyDef.with_signs`` checks its fields."""

    sign: int        # +1 or -1
    parity: int      # 1 = odd band, 0 = even band
    frozen: bool = False  # frozen bands carry no twists and no parameter


# The base links of a family, one entry per full band state x, at the index
# that x reads as a binary number with band 1 the leading digit (the order of
# product((0, 1), repeat=k)).  An entry (u, factors) is the link of u disjoint
# unknots beside the connected sum of one two-circle pattern per factor, each
# factor the 0-based indices of its odd bands: V_x = unlink^u * prod X(...).
BaseTable = tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]


class FamilySpec(NamedTuple):
    """A family with concrete band signs; twist parameters stay free.

    Build one with ``FamilyDef.with_signs`` only: it fills ``active_bands``
    from the bands' frozen flags, once per spec, where a property would
    recompute it on every read.  It keys the ``t_form`` cache, so it compares
    by value.  It hashes by its name and bands alone, which equal specs share,
    since hashing the base table on every lookup cost more than the lookup
    saved."""

    name: str
    bands: tuple[BandSpec, ...]
    base: BaseTable
    active_bands: tuple[int, ...]   # the bands that are not frozen, in order

    def __hash__(self):
        return hash((self.name, self.bands))

    @property
    def variables(self) -> tuple[str, ...]:
        return PARAM_LETTERS[: len(self.active_bands)]

    def signs_str(self) -> str:
        return "".join("+" if b.sign > 0 else "-" for b in self.bands)

    def band_counts(self) -> tuple:
        """The band rule: the signed crossing count n_i = s_i (2 v - m_i) of each
        band as an affine form over ``variables``, v the band's twist variable,
        and 0 on a frozen band."""
        return tuple((-b.sign * b.parity, ((self.active_bands.index(i), 2 * b.sign),))
                     if i in self.active_bands else (0, ()) for i, b in enumerate(self.bands))


def parse_signs(text: str, k: int) -> tuple[int, ...]:
    if len(text) != k or any(ch not in "+-" for ch in text):
        raise FamilyError(f"sign case must be {k} characters over +/-: {text!r}")
    return tuple(+1 if ch == "+" else -1 for ch in text)


def int_twists(twists) -> tuple[int, ...]:
    """The twists as a tuple; a twist whose type is not int is a ``FamilyError``."""
    n = tuple(twists)
    if any(type(v) is not int for v in n):
        raise FamilyError(f"twist parameters must be ints, got {n}")
    return n


def check_twists(spec: FamilySpec, twists) -> tuple[int, ...]:
    n = int_twists(twists)
    if len(n) != len(spec.active_bands):
        raise FamilyError(
            f"{spec.name} takes {len(spec.active_bands)} twist parameters, got {len(n)}")
    if any(v < 1 for v in n):
        raise FamilyError("twist parameters must be >= 1")
    return n


# --- prefactor derivatives ---------------------------------------------------

@lru_cache(maxsize=None)
def prefactor_deriv_poly(s: int, x: int, k: int) -> MultiPoly:
    """d^k/dt^k of the band prefactor at t=1, as an exact polynomial in the
    twist parameter n.  Derived symbolically, never transcribed from a table."""
    if not 0 <= k <= 8:
        raise FamilyError(f"derivative order {k} is outside 0..8")
    nv = ("n",)
    if x == 1:
        # k-th derivative of t^(2sn) at 1 is the falling factorial of 2sn
        return falling_factorial_poly(MultiPoly.var(nv, "n").scale(2 * s), k)
    # resolved band: sum over the geometric expansion, term exponents s(2j + 3/2)
    # and s(2j + 1/2); the j-sum becomes a power-sum polynomial in n
    jv = ("j",)
    j = MultiPoly.var(jv, "j")
    hi = falling_factorial_poly((j.scale(2) + MultiPoly.const(jv, Fraction(3, 2))).scale(s), k)
    lo = falling_factorial_poly((j.scale(2) + MultiPoly.const(jv, Fraction(1, 2))).scale(s), k)
    out = MultiPoly.zero(nv)
    for mono, coeff in (hi - lo).terms.items():
        out = out + power_sum_poly(mono[0], nv, "n").scale(coeff)
    return out


@lru_cache(maxsize=None)
def _prefactor_series(s: int, kmax: int) -> tuple[int, tuple]:
    """Taylor series in (t - 1), up to (t - 1)^kmax, of the two prefactors of a
    band of sign s, over one common denominator D: (D, series), where
    series[x][k] lists the (exponent of n, integer) pairs of D times the
    prefactor's k-th derivative at 1 over k!."""
    coeffs = [[prefactor_deriv_poly(s, x, k).scale(Fraction(1, factorial(k)))
               for k in range(kmax + 1)] for x in (0, 1)]
    den = lcm(*(c.denominator for row in coeffs for p in row for c in p.terms.values()))
    return den, tuple(tuple(tuple((m[0], int(c * den)) for m, c in p.terms.items())
                            for p in row) for row in coeffs)


# --- base-case links --------------------------------------------------------

@lru_cache(maxsize=None)
def _x_chain(sign: int, n: int) -> HalfLaurent:
    """Jones value of n same-sign odd bands joining two circles."""
    prev2, prev1 = unlink_factor(), HalfLaurent.one()        # n = 0 and n = 1
    step2 = HalfLaurent.t_power(4 * sign)                    # t^(2 sign)
    step1 = HalfLaurent({3 * sign: 1, sign: -1})             # t^(3s/2) - t^(s/2)
    for _ in range(n - 1):
        prev2, prev1 = prev1, step2 * prev2 + step1 * prev1
    return prev1 if n else prev2


def xn_jones(args) -> HalfLaurent:
    """Jones polynomial of the two-circle pattern with the given residual bands.

    Zero entries are dropped, and adjacent opposite-sign pairs cancel; the
    bands are arranged cyclically, so cancellation wraps around and leaves
    |sum of args| bands of the sign of the sum.
    """
    if any(a not in (-1, 0, 1) for a in args):
        raise FamilyError("band arguments must be -1, 0 or +1")
    total = sum(args)
    return _x_chain(1 if total >= 0 else -1, abs(total))


# --- family definition files -------------------------------------------------

class FamilyDef(NamedTuple):
    name: str
    parities: tuple[int, ...]
    frozen: tuple[bool, ...]
    base: BaseTable
    seifert: tuple[tuple[tuple, ...], ...]   # affine forms over the crossing counts n1..nk
    disks: tuple[tuple[tuple[int, int, int], ...], ...]   # each disk's (band, end, flip) feet

    def with_signs(self, signs) -> FamilySpec:
        if isinstance(signs, str):
            signs = parse_signs(signs, len(self.parities))
        if len(signs) != len(self.parities):
            raise FamilyError("sign count does not match band count")
        if any(s not in (+1, -1) for s in signs):
            raise FamilyError("band sign must be +1 or -1")
        if any(p not in (0, 1) for p in self.parities):
            raise FamilyError("band parity must be 0 or 1")
        if any(f and p for p, f in zip(self.parities, self.frozen)):
            raise FamilyError("frozen bands must be even")
        bands = tuple(BandSpec(s, p, f)
                      for s, p, f in zip(signs, self.parities, self.frozen))
        active = tuple(i for i, f in enumerate(self.frozen) if not f)
        return FamilySpec(self.name, bands, self.base, active)


def parse_family_file(text: str) -> FamilyDef:
    name = None
    heads: list[str] = []
    parities: list[int] = []
    base_kind = None
    rows: list[tuple[str, str]] = []   # (line, text after the directive) per base row
    order: tuple[int, ...] | None = None
    layout: dict[str, list[tuple[str, str]]] = {"seifert": [], "disk": []}

    for raw in text.splitlines():
        line = raw.strip()
        # '#' is the connected-sum symbol, so comments are whole-line only
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        heads.append(head)
        if head == "family":
            name = rest
        elif head == "from":
            derivation = line
        elif head == "band":
            fields = rest.split()
            if len(fields) != 2 or fields[1] not in ("odd", "even"):
                raise FamilyError(f"bad band line {line!r}: want 'band i odd|even'")
            if _ints(fields[:1], line) != (len(parities) + 1,):
                raise FamilyError("bands must be listed in order starting at 1")
            parities.append(1 if fields[1] == "odd" else 0)
        elif head == "base":
            base_kind = rest
        elif head == "order":
            order = tuple(i - 1 for i in _ints(rest.split(), line))
        elif head in ("compose", "count"):
            rows.append((line, rest))
        elif head in layout:
            layout[head].append((line, rest))
        else:
            raise FamilyError(f"unknown directive {head!r}")

    if "from" in heads:
        if sorted(heads) != ["family", "from"]:
            raise FamilyError("a 'from' file has a 'family' line, one 'from' line and nothing else")
        return _derive(name, derivation)
    if name is None or base_kind is None:
        raise FamilyError("family file needs 'family' and 'base' lines")
    k = len(parities)
    if base_kind == "compose" and order is None:
        key_bands = tuple(i for i, p in enumerate(parities) if p == 0)
    elif base_kind == "count" and order is not None:
        if any(not 0 <= i < k for i in order):
            raise FamilyError(f"'order' names a band outside 1..{k}")
        if len(set(order)) != len(order):
            raise FamilyError("'order' names a band twice")
        key_bands = order
    else:
        raise FamilyError("family file needs 'base compose', or 'base count' "
                          "with an 'order' line")
    table: dict[tuple[int, ...], object] = {}
    for line, rest in rows:
        key_text, _, expr = rest.partition("->")
        if line.split()[0] != base_kind:
            raise FamilyError(f"{line!r} in a 'base {base_kind}' file")
        value = (_compose_entry(expr, line, parities) if base_kind == "compose"
                 else _poly(expr, tuple(f"x{i + 1}" for i in range(k)), line))
        key = _ints(key_text.split(), line)
        if len(key) != len(key_bands) or any(v > 1 for v in key):
            raise FamilyError(f"bad {base_kind} line {line!r}: "
                              f"want {len(key_bands)} states 0 or 1 before '->'")
        if key in table:
            raise FamilyError(f"two {base_kind} rows for states {key}")
        table[key] = value
    base = tuple(_base_entry(table, key_bands, x) for x in product((0, 1), repeat=k))
    return FamilyDef(name, tuple(parities), (False,) * k, base,
                     _seifert(layout["seifert"], k), _disks(layout["disk"], k))


def _seifert(lines, k: int) -> tuple[tuple[tuple, ...], ...]:
    """The 'seifert' lines as a square matrix of even size of affine forms over
    n1..nk; an entry that does not parse or is not affine is a load error
    naming its line."""
    counts = tuple(f"n{i + 1}" for i in range(k))
    matrix = []
    for line, rest in lines:
        try:
            matrix.append(tuple(parse_poly(entry, counts).affine() for entry in rest.split(",")))
        except ExprError as exc:
            raise FamilyError(f"bad seifert line {line!r}: {exc}") from None
    if not matrix or len(matrix) % 2 or any(len(row) != len(matrix) for row in matrix):
        raise FamilyError(f"'seifert' lines give rows of lengths {[len(r) for r in matrix]}: "
                          f"want a nonempty square matrix of even size")
    return tuple(matrix)


def _disks(lines, k: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The feet 'band:end:flip' of the two 'disk' lines: one foot at each end
    (0 top, 1 bottom) of each band 1..k, each with flip 0 or 1."""
    if len(lines) != 2:
        raise FamilyError(f"family file needs two 'disk' lines, got {len(lines)}")
    disks = tuple(tuple(_ints(foot.split(":"), line) for foot in rest.split())
                  for line, rest in lines)
    feet = [f for d in disks for f in d]
    if (any(len(f) != 3 or f[2] > 1 for f in feet)
            or sorted(f[:2] for f in feet) != list(product(range(1, k + 1), (0, 1)))):
        raise FamilyError(f"bad disk lines {[rest for _, rest in lines]}: want feet band:end:flip "
                          f"with flip 0 or 1, one at each end 0 and 1 of bands 1..{k}")
    return disks


def _base_entry(table: dict, key_bands: tuple[int, ...], x: tuple[int, ...]):
    """The base-table entry of full state x: its compose row, or, from a count
    row, one unknot fewer than the count at x."""
    key = tuple(x[i] for i in key_bands)
    if key not in table:
        raise FamilyError(f"no base-case row for states {key}")
    row = table[key]
    if not isinstance(row, MultiPoly):
        return row
    count = row.eval(dict(zip(row.vars, x)))
    if count.denominator != 1 or count < 1:
        raise FamilyError(f"unknot count {count} is not an integer >= 1 for states {x}")
    return int(count) - 1, ()


def _derive(name: str, line: str) -> FamilyDef:
    """The family of ``from <parent> freeze <i> ...``: the parent with the
    named bands frozen as well as its own."""
    fields = line.split()
    if len(fields) < 4 or fields[2] != "freeze":
        raise FamilyError(f"bad from line {line!r}: want 'from <family> freeze <i> ...'")
    parent, bands = load_family(fields[1]), _ints(fields[3:], line)
    for i in bands:
        if not 1 <= i <= len(parent.parities) or parent.parities[i - 1] != 0:
            raise FamilyError(f"bad from line {line!r}: {parent.name} has no even band {i}")
    frozen = tuple(f or i + 1 in bands for i, f in enumerate(parent.frozen))
    return parent._replace(name=name, frozen=frozen)


def _ints(fields, line: str) -> tuple[int, ...]:
    """The fields of a family-file line as plain ASCII digit strings turned into
    integers, or a load error naming the line."""
    if not all(v.isascii() and v.isdigit() for v in fields):
        raise FamilyError(f"bad {line.split()[0]} line {line!r}: want integers")
    return tuple(int(v) for v in fields)


def _poly(text: str, names: tuple[str, ...], line: str) -> MultiPoly:
    """``parse_poly`` of a family-file field, or a load error naming the line."""
    try:
        return parse_poly(text, names)
    except ExprError as exc:
        raise FamilyError(f"bad {line.split()[0]} line {line!r}: {exc}") from None


def _compose_entry(expr: str, line: str, parities) -> tuple:
    """A compose row's factors as a base-table entry: the number of U factors,
    and each X factor's bands, which must be odd, as 0-based indices."""
    unknots, factors = 0, []
    for token in expr.replace("#", " ").split():
        if token == "U":
            unknots += 1
        elif token.startswith("X(") and token.endswith(")"):
            bands = _ints(token[2:-1].split(","), line)
            if any(not 1 <= b <= len(parities) or not parities[b - 1] for b in bands):
                raise FamilyError(f"bad compose line {line!r}: "
                                  f"X takes odd bands in 1..{len(parities)}")
            factors.append(tuple(b - 1 for b in bands))
        else:
            raise FamilyError(f"bad base-case factor {token!r}")
    return unknots, tuple(factors)


FAMILIES = ("7_6", "10_58", "8_12")   # the families shipped with the package


@lru_cache(maxsize=None)
def load_family(name: str) -> FamilyDef:
    """Load a family definition shipped with the package."""
    if name not in FAMILIES:
        raise FamilyError(f"unknown family {name!r}; shipped: {', '.join(FAMILIES)}")
    data = resources.files("twistknots").joinpath(f"data/families/{name}.family")
    return parse_family_file(data.read_text())


# --- assembly ----------------------------------------------------------------

@lru_cache(maxsize=None)
def _base_value(unknots: int, args: tuple[tuple[int, ...], ...]) -> HalfLaurent:
    """unlink^unknots * prod of xn_jones(a) over the argument lists a of args.

    The shipped families need 85 distinct keys over all their sign cases and
    states, so the cache stays small."""
    value = HalfLaurent.one()
    for _ in range(unknots):
        value = value * unlink_factor()
    for a in args:
        value = value * xn_jones(a)
    return value


@lru_cache(maxsize=None)
def _base_derivs(unknots: int, args: tuple[tuple[int, ...], ...], kmax: int) -> tuple:
    """``derivs_at_one(kmax)`` of ``_base_value(unknots, args)``, memoised
    beside it: the sign cases of a family share a handful of base values."""
    return tuple(_base_value(unknots, args).derivs_at_one(kmax))


def _base_key(spec: FamilySpec, resolution: tuple[int, ...]) -> tuple:
    """The ``_base_value`` arguments of one resolution vector over the active bands."""
    if len(resolution) != len(spec.active_bands) or any(v not in (0, 1) for v in resolution):
        raise FamilyError("resolution vector must be 0/1 per active band")
    states = iter(resolution)
    full = [1 if band.frozen else next(states) for band in spec.bands]
    index = 0
    for v in full:
        index = 2 * index + v
    unknots, factors = spec.base[index]
    return unknots, tuple(tuple(full[i] and -spec.bands[i].sign for i in bands)
                          for bands in factors)


def base_case_jones(spec: FamilySpec, resolution: tuple[int, ...]) -> HalfLaurent:
    """Base link value for one resolution vector over the active bands."""
    return _base_value(*_base_key(spec, resolution))


@lru_cache(maxsize=None)
def t_form(spec: FamilySpec) -> tuple:
    """The closed form  prod_i (1 + t^(s_i)) * V = sum_m T^m c_m(t).

    m runs over 0/1 vectors on the active bands and T^m is the product of the
    T_i = t^(2 s_i n_i) with m_i = 1.  A band's resolved state gives -t^(s/2)
    to m_i = 0 and t^(s/2) to m_i = 1, its retained state 1 + t^s to m_i = 1.
    The result is ``_packed_form`` of the nonzero c_m, in increasing order of
    m, each with the index sum_j m_j 2^j of m, and c_m as (doubled exponent,
    coefficient) pairs in increasing exponent order."""
    active = spec.active_bands
    # position j of a key holds band j's state until band j is summed out,
    # and its T-exponent m_j after
    layer = {x: base_case_jones(spec, x) for x in product((0, 1), repeat=len(active))}
    for j in reversed(range(len(active))):
        s = spec.bands[active[j]].sign
        half = HalfLaurent.t_power(s)
        weights = {0: ((0, -half), (1, half)), 1: ((1, HalfLaurent({0: 1, 2 * s: 1})),)}
        summed: dict[tuple[int, ...], HalfLaurent] = {}
        for key, value in layer.items():
            for m, weight in weights[key[j]]:
                out = key[:j] + (m,) + key[j + 1:]
                summed[out] = summed.get(out, HalfLaurent.zero()) + weight * value
        layer = summed
    rows = [(sum(mj << j for j, mj in enumerate(m)), tuple(sorted(value.terms.items())))
            for m, value in sorted(layer.items()) if value]
    return _packed_form(rows, len(active))


def _packed_form(rows, k: int) -> tuple:
    """The T-form of the (index, c_m) pairs ``rows`` over k bands, as
    (width, unit, index, firsts, lasts, packed, terms): one column per field,
    a row per c_m.  first and last are the lowest and highest exponent of c_m,
    and packed = c_m(X) / X^first, where X = 2^width stands for t^(1/2);
    unit = (1 + X^2)^k is prod_i (1 + t^(s_i)) over its lowest power of t,
    packed alike.

    width = B.bit_length() + 1 with B = sum_m L1(c_m) + 2^k, so 2 B < X: every
    coefficient of sum_m T^m c_m - prod_i (1 + t^(s_i)) is at most B, and a
    sum of such digits times powers of X is 0 only when every digit is 0.
    ``assemble_jones`` reads V = 1 from that."""
    bound = sum(abs(c) for _, terms in rows for _, c in terms) + 2 ** k
    width = bound.bit_length() + 1
    index, terms = zip(*rows) if rows else ((), ())
    firsts = tuple(c_m[0][0] for c_m in terms)
    packed = tuple(sum(c << width * (e - first) for e, c in c_m)
                   for first, c_m in zip(firsts, terms))
    return (width, (1 + (1 << 2 * width)) ** k, index, firsts,
            tuple(c_m[-1][0] for c_m in terms), packed, terms)


# the longest dense coefficient list assemble_jones allocates, 32 MB of slots;
# the span is about 4 (n_1 + ... + n_k), so twists up to about 200,000 in
# each of five bands fit
MAX_DENSE = 1 << 22


def assemble_jones(spec: FamilySpec, twists) -> HalfLaurent:
    """Jones polynomial of one family instance; integral powers of t only.

    Evaluates the T-form at the twists.  T^m shifts c_m by the sum of the
    4 s_j n_j of the bands in m, one of the 2^k subset sums of the shifts,
    which also bound the span of the sum.  V = 1 exactly when
    sum_m T^m c_m = prod_i (1 + t^(s_i)), and that is tested first on one
    packed int per side at the base X of ``_packed_form``, with every power
    shifted by the lowest; the two ints are equal only when the polynomials
    are.  Otherwise the c_m, each shifted by T^m, are summed into one dense
    coefficient list over the doubled exponent and divided exactly by
    (1 + t^(s_i)) per active band.  A knot's sum has integral powers of t
    only, so every odd doubled exponent must hold 0, or the family is wrong
    (``FamilyError``); the divisions then run on the even slots alone, one
    slot per power of t.  Since 1 + t^(-1) = t^(-1) (1 + t), each division is
    by 1 + t, and a negative band shifts the result by t.  With the signs
    alternated, a_k = (-1)^k p_k, the quotient q of p by 1 + t is
    q_k = (-1)^k A_k for the prefix sums A of a, and the last prefix sum is
    the remainder, which must be 0; the prefix sums are again q alternated,
    so every division is one more prefix sum."""
    n = check_twists(spec, twists)
    signs = [spec.bands[i].sign for i in spec.active_bands]
    width, unit, index, firsts, lasts, packed, terms = t_form(spec)
    if not terms:
        return HalfLaurent.zero()
    offsets = [0]   # the doubled exponent of T^m, at the index of m
    for s, v in zip(signs, n):
        shift = 4 * s * v
        offsets += [d + shift for d in offsets]
    at = [offsets[i] for i in index]
    starts = list(map(add, at, firsts))
    lo = min(starts)
    size = max(map(add, at, lasts)) - lo + 1
    if size > MAX_DENSE:
        raise FamilyError(f"twists {n} span {size} doubled exponents, "
                          f"over the assembly limit of {MAX_DENSE}")
    low = -2 * signs.count(-1)   # the lowest doubled exponent of prod_i (1 + t^(s_i))
    # a lowest start that one c_m alone reaches cannot cancel, so V = 1 then
    # needs lo = low; this spares large instances the packed sum
    if ((lo == low or lo < low and starts.count(lo) > 1)
            and (sum(map(lshift, packed, [width * (s - lo) for s in starts]))
                 == unit << width * (low - lo))):
        return HalfLaurent.one()
    dense = [0] * size
    for d, c_m in zip(at, terms):
        d -= lo
        for e, c in c_m:
            dense[d + e] += c
    first = lo % 2   # the index of the first even doubled exponent
    if any(dense[1 - first::2]):
        raise FamilyError("assembled Jones polynomial is not knot-valued")
    alternated = list(map(mul, dense[first::2], cycle((1, -1))))
    for _ in signs:
        alternated = list(accumulate(alternated))
        if any(alternated[-1:]):
            raise AssertionError(
                f"T-form of {spec.name}[{spec.signs_str()}] at {n} is not divisible by 1 + t")
        del alternated[-1:]
    lo += first - low
    return HalfLaurent({lo + 2 * k: -c if k % 2 else c for k, c in enumerate(alternated) if c})


# every monomial symbolic_derivs has returned, each its own key; at most the
# monomials of degree <= 8 in 5 variables
_MONOMIALS: dict[tuple[int, ...], tuple[int, ...]] = {}


def symbolic_derivs(spec: FamilySpec, kmax: int = 4) -> list[MultiPoly]:
    """d^k/dt^k of the family Jones polynomial at t=1 as polynomials in the
    twist parameters, for k = 0..kmax (0 <= kmax <= 8).

    Each band prefactor and each base-link value becomes its Taylor series in
    (t - 1) up to (t - 1)^kmax, whose coefficient k is the k-th derivative at 1
    over k!.  The 0/1 states are summed out one band at a time, from the last
    active band to the first, in integers over one common denominator: that of
    the base series times each band's ``_prefactor_series`` denominator.  A
    layer entry holds, per k, a map from monomials in the bands summed so far
    to integers; a band's series is in that band's own variable alone, so its
    products only prepend an exponent to the monomials below.  Coefficient k is
    divided by the denominator and multiplied back by k! once, at the end, and
    stays an int wherever the division is exact.  Equal monomials of the
    results share one tuple through ``_MONOMIALS``, across calls too: the 96
    shipped sign cases hold 120 distinct monomials in 6,700 terms."""
    if not 0 <= kmax <= 8:
        raise FamilyError(f"kmax {kmax} is outside 0..8")
    active = spec.active_bands
    base = {x: _base_derivs(*_base_key(spec, x), kmax)
            for x in product((0, 1), repeat=len(active))}
    den = lcm(*(d.denominator * factorial(k) for ds in base.values() for k, d in enumerate(ds)))
    layer = {x: [{(): d.numerator * (den // (d.denominator * factorial(k)))}
                 for k, d in enumerate(ds)] for x, ds in base.items()}
    for j in reversed(range(len(active))):
        band_den, pre = _prefactor_series(spec.bands[active[j]].sign, kmax)
        den *= band_den
        summed = {}
        for x in product((0, 1), repeat=j):
            out: list[dict] = [{} for _ in range(kmax + 1)]
            for b in (0, 1):
                below = layer[x + (b,)]
                for i, terms in enumerate(pre[b]):
                    for k in range(i, kmax + 1):
                        acc = out[k]
                        for m, c in below[k - i].items():
                            for e, a in terms:
                                key = (e,) + m
                                acc[key] = acc.get(key, 0) + a * c
            summed[x] = out
        layer = summed
    return [MultiPoly(spec.variables, {_MONOMIALS.setdefault(m, m):
                                       exact_quotient(c * factorial(k), den)
                                       for m, c in terms.items()})
            for k, terms in enumerate(layer[()])]


def jones_derivs(spec: FamilySpec, twists,
                 kmax: int = 4) -> tuple[HalfLaurent, list[int]]:
    """The assembled instance Jones polynomial and its derivatives at 1, computed
    both from that polynomial and from ``symbolic_derivs``; the routes must agree.
    The returned derivatives are those of the assembled polynomial: ints, since
    its coefficients are ints and its powers of t integral."""
    n = check_twists(spec, twists)
    jones = assemble_jones(spec, n)
    route_a = jones.derivs_at_one(kmax)
    point = dict(zip(spec.variables, n))
    route_b = [p.eval(point) for p in symbolic_derivs(spec, kmax)]
    if route_a != route_b:
        raise AssertionError(
            f"derivative routes disagree for {spec.name}[{spec.signs_str()}] at {n}")
    return jones, route_a
