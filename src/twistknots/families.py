"""Twist-family engine: Jones polynomials of knots obtained by adding twists in bands.

A family is a knot skeleton with k twist bands.  Band i carries s_i(2n_i - m_i)
crossings, where s_i is the band sign, m_i the parity (1 for odd bands, 0 for
even) and n_i >= 1 the twist parameter.  The skein relation (Lickorish, An
Introduction to Knot Theory, ch. 3) writes the Jones polynomial of an instance
as a sum over the 2^k ways of either resolving each band (state 0) or retaining
it with its residual -s_i m_i half-twists (state 1):

    V(n_1..n_k) = sum over states x of  (prod_i  pre(s_i, x_i, n_i)) * V_x

where V_x is the Jones polynomial of the fully degenerate base link, supplied
per family by a data-driven base-case provider.  With T_i = t^(2 s_i n_i) the
prefactors are pre(s, 1, n) = T and

    pre(s, 0, n) = (1 + t^(2s) + ... + t^(2s(n-1))) (t^(3s/2) - t^(s/2))
                 = -t^(s/2) (1 - T) / (1 + t^s),

so clearing the denominators gives the T-form

    prod_i (1 + t^(s_i)) * V = sum over 0/1 vectors m of  T^m c_m(t),

in which each c_m is a short Laurent polynomial in t^(1/2) that does not
depend on n.  ``t_form`` builds the c_m once per sign case; an instance shifts
each c_m by T^m, adds them up and divides exactly by the (1 + t^(s_i)), in time
linear in the twists (``assemble_jones``).

The derivatives at t=1, as polynomials in n_1..n_k, come from the state sum by
an independent route: every prefactor and every V_x becomes its Taylor series
in (t - 1), and the states are summed out one band at a time
(``symbolic_derivs``).  It never uses the T-form, so ``jones_derivs`` compares
two constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import product
from math import factorial

from .laurent import HalfLaurent, unlink_factor
from .multipoly import MultiPoly, falling_factorial_poly, parse_poly, power_sum_poly

PARAM_LETTERS = ("a", "b", "c", "d", "e")


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class BandSpec:
    sign: int        # +1 or -1
    parity: int      # 1 = odd band, 0 = even band
    frozen: bool = False  # frozen bands carry no twists and no parameter

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise FamilyError("band sign must be +1 or -1")
        if self.parity not in (0, 1):
            raise FamilyError("band parity must be 0 or 1")
        if self.frozen and self.parity != 0:
            raise FamilyError("frozen bands must be even")


@dataclass(frozen=True)
class FamilySpec:
    """A family with concrete band signs; twist parameters stay free."""

    name: str
    bands: tuple[BandSpec, ...]
    provider: "BaseCaseProvider"

    @property
    def active_bands(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bands) if not b.frozen)

    @property
    def variables(self) -> tuple[str, ...]:
        return PARAM_LETTERS[: len(self.active_bands)]

    def signs_str(self) -> str:
        return "".join("+" if b.sign > 0 else "-" for b in self.bands)

    def mirrored(self) -> "FamilySpec":
        flipped = tuple(BandSpec(-b.sign, b.parity, b.frozen) for b in self.bands)
        return FamilySpec(self.name, flipped, self.provider)


def parse_signs(text: str, k: int) -> tuple[int, ...]:
    if len(text) != k or any(ch not in "+-" for ch in text):
        raise FamilyError(f"sign case must be {k} characters over +/-: {text!r}")
    return tuple(+1 if ch == "+" else -1 for ch in text)


def check_twists(spec: FamilySpec, twists) -> tuple[int, ...]:
    n = tuple(int(v) for v in twists)
    if len(n) != len(spec.active_bands):
        raise FamilyError(
            f"{spec.name} takes {len(spec.active_bands)} twist parameters, got {len(n)}")
    if any(v < 1 for v in n):
        raise FamilyError("twist parameters must be >= 1")
    return n


# --- prefactor derivatives ---------------------------------------------------

@lru_cache(maxsize=None)
def _prefactor_deriv_cached(s: int, x: int, k: int, variables: tuple[str, ...], name: str) -> MultiPoly:
    if x == 1:
        # k-th derivative of t^(2sn) at 1 is the falling factorial of 2sn
        lin = MultiPoly.var(variables, name).scale(2 * s)
        return falling_factorial_poly(lin, k)
    # resolved band: sum over the geometric expansion, term exponents s(2j + 3/2)
    # and s(2j + 1/2); the j-sum becomes a power-sum polynomial in n
    jv = ("j",)
    j = MultiPoly.var(jv, "j")
    hi = falling_factorial_poly((j.scale(2) + MultiPoly.const(jv, Fraction(3, 2))).scale(s), k)
    lo = falling_factorial_poly((j.scale(2) + MultiPoly.const(jv, Fraction(1, 2))).scale(s), k)
    per_j = hi - lo
    out = MultiPoly.zero(variables)
    for mono, coeff in per_j.terms.items():
        out = out + power_sum_poly(mono[0], variables, name).scale(coeff)
    return out


def prefactor_deriv_poly(s: int, x: int, k: int, variables: tuple[str, ...] = ("n",),
                         name: str = "n") -> MultiPoly:
    """d^k/dt^k of the band prefactor at t=1, as an exact polynomial in the
    twist parameter.  Derived symbolically, never transcribed from a table."""
    if k > 8:
        raise FamilyError("k > 8 not supported")
    return _prefactor_deriv_cached(s, x, k, tuple(variables), name)


# --- base-case links --------------------------------------------------------

@lru_cache(maxsize=None)
def _x_chain(sign: int, n: int) -> HalfLaurent:
    """Jones value of n same-sign odd bands joining two circles."""
    if n == 0:
        return unlink_factor()
    if n == 1:
        return HalfLaurent.one()
    prev2, prev1 = unlink_factor(), HalfLaurent.one()
    step2 = HalfLaurent.t_power(4 * sign)                    # t^(2 sign)
    step1 = HalfLaurent({3 * sign: 1, sign: -1})             # t^(3s/2) - t^(s/2)
    for _ in range(2, n + 1):
        prev2, prev1 = prev1, step2 * prev2 + step1 * prev1
    return prev1


def xn_jones(args) -> HalfLaurent:
    """Jones polynomial of the two-circle pattern with the given residual bands.

    Zero entries are dropped, and adjacent opposite-sign pairs cancel; the
    bands are treated as cyclically arranged, so cancellation wraps around.
    """
    current = [a for a in args if a != 0]
    if any(a not in (+1, -1) for a in current):
        raise FamilyError("band arguments must be -1, 0 or +1")
    changed = True
    while changed and len(current) >= 2:
        changed = False
        m = len(current)
        for i in range(m):
            j = (i + 1) % m
            if i != j and current[i] == -current[j]:
                for idx in sorted((i, j), reverse=True):
                    current.pop(idx)
                changed = True
                break
    if not current:
        return unlink_factor()
    if len(set(current)) != 1:
        raise FamilyError("mixed signs survived cancellation")
    return _x_chain(current[0], len(current))


class BaseCaseProvider:
    def jones(self, spec: FamilySpec, full_state: tuple[int, ...]) -> HalfLaurent:
        raise NotImplementedError


@dataclass(frozen=True)
class ComposeProvider(BaseCaseProvider):
    """Base links described as connected sums of two-circle patterns, plus
    disjoint unknots, keyed by the states of the even bands."""

    even_bands: tuple[int, ...]                       # 0-based indices
    rows: tuple[tuple[tuple[int, ...], tuple], ...]   # (key, factors)

    def jones(self, spec, full_state):
        key = tuple(full_state[i] for i in self.even_bands)
        for row_key, factors in self.rows:
            if row_key == key:
                break
        else:
            raise FamilyError(f"no base-case row for even-band states {key}")
        value = HalfLaurent.one()
        for factor in factors:
            if factor[0] == "U":
                value = value * unlink_factor()
            else:
                args = []
                for band in factor[1]:
                    i = band - 1
                    args.append(0 if full_state[i] == 0 else -spec.bands[i].sign)
                value = value * xn_jones(args)
        return value


@dataclass(frozen=True)
class CountProvider(BaseCaseProvider):
    """Base links that are disjoint unions of unknots; a table gives the
    component count as a polynomial in the band states x1..xk."""

    order: tuple[int, ...]                       # 0-based indices of the key bands
    rows: tuple[tuple[tuple[int, ...], MultiPoly], ...]

    def jones(self, spec, full_state):
        key = tuple(full_state[i] for i in self.order)
        for row_key, expr in self.rows:
            if row_key == key:
                break
        else:
            raise FamilyError(f"no unknot-count row for states {key}")
        count = expr.eval(dict(zip(expr.vars, full_state)))
        if count.denominator != 1 or count < 1:
            raise FamilyError(f"unknot count {count} is not an integer >= 1 "
                              f"for states {full_state}")
        return unlink_factor() ** int(count - 1)


# --- family definition files -------------------------------------------------

@dataclass(frozen=True)
class FamilyDef:
    name: str
    parities: tuple[int, ...]
    frozen: tuple[bool, ...]
    provider: BaseCaseProvider

    def with_signs(self, signs) -> FamilySpec:
        if isinstance(signs, str):
            signs = parse_signs(signs, len(self.parities))
        if len(signs) != len(self.parities):
            raise FamilyError("sign count does not match band count")
        bands = tuple(BandSpec(s, p, f)
                      for s, p, f in zip(signs, self.parities, self.frozen))
        return FamilySpec(self.name, bands, self.provider)


def parse_family_file(text: str) -> FamilyDef:
    name = None
    parities: list[int] = []
    frozen: list[bool] = []
    base_kind = None
    compose_rows: list[tuple[tuple[int, ...], tuple]] = []
    count_rows: list[tuple[tuple[int, ...], str]] = []
    order: tuple[int, ...] | None = None

    for raw in text.splitlines():
        line = raw.strip()
        # '#' is the connected-sum symbol, so comments are whole-line only
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "family":
            name = rest
        elif head == "band":
            fields = rest.split()
            if len(fields) < 2 or fields[1] not in ("odd", "even") \
                    or fields[2:] not in ([], ["frozen"]):
                raise FamilyError(f"bad band line {line!r}: want 'band i odd|even [frozen]'")
            idx = int(fields[0])
            if idx != len(parities) + 1:
                raise FamilyError("bands must be listed in order starting at 1")
            parities.append(1 if fields[1] == "odd" else 0)
            frozen.append(fields[2:] == ["frozen"])
        elif head == "base":
            base_kind = rest
        elif head == "order":
            order = tuple(int(v) - 1 for v in rest.split())
        elif head == "compose":
            key_text, _, expr = rest.partition("->")
            key = tuple(int(v) for v in key_text.split())
            compose_rows.append((key, _parse_compose_expr(expr.strip())))
        elif head == "count":
            key_text, _, expr = rest.partition("->")
            key = tuple(int(v) for v in key_text.split())
            count_rows.append((key, expr.strip()))
        else:
            raise FamilyError(f"unknown directive {head!r}")

    if name is None or base_kind is None:
        raise FamilyError("family file needs 'family' and 'base' lines")
    if base_kind == "compose":
        even = tuple(i for i, p in enumerate(parities) if p == 0)
        provider: BaseCaseProvider = ComposeProvider(even, tuple(compose_rows))
    elif base_kind == "count":
        if order is None:
            raise FamilyError("count provider needs an 'order' line")
        if any(not 0 <= i < len(parities) for i in order):
            raise FamilyError(f"'order' names a band outside 1..{len(parities)}")
        states = tuple(f"x{i + 1}" for i in range(len(parities)))
        provider = CountProvider(order, tuple((key, parse_poly(expr, states))
                                              for key, expr in count_rows))
    else:
        raise FamilyError(f"unknown base-case provider {base_kind!r}")
    return FamilyDef(name, tuple(parities), tuple(frozen), provider)


def _parse_compose_expr(expr: str) -> tuple:
    factors = []
    for chunk in expr.split("#"):
        for token in chunk.split():
            token = token.strip()
            if token == "U":
                factors.append(("U",))
            elif token.startswith("X(") and token.endswith(")"):
                bands = tuple(int(v) for v in token[2:-1].split(","))
                factors.append(("X", bands))
            else:
                raise FamilyError(f"bad base-case factor {token!r}")
    return tuple(factors)


FAMILIES = ("7_6", "10_58", "8_12")   # the families shipped with the package


@lru_cache(maxsize=None)
def load_family(name: str) -> FamilyDef:
    """Load a family definition shipped with the package, or from a path."""
    if name in FAMILIES:
        data = resources.files("twistknots").joinpath(f"data/families/{name}.family")
        return parse_family_file(data.read_text())
    with open(name) as fh:
        return parse_family_file(fh.read())


# --- assembly ----------------------------------------------------------------

def base_case_jones(spec: FamilySpec, resolution: tuple[int, ...]) -> HalfLaurent:
    """Base link value for one resolution vector over the active bands."""
    active = spec.active_bands
    if len(resolution) != len(active) or any(v not in (0, 1) for v in resolution):
        raise FamilyError("resolution vector must be 0/1 per active band")
    full = [1] * len(spec.bands)
    for j, i in enumerate(active):
        full[i] = resolution[j]
    return spec.provider.jones(spec, tuple(full))


@lru_cache(maxsize=None)
def t_form(spec: FamilySpec, forced: tuple[tuple[int, int], ...] = ()) -> tuple:
    """The closed form  prod_free (1 + t^(s_i)) * V = sum_m T^m c_m(t).

    m runs over 0/1 vectors on the free active bands (those not in ``forced``,
    given as (band index, state) pairs), T^m is the product of the
    T_i = t^(2 s_i n_i) with m_i = 1, and the result lists the pairs
    (m, c_m) with c_m != 0, c_m as (doubled exponent, coefficient) pairs in
    increasing exponent order.  A free band's resolved state gives
    -t^(s/2) to m_i = 0 and t^(s/2) to m_i = 1, its retained state 1 + t^s to
    m_i = 1; a forced band keeps its state with weight 1."""
    fixed = dict(forced)
    active = spec.active_bands
    states = [(fixed[i],) if i in fixed else (0, 1) for i in active]
    # position j of a key holds band j's state until band j is summed out,
    # and its T-exponent m_j after
    layer = {x: base_case_jones(spec, x) for x in product(*states)}
    for j in reversed(range(len(active))):
        i = active[j]
        if i in fixed:
            continue
        s = spec.bands[i].sign
        half = HalfLaurent.t_power(s)
        weights = {0: ((0, -half), (1, half)), 1: ((1, HalfLaurent({0: 1, 2 * s: 1})),)}
        summed: dict[tuple[int, ...], HalfLaurent] = {}
        for key, value in layer.items():
            for m, weight in weights[key[j]]:
                out = key[:j] + (m,) + key[j + 1:]
                summed[out] = summed.get(out, HalfLaurent.zero()) + weight * value
        layer = summed
    free = [j for j, i in enumerate(active) if i not in fixed]
    return tuple((tuple(key[j] for j in free), tuple(sorted(value.terms.items())))
                 for key, value in sorted(layer.items()) if value)


def _assemble(spec: FamilySpec, n: tuple[int, ...], forced: dict[int, int]) -> HalfLaurent:
    """Evaluate the T-form at n: shift each c_m by T^m, sum into one dense
    coefficient list, and divide it exactly by (1 + t^(s_i)) per free band."""
    form = t_form(spec, tuple(sorted(forced.items())))
    free = [(n[j], spec.bands[i].sign)
            for j, i in enumerate(spec.active_bands) if i not in forced]
    shifted = [(sum(4 * s * nj for (nj, s), mj in zip(free, m) if mj), terms)
               for m, terms in form]
    if not shifted:
        return HalfLaurent.zero()
    lo = min(d + terms[0][0] for d, terms in shifted)
    dense = [0] * (max(d + terms[-1][0] for d, terms in shifted) - lo + 1)
    for d, terms in shifted:
        for e, c in terms:
            dense[e + d - lo] += c
    # in the doubled exponent every division is by 1 + t, since
    # 1 + t^(-1) = t^(-1) (1 + t); each negative band then shifts by t
    for _ in free:
        for k in range(2, len(dense)):
            dense[k] -= dense[k - 2]
        if any(dense[-2:]):
            raise AssertionError(
                f"T-form of {spec.name}[{spec.signs_str()}] at {n} is not divisible by 1 + t")
        del dense[-2:]
    lo += sum(2 for _, s in free if s < 0)
    return HalfLaurent({lo + k: c for k, c in enumerate(dense) if c})


def assemble_jones(spec: FamilySpec, twists) -> HalfLaurent:
    """Jones polynomial of one family instance; integral powers of t only."""
    n = check_twists(spec, twists)
    total = _assemble(spec, n, {})
    if not total.is_knot_valued():
        raise FamilyError("assembled Jones polynomial is not knot-valued")
    return total


def assemble_partial(spec: FamilySpec, twists, forced: dict[int, int]) -> HalfLaurent:
    """Assembly with some bands forced to a state and their prefactor omitted.

    forced maps 0-based band index to 0 (resolved) or 1 (retained); used for
    skein-recursion checks.
    """
    n = check_twists(spec, twists)
    return _assemble(spec, n, forced)


def symbolic_derivs(spec: FamilySpec, kmax: int = 4) -> list[MultiPoly]:
    """d^k/dt^k of the family Jones polynomial at t=1 as polynomials in the
    twist parameters, for k = 0..kmax.

    Each band prefactor and each base-link value becomes its Taylor series in
    (t - 1) up to (t - 1)^kmax, whose coefficient k is the k-th derivative at 1
    over k!.  The 0/1 states are summed out one band at a time, from the last
    active band to the first, and coefficient k is multiplied back by k!."""
    variables = spec.variables
    active = spec.active_bands
    zero = MultiPoly.zero(variables)

    def series(derivs) -> list[MultiPoly]:
        return [d.scale(Fraction(1, factorial(k))) for k, d in enumerate(derivs)]

    def times(p, q) -> list[MultiPoly]:
        return [sum((p[i] * q[k - i] for i in range(k + 1)), zero) for k in range(kmax + 1)]

    layer = {x: series([MultiPoly.const(variables, d)
                        for d in base_case_jones(spec, x).derivs_at_one(kmax)])
             for x in product((0, 1), repeat=len(active))}
    for j in reversed(range(len(active))):
        sign = spec.bands[active[j]].sign
        pre = [series([prefactor_deriv_poly(sign, b, k, variables, variables[j])
                       for k in range(kmax + 1)]) for b in (0, 1)]
        layer = {x: [u + v for u, v in zip(times(pre[0], layer[x + (0,)]),
                                           times(pre[1], layer[x + (1,)]))]
                 for x in product((0, 1), repeat=j)}
    return [c.scale(factorial(k)) for k, c in enumerate(layer[()])]


def jones_derivs(spec: FamilySpec, twists,
                 kmax: int = 4) -> tuple[HalfLaurent, list[Fraction]]:
    """The assembled instance Jones polynomial and its derivatives at 1, computed
    both from that polynomial and from ``symbolic_derivs``; the routes must agree."""
    n = check_twists(spec, twists)
    jones = assemble_jones(spec, n)
    route_a = jones.derivs_at_one(kmax)
    point = dict(zip(spec.variables, n))
    route_b = [p.eval(point) for p in symbolic_derivs(spec, kmax)]
    if route_a != route_b:
        raise AssertionError(
            f"derivative routes disagree for {spec.name}[{spec.signs_str()}] at {n}")
    return jones, route_a
