"""Multivariate polynomials over exact rationals in a fixed set of named variables.

Integral coefficients are stored as ``int`` and only true fractions as
``Fraction``, so the integer polynomials that most of the symbolic set-up works
with never pay for ``Fraction`` arithmetic, and ``MultiPoly.eval``, the one
evaluator, keeps them in ints at an integer point.

Used for symbolic twist-parameter computations: derivative polynomials in the
twist counts, leading Alexander coefficients, and the per-case formula checks.
Seifert entries, the band rule and exception constraints are affine forms
(constant, ((index, coefficient), ...)): ``MultiPoly.affine`` reads them.
Substitution of a rational expression for a variable is done fraction-free by
clearing the denominator.  ``parse_poly`` reads the formula text of the package
data through Python's ``ast`` parser and builds the polynomial from a whitelist
of its nodes.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from math import comb
from operator import add
from typing import Iterable, Mapping

Monomial = tuple[int, ...]


class MultiPoly:
    """Immutable polynomial in the variables ``vars`` with exact coefficients.

    ``terms`` maps int-tuple monomials to nonzero coefficients, each an int or a
    ``Fraction``; equal values compare and hash equal and format the same.
    The constructor is the one place that normalises: it stores a ``Fraction``
    with denominator 1 as its int, drops zero coefficients and checks the
    arity.  Callers pass distinct monomials.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Monomial, object] | None = None):
        self.vars = tuple(variables)
        self.terms = {m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for m, c in terms.items() if c} if terms else {}
        for m in self.terms:
            if len(m) != len(self.vars):
                raise ValueError("monomial arity does not match variable set")

    # --- constructors -------------------------------------------------

    @classmethod
    def const(cls, variables: Iterable[str], value) -> "MultiPoly":
        variables = tuple(variables)
        zero = (0,) * len(variables)
        return cls(variables, {zero: value if type(value) is int else Fraction(value)})

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def var(cls, variables: Iterable[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        mono = [0] * len(variables)
        mono[variables.index(name)] = 1
        return cls(variables, {tuple(mono): 1})

    @classmethod
    def from_affine(cls, variables: Iterable[str], form) -> "MultiPoly":
        """The polynomial of an affine form over ``variables``."""
        variables = tuple(variables)
        zero = (0,) * len(variables)
        return cls(variables, {zero: form[0], **{zero[:i] + (1,) + zero[i + 1:]: c
                                                 for i, c in form[1]}})

    # --- ring structure -----------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return MultiPoly(self.vars, out)

    def scale(self, k) -> "MultiPoly":
        return MultiPoly(self.vars, {m: k * c for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # --- queries --------------------------------------------------------

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((m[i] for m in self.terms), default=0)

    def coefficients_in(self, name: str) -> dict[int, "MultiPoly"]:
        """Split as a polynomial in one variable with MultiPoly coefficients."""
        i = self.vars.index(name)
        buckets: dict[int, dict[Monomial, object]] = {}
        for m, c in self.terms.items():
            buckets.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
        return {d: MultiPoly(self.vars, t) for d, t in buckets.items()}

    def affine(self) -> tuple:
        """The affine form (constant, ((index, coefficient), ...)), the pairs in
        increasing index; a term of degree 2 or more is an ``ExprError``."""
        if self.total_degree() > 1:
            raise ExprError(f"{self.format()!r} is not affine")
        zero = (0,) * len(self.vars)
        return self.terms.get(zero, 0), tuple(sorted((m.index(1), c) for m, c in self.terms.items()
                                                     if m != zero))

    def eval(self, point: Mapping[str, object]) -> int | Fraction:
        """Exact value at ``point``; every variable must be assigned.

        An int point value stays an int and any other is read as a
        ``Fraction``, so the value is an int whenever every coefficient and
        every point value is an int.  Otherwise it is exact, a ``Fraction``
        once a true fraction enters a term.
        """
        vals = []
        for v in self.vars:
            if v not in point:
                raise KeyError(f"missing variable {v!r}")
            val = point[v]
            vals.append(val if type(val) is int else Fraction(val))
        out = 0
        for m, c in self.terms.items():
            for val, exp in zip(vals, m):
                if exp:
                    c *= val ** exp
            out += c
        return out

    def substitute_cleared(self, name: str, num: "MultiPoly", den: "MultiPoly") -> tuple["MultiPoly", int]:
        """den^d * self with ``name`` replaced by num/den, d = degree in ``name``.

        Returns the cleared polynomial and the degree d, so callers can track
        which power of the denominator was multiplied in.
        """
        self._check(num)
        self._check(den)
        d = self.degree_in(name)
        parts = self.coefficients_in(name)
        out = MultiPoly.zero(self.vars)
        for j, coeff in parts.items():
            out = out + coeff * num ** j * den ** (d - j)
        return out, d

    def shifted_by_one(self) -> "MultiPoly":
        """Substitute v -> v + 1 for every variable.

        A binomial Taylor shift, one variable at a time: each term c*v^e
        becomes the sum over r = 0..e of C(e, r)*c*v^r.  All-nonnegative
        coefficients of the result with a positive constant certify strict
        positivity on the region where every variable is >= 1.
        """
        terms = self.terms
        for i in range(len(self.vars)):
            out: dict[Monomial, object] = {}
            for m, c in terms.items():
                head, tail = m[:i], m[i + 1:]
                for r in range(m[i] + 1):
                    key = head + (r,) + tail
                    out[key] = out.get(key, 0) + comb(m[i], r) * c
            terms = out
        return MultiPoly(self.vars, terms)

    # --- formatting -------------------------------------------------------

    @staticmethod
    def _order_key(mono: Monomial):
        # graded lexicographic, largest first
        return (-sum(mono), tuple(-e for e in mono))

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=self._order_key):
            c = self.terms[mono]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            factors = []
            for v, e in zip(self.vars, mono):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                body = str(mag)
            else:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            parts.append((sign, body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"MultiPoly[{','.join(self.vars)}]({self.format()})"


# --- expression parsing ----------------------------------------------------

class ExprError(ValueError):
    pass


_RING_OPS = {ast.Add: MultiPoly.__add__, ast.Sub: MultiPoly.__sub__, ast.Mult: MultiPoly.__mul__}


def parse_poly(text: str, variables: Iterable[str]) -> MultiPoly:
    """Parse '+', '-', '*', '/', '^', parentheses, integers and variable names.

    Python's own parser reads the text, with '^' as '**'; the walk over its
    tree accepts only the nodes of this grammar and evaluates nothing else.
    Integers are ASCII decimal literals, an exponent is an integer literal,
    and division is only by a nonzero constant subexpression.
    """
    variables = tuple(variables)
    # Python reads '**' as a power and fullwidth letters as ASCII names (NFKC)
    if not text.isascii() or "**" in text:
        raise ExprError(f"non-ASCII character or '**' in {text!r}")
    source = " ".join(text.split()).replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExprError(f"{exc.msg} in {text!r}") from None
    except (MemoryError, RecursionError):
        # the parser's own stack limit on deeply nested input
        raise ExprError(f"expression nested too deeply in {text!r}") from None

    def piece(node) -> str:
        return source[node.col_offset:node.end_col_offset].replace("**", "^")

    def literal(node) -> int:
        # the parser also reads 0x10, 1_000, 1.5, 1e3 and True as numbers
        if isinstance(node, ast.Constant) and type(node.value) is int and piece(node).isdigit():
            return node.value
        raise ExprError(f"expected an integer literal, got {piece(node)!r} in {text!r}")

    def walk(node) -> MultiPoly:
        if isinstance(node, ast.BinOp):
            op = type(node.op)
            if op is ast.Pow:
                return walk(node.left) ** literal(node.right)
            if op in _RING_OPS:
                return _RING_OPS[op](walk(node.left), walk(node.right))
            if op is ast.Div:
                lhs, rhs = walk(node.left), walk(node.right)
                if rhs.total_degree() != 0:
                    raise ExprError(f"division by non-constant in {text!r}")
                if not rhs:
                    raise ExprError(f"division by zero in {text!r}")
                return lhs.scale(Fraction(1) / rhs.terms[(0,) * len(variables)])
        elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.USub, ast.UAdd):
            operand = walk(node.operand)
            return -operand if type(node.op) is ast.USub else operand
        elif isinstance(node, ast.Constant):
            return MultiPoly.const(variables, literal(node))
        elif isinstance(node, ast.Name):
            if node.id not in variables:
                raise ExprError(f"unknown variable {node.id!r} in {text!r}")
            return MultiPoly.var(variables, node.id)
        raise ExprError(f"unsupported expression {piece(node)!r} in {text!r}")

    try:
        return walk(tree.body)
    except RecursionError:
        raise ExprError(f"expression nested too deeply in {text!r}") from None


def affine_values(forms, point) -> tuple:
    """The values of the affine forms ``forms`` at ``point``, a sequence indexed
    as their variables; ints wherever the forms and the point are."""
    out = []
    for value, linear in forms:
        for i, c in linear:
            value += c * point[i]
        out.append(value)
    return tuple(out)


# --- standard symbolic helpers ----------------------------------------------

def power_sum_poly(m: int, variables: Iterable[str], name: str) -> MultiPoly:
    """S_m as a polynomial in ``name``: sum of j^m for j = 0..n-1."""
    variables = tuple(variables)
    n = MultiPoly.var(variables, name)
    sums: list[MultiPoly] = [n]  # S_0(n) = n
    for p in range(1, m + 1):
        acc = n ** (p + 1)
        for r in range(p):
            acc = acc - sums[r].scale(comb(p + 1, r))
        sums.append(acc.scale(Fraction(1, p + 1)))
    return sums[m]


def falling_factorial_poly(linear: MultiPoly, k: int) -> MultiPoly:
    """L (L-1) ... (L-k+1) for a polynomial argument L."""
    out = MultiPoly.const(linear.vars, 1)
    for r in range(k):
        out = out * (linear - MultiPoly.const(linear.vars, r))
    return out
