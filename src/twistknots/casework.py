"""Sign-case sweeps, published-formula verification, and exception handling.

For each of the 32 sign cases of a family, the sweep evaluates every instance
in a twist box through the obstruction gates, using the symbolic derivative
and Alexander-coefficient polynomials for speed.  Surviving instances are
matched against the registered parametric exception patterns, and their Jones
and Conway polynomials are certified trivial.  ``instance_verdict``, which
certifies one instance, lives in ``obstruction`` beside the gates and is
imported here, so that a one-instance query (``check``, ``jones``,
``alexander``) never imports this module.

The gates are solved a plane of lines at a time.  A line is the last twist
axis v at a prefix of the other twists; a plane is a list of such prefixes
that share an outer prefix.  Each gate polynomial, its denominators cleared,
becomes exact integer coefficients c_0..c_d in v, one row of c_e over the
plane per outer prefix.  At degree 1 a line is solved: v = -c_0/c_1 where
c_1 != 0, kept when it is an integer still alive; where c_1 = 0 the line stays
alive if c_0 = 0.  From degree 2 on, Horner runs at the alive positions only;
a2 and the first gate's core have degree 1 in the last twist they mention in
every sign case, d3 degree 2 and d4 degree 3.
The first gate is a monomial, never 0 since every twist is >= 1, times a core
that is solved over only the twists it mentions, a grid plane at a time (7_6:
a b c; 10_58: a d e; 8_12: a constant, so no zeros).  The later gates (a2, d3,
d4) run with the first gate's zeros as their plane, at each outer prefix of
the twists the core leaves free, so no other point reaches them; a gate's
rows over that plane are built when a line first reaches it, so a box whose
lines all stop early never builds d3's or d4's.  If the first gate is
identically 0, every line of the box stays alive, an outer prefix at a
time.  The survivors reach full assembly sorted into the order of the box, so
the reports do not depend on how the zeros are found.

The optional root-of-unity gate comes last, so an instance an earlier gate
excludes is counted there whatever its value at the root of unity: a
``use_root5`` sweep runs the same gate loop, and only its survivors, assembled
anyway, reach that gate in ``cosmetic_gate``.  Every survivor has leading, a2,
d3 and d4 equal to 0, and so d2 = -6 a2 too; if ``cosmetic_gate``, which reads
the Seifert route and the assembled polynomial, excludes it by any gate but
root5, two routes disagree and the sweep raises ``AssertionError``.

The formula registry, one hand-written JSON file per family whose schema is in
docs/registry-format.md, holds the published case formulas.  Each entry is
checked against the computed symbolic quantity, as a plain identity or after a
chain of fraction-free substitutions, and a sign claim is certified by
shifting every variable by one and reading coefficient signs.

``symbolic_case`` builds the gates of a case and reads no registry;
``_formula_checks`` runs ``verify_entry`` once per registry entry of a case,
and ``formula_records`` hands out fresh record dicts from it.  Both memos are
unbounded: their keys are the 3 shipped families times the 32 sign cases, and a
bad key raises, which is never cached.  All 96 ``SymbolicCase``s hold about
1.0 MB by tracemalloc, their formula checks 0.06 MB.  A case whose route checks
fail raises on every call; FAIL formula checks are results and are cached.
Callers share the cached values, so ``SymbolicCase`` is immutable and the
memos hold tuples.  ``load_registry`` is memoised per family and read-only.
"""

from __future__ import annotations

import json
from functools import lru_cache, reduce
from importlib import resources
from itertools import product, repeat
from math import lcm, prod
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .families import FamilySpec, load_family, symbolic_derivs
from .laurent import HalfLaurent
from .multipoly import ExprError, MultiPoly, affine_values, parse_poly
from .obstruction import GATE_ORDER, ObstructionVerdict, instance_verdict
from .seifert import SeifertTemplate, conway_symbolic, leading_coeff_symbolic, template_for

ALL_CASES = ["".join(p) for p in product("+-", repeat=5)]


class SweepConfig(NamedTuple):
    family: str
    n_range: int = 4                  # at least 2, which sweep_case checks
    use_root5: bool = False


class ExceptionRecord(NamedTuple):
    signs: str
    pattern: Optional[str]            # the registered signed tuple, None if unmatched
    instances: tuple[tuple[int, ...], ...] = ()


class CaseReport(NamedTuple):
    signs: str
    instance_count: int
    exclusions: dict[str, int]
    exceptions: list[ObstructionVerdict]
    formula_checks: list[dict]

    def check(self):
        total = sum(self.exclusions.values()) + len(self.exceptions)
        if total != self.instance_count:
            raise AssertionError("histogram does not add up to the instance count")


# --- registry ----------------------------------------------------------------

class RegistryEntry(NamedTuple):
    quantity: str                      # leading | c3 | d2 | d3 | d4
    expr: Optional[str]                # plain identity, if any
    chain: tuple[tuple[str, str, str], ...]   # (var, numerator, denominator)
    target_num: Optional[str]
    target_den: str
    sign: Optional[str]                # positive | negative | None
    shift: Optional[tuple[str, str]]   # substitution used for the certificate
    index: int = 0                     # position in its sign case's list; shadows tuple.index


class CaseRegistry(NamedTuple):
    cases: Mapping[str, tuple[RegistryEntry, ...]]
    exceptions: Mapping[str, tuple[dict, ...]]
    d4_demo: Mapping[str, tuple[int, ...]]


class RegistryError(ValueError):
    """A registry file that breaks the schema of docs/registry-format.md."""


# What each key may hold: a JSON type, or a tuple of the allowed values.
_TOP = {"family": str, "cases": dict, "exceptions": dict, "d4_demo": dict}
_ENTRY = {"quantity": ("leading", "c3", "d2", "d3", "d4"), "expr": str, "chain": list,
          "target_num": str, "target_den": str, "sign": ("positive", "negative"), "shift": list}
_ROW = {"tuple": str, "constraints": dict}
_JSON_NAMES = {str: "a string", list: "a list", dict: "an object"}


class _Repeated(dict):
    """A JSON object whose key ``repeated`` appears twice; the reader's
    ``object_pairs_hook`` makes it and ``parse_registry`` rejects it."""


def _json_object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _Repeated(obj)
        obj.repeated = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
    return obj


def parse_registry(text: str, family: str) -> CaseRegistry:
    """The registry in ``text``, the JSON file of ``family``, checked for the
    shape docs/registry-format.md sets out; formula strings are parsed only
    when they are verified.  A fault raises ``RegistryError`` naming the
    family, the sign case and the entry index."""
    fam = load_family(family)
    k = len(fam.parities)
    variables = fam.with_signs("+" * k).variables

    def fail(where: str, what: str):
        raise RegistryError(f"{family} registry{where}: {what}")

    def keys(obj, schema: dict, required, where: str):
        if not isinstance(obj, dict):
            fail(where, "want an object")
        if isinstance(obj, _Repeated):
            fail(where, f"repeated key {obj.repeated!r}")
        for what, names in (("missing", required - obj.keys()), ("unknown", obj.keys() - schema)):
            if names:
                fail(where, f"{what} key {', '.join(map(repr, sorted(names)))}")
        for key, value in obj.items():
            want = schema[key]
            if isinstance(want, type) and not isinstance(value, want):
                fail(where, f"{key} {value!r} is not {_JSON_NAMES[want]}")
            if isinstance(want, tuple) and value not in want:
                fail(where, f"{key} {value!r} is not one of {', '.join(want)}")

    def headed(row, length: int, where: str) -> tuple:
        if not (isinstance(row, list) and len(row) == length
                and all(isinstance(v, str) for v in row) and row[0] in variables):
            fail(where, f"{row!r} is not {length} strings headed by one of {', '.join(variables)}")
        return tuple(row)

    def sign_cases(name: str):
        if isinstance(raw[name], _Repeated):
            fail(f", {name}", f"repeated key {raw[name].repeated!r}")
        for signs, value in raw[name].items():
            where = f", {name}[{signs!r}]"
            if len(signs) != k or not set(signs) <= {"+", "-"} or not isinstance(value, list):
                fail(where, f"want a sign case of {k} characters over +/- mapped to a list")
            yield signs, value, where

    try:
        raw = json.loads(text, object_pairs_hook=_json_object)
    except ValueError as exc:
        raise RegistryError(f"{family} registry: not JSON ({exc})") from None
    keys(raw, _TOP, _TOP.keys(), "")
    if raw["family"] != family:
        fail("", f"family field {raw['family']!r} is not {family!r}")
    cases, exceptions, d4_demo = {}, {}, {}
    for signs, entries, at in sign_cases("cases"):
        parsed = []
        for i, e in enumerate(entries):
            keys(e, _ENTRY, {"quantity"}, f"{at}[{i}]")
            for ok, what in (("expr" in e or "target_num" in e, "neither expr nor target_num"),
                             ("target_num" in e or not {"chain", "target_den"} & e.keys(),
                              "chain or target_den without target_num"),
                             ("sign" in e or "shift" not in e, "shift without sign")):
                if not ok:
                    fail(f"{at}[{i}]", what)
            parsed.append(RegistryEntry(
                e["quantity"], e.get("expr"),
                tuple(headed(row, 3, f"{at}[{i}] chain") for row in e.get("chain", [])),
                e.get("target_num"), e.get("target_den", "1"), e.get("sign"),
                headed(e["shift"], 2, f"{at}[{i}] shift") if "shift" in e else None, i))
        cases[signs] = tuple(parsed)
    for signs, rows, at in sign_cases("exceptions"):
        for i, row in enumerate(rows):
            where = f"{at}[{i}]"
            keys(row, _ROW, _ROW.keys(), where)
            keys(row["constraints"], dict.fromkeys(variables, str), set(), f"{where} constraints")
        exceptions[signs] = tuple(rows)
    for signs, n, at in sign_cases("d4_demo"):
        if len(n) != len(variables) or not all(type(v) is int and v >= 1 for v in n):
            fail(at, f"{n!r} is not {len(variables)} integers >= 1")
        d4_demo[signs] = tuple(n)
    return CaseRegistry(*map(MappingProxyType, (cases, exceptions, d4_demo)))


@lru_cache(maxsize=None)
def load_registry(family: str) -> CaseRegistry:
    """The registry shipped with the package for ``family``, read once."""
    data = resources.files("twistknots").joinpath(f"data/registry/{family}.json")
    return parse_registry(data.read_text(), family)


class SymbolicCase(NamedTuple):
    """The gate polynomials of one sign case, used by sweeps and formula checks.

    Immutable, since ``symbolic_case`` hands the same object to every caller.
    """

    spec: FamilySpec
    leading: MultiPoly
    a2: MultiPoly
    derivs: tuple[MultiPoly, ...]     # k = 0..4
    template: SeifertTemplate         # the Seifert matrix leading and a2 come from

    @property
    def c3(self) -> MultiPoly:
        # second Alexander coefficient: a2 - 4 * a4 with a4 the leading term
        return self.a2 - self.leading.scale(4)


@lru_cache(maxsize=None)
def symbolic_case(family: str, signs: str) -> SymbolicCase:
    spec = load_family(family).with_signs(signs)
    tpl = template_for(family, signs)
    lead = leading_coeff_symbolic(tpl)
    cz = conway_symbolic(tpl)
    zero = MultiPoly.zero(spec.variables)
    a2, a4 = cz.get(2, zero), cz.get(4, zero)
    if a4 != lead:
        raise AssertionError(f"z^4 Conway coefficient differs from det for {family} {signs}")
    derivs = tuple(symbolic_derivs(spec, 4))
    if derivs[2] != a2.scale(-6):
        raise AssertionError(f"V''(1) != -6 a2 for {family} {signs}")
    return SymbolicCase(spec, lead, a2, derivs, tpl)


# --- formula verification -------------------------------------------------------

def _certify_sign(poly: MultiPoly, claim: str, shift: Optional[tuple[str, MultiPoly]],
                  variables) -> bool:
    """True when the shifted-coefficient test proves strict positivity or
    negativity of poly, after the substitution ``shift``, for variables >= 1."""
    work = poly if claim == "positive" else -poly
    if shift is not None:
        var, repl = shift
        work, _ = work.substitute_cleared(var, repl, MultiPoly.const(variables, 1))
    shifted = work.shifted_by_one()
    consts = shifted.terms.get((0,) * len(variables), 0)
    return consts > 0 and all(c > 0 for c in shifted.terms.values())


def _registry_poly(text: str, variables, where: str) -> MultiPoly:
    """``parse_poly`` of a registry field, or a ``RegistryError`` naming its place."""
    try:
        return parse_poly(text, variables)
    except ExprError as exc:
        raise RegistryError(f"{where}: {exc}") from None


def verify_entry(sym: SymbolicCase, entry: RegistryEntry) -> dict:
    """The entry's check record; a formula that does not parse, or a denominator
    that is the zero polynomial, is a ``RegistryError``."""
    variables = sym.spec.variables
    quantity = {"leading": sym.leading, "c3": sym.c3, "d2": sym.derivs[2],
                "d3": sym.derivs[3], "d4": sym.derivs[4]}[entry.quantity]
    record = {"quantity": entry.quantity, "status": "PASS", "checks": []}

    def parse(text: str, field: str, denominator: bool = False) -> MultiPoly:
        where = f"{sym.spec.name} registry, cases[{sym.spec.signs_str()!r}][{entry.index}] {field}"
        poly = _registry_poly(text, variables, where)
        if denominator and not poly:
            raise RegistryError(f"{where}: denominator {text!r} is zero")
        return poly

    def note(ok: bool, check: str, passed: str, failed: str):
        record["checks"].append(f"{check}: {passed if ok else failed}")
        if not ok:
            record["status"] = "FAIL"

    if entry.expr is not None:
        note(quantity == parse(entry.expr, "expr"), "identity", "exact", "mismatch")

    claimed = quantity   # what a sign claim is about
    if entry.target_num is not None:
        # push the computed quantity through the substitution chain, clearing
        # denominators, then compare against target_num / target_den; the
        # quantity is work / den_acc throughout, and den_acc may hold a later
        # chain variable, so each side takes the power of den cleared from the other
        work = quantity
        den_acc = MultiPoly.const(variables, 1)
        for j, (var, num_s, den_s) in enumerate(entry.chain):
            num = parse(num_s, f"chain[{j}][1]")
            den = parse(den_s, f"chain[{j}][2]", denominator=True)
            work, deg = work.substitute_cleared(var, num, den)
            den_acc, deg_acc = den_acc.substitute_cleared(var, num, den)
            work, den_acc = work * den ** deg_acc, den_acc * den ** deg
        t_num = parse(entry.target_num, "target_num")
        t_den = parse(entry.target_den, "target_den", denominator=True)
        note(work * t_den == t_num * den_acc, "chained", "exact", "mismatch")
        claimed = t_num * t_den

    shift = entry.shift and (entry.shift[0], parse(entry.shift[1], "shift[1]"))
    if entry.sign in ("positive", "negative") and record["status"] == "PASS":
        note(_certify_sign(claimed, entry.sign, shift, variables),
             f"sign {entry.sign}", "certificate", "uncertified")
    return record


@lru_cache(maxsize=None)
def _formula_checks(family: str, signs: str) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
    """(quantity, status, checks) of each registry entry of the case, in registry order."""
    sym = symbolic_case(family, signs)
    records = (verify_entry(sym, e) for e in load_registry(family).cases.get(signs, ()))
    return tuple((r["quantity"], r["status"], tuple(r["checks"])) for r in records)


def formula_records(family: str, signs: str) -> list[dict]:
    """The case's formula checks as fresh ``verify_entry`` records."""
    return [{"quantity": q, "status": status, "checks": list(checks)}
            for q, status, checks in _formula_checks(family, signs)]


def verify_paper_case(family: str, signs: str,
                      registry: Optional[CaseRegistry] = None) -> list[dict]:
    """The ``formula_records`` of a case that ``registry`` (default: the shipped one) lists."""
    if signs not in (registry or load_registry(family)).cases:
        raise ValueError(f"no registered formulas for {family} {signs}")
    return formula_records(family, signs)


# --- exceptions -------------------------------------------------------------------

def _parsed_patterns(family: str, registry: CaseRegistry, signs: str, variables) -> list:
    """The sign case's exception patterns as (tuple, forms), one affine form per
    constraint: its expression less its twist, over ``variables``, so that a
    pattern matches where all its forms are 0.  A constraint that does not
    parse, or is not affine, is a ``RegistryError`` naming its place."""

    def form(i: int, var: str, expr: str) -> tuple:
        where = f"{family} registry, exceptions[{signs!r}][{i}] constraints[{var!r}]"
        poly = _registry_poly(expr, variables, where)
        if poly.total_degree() > 1:
            raise RegistryError(f"{where}: {expr!r} is not affine")
        const, linear = poly.affine()
        return const, linear + ((variables.index(var), -1),)

    return [(r["tuple"], tuple(form(i, var, expr) for var, expr in r["constraints"].items()))
            for i, r in enumerate(registry.exceptions.get(signs, ()))]


def _matching(patterns: list, n: tuple[int, ...]) -> list[str]:
    """The patterns of ``_parsed_patterns`` whose every constraint holds at n."""
    return [pattern for pattern, forms in patterns if not any(affine_values(forms, n))]


# --- sweeping ----------------------------------------------------------------------

def _gate_rows(poly: MultiPoly, plane: list[tuple[int, ...]], at: list[int] | range):
    """The coefficients of D * poly in the last variable over a plane of lines,
    an outer prefix at a time.

    D is the lcm of the coefficient denominators, so every coefficient is an
    exact int and D * poly has the sign and zero set of poly.  ``plane``
    lists points over the variables at positions ``at`` (never the last,
    maybe none): a grid for the first gate's core, that gate's zeros for a
    later gate.  The outer prefix holds the other variables but the last, in
    order.  ``rows(outer)`` gives [row_0, ..., row_d] with D * poly = row_0[g]
    + ... + row_d[g] v^d at (outer, plane[g], v), d the degree in the last
    variable.  The terms are grouped by exponent of v and by monomial in the
    plane variables, whose values over the plane are computed here once.
    """
    inner = [i for i in range(len(poly.vars) - 1) if i not in at]
    scale = lcm(*(c.denominator for c in poly.terms.values()))
    degree = max((m[-1] for m in poly.terms), default=0)
    groups: list[dict] = [{} for _ in range(degree + 1)]
    for mono, c in poly.terms.items():
        # the outer index x, repeated e times for the factor outer[x]^e
        factors = tuple(x for x, i in enumerate(inner) for _ in range(mono[i]))
        groups[mono[-1]].setdefault(tuple(mono[i] for i in at), []).append(
            (int(c * scale), factors))
    groups = [[(terms, [prod(map(pow, point, plane_mono)) for point in plane])
               for plane_mono, terms in group.items()] for group in groups]
    zero_row = [0] * len(plane)

    def rows(outer) -> list[list[int]]:
        out = []
        for group in groups:
            row = None
            for terms, values in group:
                weight = 0
                for c, factors in terms:
                    for i in factors:
                        c *= outer[i]
                    weight += c
                row = ([weight * x for x in values] if row is None else
                       [r + weight * x for r, x in zip(row, values)])
            out.append(zero_row if row is None else row)
        return out

    return rows


def _plane_zeros(rows: list[list[int]], lines) -> list:
    """(g, zeros) for each (g, alive) of ``lines`` whose line c_0 + c_1 v + ...
    + c_d v^d, with c_e = rows[e][g], vanishes at some v of alive (ascending
    ints), in the order of ``lines``; zeros lists those v in ascending order.
    Up to degree 1 the line is solved: where c_1 != 0 the only candidate is
    -c_0/c_1, kept when it is an integer in alive; where c_1 = 0 the zeros are
    all of alive if c_0 = 0, otherwise none.  From degree 2 on, Horner runs at
    each v of alive."""
    out = []
    if len(rows) > 2:
        for g, alive in lines:
            top = [row[g] for row in reversed(rows)]
            zeros = [v for v in alive if not reduce(lambda acc, c: acc * v + c, top, 0)]
            if zeros:
                out.append((g, zeros))
        return out
    c0s, c1s = rows if len(rows) == 2 else (rows[0], [0] * len(rows[0]))
    for g, alive in lines:
        c0, c1 = c0s[g], c1s[g]
        if c1 and not c0 % c1 and -c0 // c1 in alive:
            out.append((g, [-c0 // c1]))
        elif not (c0 or c1):
            out.append((g, alive))
    return out


def _first_zeros(poly: MultiPoly, axis: range) -> tuple[list[int], list]:
    """(at, picks): the zeros of poly on the box axis^k as (p, alive) pairs, p
    a point over the variables at positions ``at`` (never the last, the others
    free) and alive the values of the last variable there.  The core, poly
    over its monomial content ``low``, is solved over the variables it
    mentions (the last alone if none)."""
    k = len(poly.vars)
    low = [min((m[i] for m in poly.terms), default=0) for i in range(k)]
    used = [i for i in range(k) if any(m[i] > low[i] for m in poly.terms)] or [k - 1]
    core = MultiPoly([poly.vars[i] for i in used],
                     {tuple(m[i] - low[i] for i in used): c for m, c in poly.terms.items()})
    j = max(len(used) - 3, 0)   # the core's outer prefix; its plane is the rest but the last
    plane = list(product(axis, repeat=len(used) - 1 - j))
    rows = _gate_rows(core, plane, range(j, len(used) - 1))
    zeros = [(outer + plane[g], alive) for outer in product(axis, repeat=j)
             for g, alive in _plane_zeros(rows(outer), zip(range(len(plane)), repeat(axis)))]
    if used[-1] == k - 1:
        return used[:-1], zeros
    return used, [(p + (v,), axis) for p, alive in zeros for v in alive]


def _gate_loop(gates: list[MultiPoly], axis: range) -> tuple[list[int], list[tuple]]:
    """(excluded, survivors): how many points of the box axis^k each gate
    is the first nonzero gate at, and the points where every gate is 0, in
    box order."""
    k = len(gates[0].vars)
    at, picks = _first_zeros(gates[0], axis)
    inner = [i for i in range(k - 1) if i not in at]
    order = inner + at + [k - 1]
    plane = [p for p, _ in picks]
    passed = [sum(len(a) for _, a in picks) * len(axis) ** len(inner)] + [0] * len(gates[1:])
    survivors = []
    if picks:
        later = {}
        start = list(enumerate(alive for _, alive in picks))
        for outer in product(axis, repeat=len(inner)):
            lines = start
            for i, gate in enumerate(gates[1:], 1):
                if i not in later:
                    later[i] = _gate_rows(gate, plane, at)
                lines = _plane_zeros(later[i](outer), lines)
                passed[i] += sum(len(alive) for _, alive in lines)
                if not lines:
                    break
            survivors += [outer + plane[g] + (v,) for g, alive in lines for v in alive]
    back = [order.index(i) for i in range(k)]
    return ([before - after for before, after in zip([len(axis) ** k] + passed, passed)],
            sorted(tuple(p[j] for j in back) for p in survivors))


def sweep_case(cfg: SweepConfig, signs: str,
               registry: Optional[CaseRegistry] = None) -> CaseReport:
    """One sign case's gate histogram, exceptions and formula checks;
    ``registry`` is unused, the checks come from ``formula_records``."""
    if cfg.n_range < 2:
        raise ValueError("need a range of at least 2 for meaningful coverage")
    sym = symbolic_case(cfg.family, signs)
    spec = sym.spec
    exceptions: list[ObstructionVerdict] = []
    # gate order as in cosmetic_gate; d2 needs no gate of its own, since
    # V''(1) = -6 a2 is checked in symbolic_case
    gates = {"alexander_leading": sym.leading, "conway": sym.a2,
             "d3": sym.derivs[3], "d4": sym.derivs[4]}
    excluded, survivors = _gate_loop(list(gates.values()), range(1, cfg.n_range + 1))
    exclusions = {g: 0 for g in GATE_ORDER} | dict(zip(gates, excluded))
    for n in survivors:   # every gate polynomial, the lead included, is 0 here
        verdict, jones, conway = instance_verdict(spec, sym.template, n, cfg.use_root5)
        if verdict.excluded_by == "root5":
            exclusions["root5"] += 1
        elif not verdict.is_exception:
            raise AssertionError(
                f"{verdict.instance} passed the gate loop but {verdict.excluded_by} excludes it")
        elif jones != HalfLaurent.one() or not conway.is_trivial():
            raise AssertionError(
                f"exception instance {verdict.instance} is not certified trivial")
        else:
            exceptions.append(verdict)
    report = CaseReport(signs, cfg.n_range ** len(spec.variables), exclusions, exceptions,
                        formula_records(cfg.family, signs))
    report.check()
    return report


def sweep(cfg: SweepConfig) -> list[CaseReport]:
    """All 32 sign cases; deterministic order and content."""
    return [sweep_case(cfg, s) for s in ALL_CASES]


def classify_exceptions(cfg: SweepConfig, reports: list[CaseReport],
                        registry: Optional[CaseRegistry] = None) -> list[ExceptionRecord]:
    registry = registry or load_registry(cfg.family)
    fam = load_family(cfg.family)
    instances: dict[tuple[str, Optional[str]], list[tuple[int, ...]]] = {}
    for report in reports:
        variables = fam.with_signs(report.signs).variables
        parsed = _parsed_patterns(cfg.family, registry, report.signs, variables)
        for verdict in report.exceptions:
            n = verdict.twists
            for pat in _matching(parsed, n) or [None]:   # None: unmatched
                instances.setdefault((report.signs, pat), []).append(n)
    return [ExceptionRecord(*k, tuple(instances[k]))
            for k in sorted(instances, key=lambda kk: (kk[0], kk[1] or ""))]


def sweep_summary(cfg: SweepConfig, reports: list[CaseReport],
                  records: list[ExceptionRecord]) -> dict:
    unmatched = [r for r in records if r.pattern is None]
    return {
        "family": cfg.family,
        "range": cfg.n_range,
        "root5": cfg.use_root5,
        "instances": sum(r.instance_count for r in reports),
        "excluded": sum(sum(r.exclusions.values()) for r in reports),
        "exceptions": sum(len(r.exceptions) for r in reports),
        "unmatched_exceptions": sum(len(r.instances) for r in unmatched),
        "formula_failures": sum(
            1 for r in reports for c in r.formula_checks if c["status"] != "PASS"),
    }


def report_to_dict(report: CaseReport) -> dict:
    return {
        "signs": report.signs,
        "instances": report.instance_count,
        "exclusions": dict(sorted(report.exclusions.items())),
        "exceptions": [v.to_dict() for v in report.exceptions],
        "formula_checks": report.formula_checks,
    }


def full_report(cfg: SweepConfig) -> dict:
    reports = sweep(cfg)
    records = classify_exceptions(cfg, reports)
    return {
        "config": {"family": cfg.family, "range": cfg.n_range, "root5": cfg.use_root5},
        "cases": [report_to_dict(r) for r in reports],
        "exception_patterns": [
            {"signs": r.signs, "pattern": r.pattern, "count": len(r.instances),
             "instances": [list(n) for n in sorted(r.instances)]}
            for r in records],
        "summary": sweep_summary(cfg, reports, records),
    }
