"""Sign-case sweeps, published-formula verification, and exception handling.

For each of the 32 sign cases of a family, the sweep evaluates every instance
in a twist box through the obstruction gates, using the symbolic derivative
and Alexander-coefficient polynomials for speed.  Surviving instances are
matched against the registered parametric exception patterns, and their Jones
and Conway polynomials are certified trivial.

The gates find their zeros a line at a time along the last twist axis.  For a
prefix (n_1..n_{k-1}), each gate polynomial, its denominators cleared, becomes
exact integer coefficients c_0..c_d in the last variable v.  If every c_e is
0, every position still alive survives; at degree 0 none does; at degree 1 the
only candidate is v = -c_0/c_1, kept when it is an integer and still alive;
from degree 2 on, the gate is evaluated by Horner at the alive positions only.
The leading coefficient and a2 have degree 1 in the last variable in every sign
case, d3 degree 2 and d4 degree 3.  A gate runs only while positions are alive,
and the survivors reach full assembly in the order of the box, so the reports
do not depend on how the zeros are found.

The optional root-of-unity gate comes last, so an instance an earlier gate
excludes is counted there whatever its value at the root of unity: a
``use_root5`` sweep runs the same gate loop, and only its survivors, assembled
anyway, reach that gate in ``cosmetic_gate``.  Every survivor has leading, a2,
d3 and d4 equal to 0, and so d2 = -6 a2 too; if ``cosmetic_gate``, which reads
the Seifert route and the assembled polynomial, excludes it by any gate but
root5, two routes disagree and the sweep raises ``AssertionError``.

The formula registry is a data file of verbatim case expressions; each entry is
checked against the computed symbolic quantity, either as a plain polynomial
identity or after a chain of fraction-free substitutions (clearing every
denominator).  Sign claims are certified by shifting all variables by one and
inspecting coefficient signs; a claim this certificate cannot prove fails as
uncertified.

``symbolic_case`` is memoised in an LRU cache of ``len(ALL_CASES)`` entries,
one family's 32 sign cases (about 16 KB each, so at most about 0.5 MB), so
``verify_paper_case`` followed by ``sweep_case`` on the same case computes the
symbolic data once.  A case whose route checks fail raises on every call, since
exceptions are not cached.  Every caller shares the cached ``SymbolicCase``,
so it is frozen and its ``derivs`` is a tuple.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from importlib import resources
from itertools import product
from math import lcm
from typing import Optional

from .families import FamilySpec, assemble_jones, load_family, symbolic_derivs
from .laurent import HalfLaurent
from .multipoly import MultiPoly, parse_poly
from .obstruction import GATE_ORDER, ObstructionVerdict, cosmetic_gate
from .seifert import (SeifertTemplate, conway_poly, conway_symbolic, leading_coeff_symbolic,
                      template_for)

ALL_CASES = ["".join(p) for p in product("+-", repeat=5)]


@dataclass(frozen=True)
class SweepConfig:
    family: str
    n_range: int = 4
    use_root5: bool = False

    def __post_init__(self):
        if self.n_range < 2:
            raise ValueError("need a range of at least 2 for meaningful coverage")


@dataclass
class ExceptionRecord:
    signs: str
    pattern: Optional[str]            # the registered signed tuple, None if unmatched
    instances: list[tuple[int, ...]] = field(default_factory=list)


@dataclass
class CaseReport:
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

@dataclass(frozen=True)
class RegistryEntry:
    quantity: str                      # leading | c3 | d2 | d3 | d4
    expr: Optional[str]                # plain identity, if any
    chain: tuple[tuple[str, str, str], ...]   # (var, numerator, denominator)
    target_num: Optional[str]
    target_den: str
    sign: Optional[str]                # positive | negative | None
    shift: Optional[tuple[str, str]]   # substitution used for the certificate


@dataclass(frozen=True)
class CaseRegistry:
    family: str
    cases: dict[str, tuple[RegistryEntry, ...]]
    exceptions: dict[str, tuple[dict, ...]]
    d4_demo: dict[str, tuple[int, ...]]


def load_registry(family: str) -> CaseRegistry:
    data = resources.files("twistknots").joinpath(f"data/registry/{family}.json")
    raw = json.loads(data.read_text())
    cases = {}
    for signs, entries in raw.get("cases", {}).items():
        parsed = []
        for e in entries:
            parsed.append(RegistryEntry(
                quantity=e["quantity"],
                expr=e.get("expr"),
                chain=tuple((c[0], c[1], c[2]) for c in e.get("chain", [])),
                target_num=e.get("target_num"),
                target_den=e.get("target_den", "1"),
                sign=e.get("sign"),
                shift=tuple(e["shift"]) if e.get("shift") else None,
            ))
        cases[signs] = tuple(parsed)
    exceptions = {signs: tuple(rows) for signs, rows in raw.get("exceptions", {}).items()}
    d4_demo = {signs: tuple(v) for signs, v in raw.get("d4_demo", {}).items()}
    return CaseRegistry(raw["family"], cases, exceptions, d4_demo)


@dataclass(frozen=True)
class SymbolicCase:
    """All per-case symbolic data used by sweeps and formula checks.

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


@lru_cache(maxsize=len(ALL_CASES))
def symbolic_case(family: str, signs: str) -> SymbolicCase:
    fam = load_family(family)
    spec = fam.with_signs(signs)
    tpl = template_for(family, signs)
    lead = leading_coeff_symbolic(tpl)
    cz = conway_symbolic(tpl)
    zero = MultiPoly.zero(spec.variables)
    a2 = cz.get(2, zero)
    a4 = cz.get(4, zero)
    if a4 != lead:
        raise AssertionError(f"z^4 Conway coefficient differs from det for {family} {signs}")
    derivs = tuple(symbolic_derivs(spec, 4))
    if derivs[2] != a2.scale(-6):
        raise AssertionError(f"V''(1) != -6 a2 for {family} {signs}")
    return SymbolicCase(spec, lead, a2, derivs, tpl)


# --- formula verification -------------------------------------------------------

def _certify_sign(poly: MultiPoly, claim: str, shift: Optional[tuple[str, str]],
                  variables) -> bool:
    """True when the shifted-coefficient test proves strict positivity or
    negativity of poly for variables >= 1."""
    work = poly if claim == "positive" else -poly
    if shift is not None:
        var, expr = shift
        repl = parse_poly(expr, variables)
        work = work.substitute({var: repl})
    shifted = work.shifted_by_one()
    consts = shifted.terms.get((0,) * len(variables), Fraction(0))
    return consts > 0 and all(c > 0 for c in shifted.terms.values())


def verify_entry(sym: SymbolicCase, entry: RegistryEntry) -> dict:
    variables = sym.spec.variables
    quantity = {
        "leading": sym.leading,
        "c3": sym.c3,
        "d2": sym.derivs[2],
        "d3": sym.derivs[3],
        "d4": sym.derivs[4],
    }[entry.quantity]
    record = {"quantity": entry.quantity, "status": "PASS", "checks": []}

    if entry.expr is not None:
        expected = parse_poly(entry.expr, variables)
        if quantity != expected:
            record["status"] = "FAIL"
            record["checks"].append("identity: mismatch")
        else:
            record["checks"].append("identity: exact")

    claimed = quantity   # what a sign claim is about
    if entry.target_num is not None:
        # push the computed quantity through the substitution chain, clearing
        # denominators, then compare against target_num / target_den
        work = quantity
        den_acc = MultiPoly.const(variables, 1)
        for var, num_s, den_s in entry.chain:
            num = parse_poly(num_s, variables)
            den = parse_poly(den_s, variables)
            work, deg = work.substitute_cleared(var, num, den)
            den_acc, _ = den_acc.substitute_cleared(var, num, den)
            den_acc = den_acc * den ** deg
        t_num = parse_poly(entry.target_num, variables)
        t_den = parse_poly(entry.target_den, variables)
        if work * t_den == t_num * den_acc:
            record["checks"].append("chained: exact")
        else:
            record["status"] = "FAIL"
            record["checks"].append("chained: mismatch")
        claimed = t_num * t_den

    if entry.sign in ("positive", "negative") and record["status"] == "PASS":
        if _certify_sign(claimed, entry.sign, entry.shift, variables):
            record["checks"].append(f"sign {entry.sign}: certificate")
        else:
            record["status"] = "FAIL"
            record["checks"].append(f"sign {entry.sign}: uncertified")
    return record


def verify_paper_case(family: str, signs: str,
                      registry: Optional[CaseRegistry] = None) -> list[dict]:
    registry = registry or load_registry(family)
    if signs not in registry.cases:
        raise KeyError(f"no registered formulas for {family} {signs}")
    sym = symbolic_case(family, signs)
    return [verify_entry(sym, e) for e in registry.cases[signs]]


# --- exceptions -------------------------------------------------------------------

def _pattern_matches(constraints: dict, point: dict) -> bool:
    for var, expr in constraints.items():
        target = parse_poly(expr, tuple(point)).eval(point)
        if point[var] != target:
            return False
    return True


def match_exception(registry: CaseRegistry, signs: str, n: tuple[int, ...],
                    variables) -> list[str]:
    point = dict(zip(variables, n))
    out = []
    for row in registry.exceptions.get(signs, ()):
        if _pattern_matches(row["constraints"], point):
            out.append(row["tuple"])
    return out


# --- sweeping ----------------------------------------------------------------------

def _line_coefficients(poly: MultiPoly):
    """The coefficients of D * poly in the last variable, a prefix at a time.

    D is the lcm of the coefficient denominators, so every coefficient is an
    exact int and D * poly has the sign and zero set of poly.  Returns
    ``coeffs``: ``coeffs(prefix)`` takes the first k-1 twists and gives
    [c_0, ..., c_d], with D * poly(prefix, v) = c_0 + c_1 v + ... + c_d v^d and
    d the degree of poly in the last variable (trailing c_e may be 0).
    """
    scale = lcm(*(c.denominator for c in poly.terms.values()))
    degree = max((m[-1] for m in poly.terms), default=0)
    groups: list[list] = [[] for _ in range(degree + 1)]
    for mono, c in poly.terms.items():
        # the prefix index i, repeated e times for the factor n_i^e
        factors = tuple(i for i, e in enumerate(mono[:-1]) for _ in range(e))
        groups[mono[-1]].append((int(c * scale), factors))

    def coeffs(prefix) -> list[int]:
        out = []
        for terms in groups:
            coeff = 0
            for c, factors in terms:
                for i in factors:
                    c *= prefix[i]
                coeff += c
            out.append(coeff)
        return out

    return coeffs


def _line_zeros(coeffs: list[int], alive):
    """The positions v of ``alive`` (ascending ints) where
    c_0 + c_1 v + ... + c_d v^d = 0, in ascending order.

    When every c_e is 0, that is all of ``alive``; when only c_0 is nonzero,
    none.  At degree 1 the only candidate is the root -c_0/c_1, kept when it is
    an integer in ``alive``; from degree 2 on, Horner runs at each v of
    ``alive``.
    """
    d = len(coeffs) - 1
    while d > 0 and not coeffs[d]:
        d -= 1
    if d == 1:
        v, r = divmod(-coeffs[0], coeffs[1])
        return [v] if not r and v in alive else []
    if d == 0:
        return [] if coeffs[0] else alive
    top = coeffs[d::-1]
    zeros = []
    for v in alive:
        acc = 0
        for c in top:
            acc = acc * v + c
        if not acc:
            zeros.append(v)
    return zeros


def sweep_case(cfg: SweepConfig, signs: str,
               registry: Optional[CaseRegistry] = None) -> CaseReport:
    registry = registry or load_registry(cfg.family)
    sym = symbolic_case(cfg.family, signs)
    spec = sym.spec
    k = len(spec.variables)
    exclusions = {g: 0 for g in GATE_ORDER}
    exceptions: list[ObstructionVerdict] = []

    # gate order as in cosmetic_gate; d2 needs no gate of its own, since
    # V''(1) = -6 a2 is checked in symbolic_case
    gates = {key: _line_coefficients(poly) for key, poly in
             (("alexander_leading", sym.leading), ("conway", sym.a2),
              ("d3", sym.derivs[3]), ("d4", sym.derivs[4]))}
    axis = range(1, cfg.n_range + 1)
    for prefix in product(axis, repeat=k - 1):
        alive = axis
        for key, coeffs in gates.items():
            zeros = _line_zeros(coeffs(prefix), alive)
            exclusions[key] += len(alive) - len(zeros)
            alive = zeros
            if not alive:
                break
        for v in alive:   # every gate polynomial, the lead included, is 0 here
            n = prefix + (v,)
            jones = assemble_jones(spec, n)
            conway = conway_poly(sym.template, n)
            verdict = cosmetic_gate(jones, jones.derivs_at_one(4), conway, 0,
                                    use_root5=cfg.use_root5,
                                    instance=instance_id(cfg.family, signs, n), twists=n)
            if verdict.excluded_by == "root5":
                exclusions["root5"] += 1
            elif not verdict.is_exception:
                raise AssertionError(
                    f"{verdict.instance} passed the gate loop but "
                    f"{verdict.excluded_by} excludes it")
            elif jones != HalfLaurent.one() or not conway.is_trivial():
                raise AssertionError(
                    f"exception instance {verdict.instance} is not certified trivial")
            else:
                exceptions.append(verdict)

    checks = []
    if signs in registry.cases:
        checks = [verify_entry(sym, e) for e in registry.cases[signs]]
    report = CaseReport(signs, cfg.n_range ** k, exclusions, exceptions, checks)
    report.check()
    return report


def instance_id(family: str, signs: str, n) -> str:
    return f"{family}[{signs}]({','.join(str(v) for v in n)})"


def sweep(cfg: SweepConfig) -> list[CaseReport]:
    """All 32 sign cases; deterministic order and content."""
    registry = load_registry(cfg.family)
    workers = min(int(os.environ.get("TWISTKNOTS_WORKERS", "1")), len(ALL_CASES))
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(partial(sweep_case, cfg), ALL_CASES)
    else:
        reports = [sweep_case(cfg, s, registry) for s in ALL_CASES]
    return reports


def classify_exceptions(cfg: SweepConfig, reports: list[CaseReport],
                        registry: Optional[CaseRegistry] = None) -> list[ExceptionRecord]:
    registry = registry or load_registry(cfg.family)
    fam = load_family(cfg.family)
    records: dict[tuple[str, Optional[str]], ExceptionRecord] = {}
    for report in reports:
        spec = fam.with_signs(report.signs)
        for verdict in report.exceptions:
            n = verdict.twists
            patterns = match_exception(registry, report.signs, n, spec.variables)
            if not patterns:
                key = (report.signs, None)
                rec = records.setdefault(key, ExceptionRecord(report.signs, None))
                rec.instances.append(n)
                continue
            for pat in patterns:
                key = (report.signs, pat)
                rec = records.setdefault(key, ExceptionRecord(report.signs, pat))
                rec.instances.append(n)
    return [records[k] for k in sorted(records, key=lambda kk: (kk[0], kk[1] or ""))]


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
