#!/usr/bin/env python3
"""Write the per-family formula registry data files.

Each registry entry pins one published case quantity: the leading Alexander
coefficient, the second Alexander coefficient (\"c3\"), or a derivative of the
Jones polynomial at 1, either as a plain polynomial identity or as the value
reached after a chain of substitutions with denominators cleared.  Sign claims
are carried alongside so the verifier can certify them.

Run from the repository root:  python3 scripts/build_registry.py
"""

import json
from itertools import product
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "src" / "twistknots" / "data" / "registry"


def entry(quantity, expr=None, chain=(), target_num=None, target_den="1",
          sign=None, shift=None):
    e = {"quantity": quantity}
    if expr is not None:
        e["expr"] = expr
    if chain:
        e["chain"] = [list(c) for c in chain]
    if target_num is not None:
        e["target_num"] = target_num
        e["target_den"] = target_den
    if sign is not None:
        e["sign"] = sign
    if shift is not None:
        e["shift"] = list(shift)
    return e


def seven_six():
    cases = {}
    lead_sym = "((b-1)*(c-1) + a*(b+c-1))*d*e"
    for signs in ("+++++", "+++--", "---++", "-----"):
        cases[signs] = [entry("leading", expr=lead_sym, sign="positive")]
    for signs in ("++++-", "+++-+", "---+-", "----+"):
        cases[signs] = [entry("leading", expr=f"-({lead_sym})", sign="negative")]

    c_ab = ("c", "a*b", "a+b-1")
    b_ac = ("b", "a*c", "a+c-1")
    a_bc = ("a", "b*c", "b+c-1")

    def pair(signs_pair, lead, chain1, d2, d2_num, d2_den, d2_sign):
        for signs in signs_pair:
            cases[signs] = [
                entry("leading", expr=lead),
                entry("d2", expr=d2),
                entry("d2", chain=[chain1], target_num=d2_num, target_den=d2_den,
                      sign=d2_sign),
            ]

    pair(("++-++", "--+--"), "(a*b - c*(a+b-1))*d*e", c_ab,
         "-6*(a*b - c*(a+b+d-1) + d*(b+e))",
         "-6*d*(b^2 + b*(e-1) + (a-1)*e)", "a+b-1", "negative")
    pair(("++--+", "--++-"), "(-a*b + c*(a+b-1))*d*e", c_ab,
         "-6*(a*b + c*(1-a-b+d) - d*(b+e))",
         "6*d*(b^2 + b*(e-1) + (a-1)*e)", "a+b-1", "positive")
    pair(("+-+++", "-+---"), "(a*c - b*(a+c-1))*d*e", b_ac,
         "-6*(a*c + d*(c+e) - b*(a+c+d-1))",
         "-6*d*(c^2 + c*(e-1) + (a-1)*e)", "a+c-1", "negative")
    pair(("+-+-+", "-+-+-"), "(-a*c + b*(a+c-1))*d*e", b_ac,
         "6*(-a*c + b*(a+c-d-1) + d*(c+e))",
         "6*d*(c^2 + c*(e-1) + (a-1)*e)", "a+c-1", "positive")
    pair(("+--+-", "-++-+"), "(-b*c + a*(b+c-1))*d*e", a_bc,
         "6*(-b*c + a*(b+c-1) + d*(b+c+e-1))",
         "6*d*(b+c+e-1)", "1", "positive")
    pair(("+----", "-++++"), "(b*c - a*(b+c-1))*d*e", a_bc,
         "6*(-b*c + a*(b+c-1) - d*(b+c+e-1))",
         "-6*d*(b+c+e-1)", "1", "negative")

    exceptions = {}

    def exception_case(signs, lead, chain1, d2, d2_num, d2_den, chain2,
                       d3_num, d3_den, rows):
        cases[signs] = [
            entry("leading", expr=lead),
            entry("d2", expr=d2),
            entry("d2", chain=[chain1], target_num=d2_num, target_den=d2_den),
            entry("d3", chain=[chain1, chain2], target_num=d3_num, target_den=d3_den),
        ]
        exceptions[signs] = rows

    e_b = ("e", "b*(b-1)", "a+b-1")
    e_c = ("e", "c*(c-1)", "a+c-1")
    e_bc = ("e", "b+c-1", "1")

    con_b = {"a": "1", "c": "1", "b": "e+1"}
    con_c = {"a": "1", "b": "1", "c": "e+1"}
    con_ec = {"a": "1", "b": "1", "e": "c"}
    con_eb = {"a": "1", "c": "1", "e": "b"}

    exception_case("++-+-", "(-a*b + c*(a+b-1))*d*e", c_ab,
                   "-6*(a*b - c*(a+b-1) + d*(b-e-c))",
                   "6*d*(-b^2 + (a-1)*e + b*(1+e))", "a+b-1", e_b,
                   "18*(a-1)*a*(b-1)*b", "a+b-1",
                   [{"tuple": "(1,e+1,-1,d,-e)", "constraints": con_b}])
    exception_case("--+-+", "(-a*b + c*(a+b-1))*d*e", c_ab,
                   "-6*(a*b - c*(a+b-1) + d*(b-e-c))",
                   "6*d*(-b^2 + (a-1)*e + b*(1+e))", "a+b-1", e_b,
                   "-18*(a-1)*a*(b-1)*b", "a+b-1",
                   [{"tuple": "(-1,-(e+1),1,-d,e)", "constraints": con_b}])
    exception_case("++---", "(a*b - c*(a+b-1))*d*e", c_ab,
                   "-6*(a*b - c*(a+b-1) + d*(-b+e+c))",
                   "6*d*(b^2 + e - a*e - b*(1+e))", "a+b-1", e_b,
                   "18*(a-1)*a*(b-1)*b", "a+b-1",
                   [{"tuple": "(1,e+1,-1,-d,-e)", "constraints": con_b}])
    exception_case("--+++", "(a*b - c*(a+b-1))*d*e", c_ab,
                   "-6*(a*b - c*(a+b-1) + d*(-b+e+c))",
                   "6*d*(b^2 + e - a*e - b*(1+e))", "a+b-1", e_b,
                   "-18*(a-1)*a*(b-1)*b", "a+b-1",
                   [{"tuple": "(-1,-(e+1),1,d,e)", "constraints": con_b}])
    exception_case("+-++-", "(-a*c + b*(a+c-1))*d*e", b_ac,
                   "6*(-a*c + b*(a+c+d-1) + d*(e-c))",
                   "6*d*(-c^2 + (a-1)*e + c*(1+e))", "a+c-1", e_c,
                   "18*(a-1)*a*(c-1)*c", "a+c-1",
                   [{"tuple": "(1,-1,e+1,d,-e)", "constraints": con_c}])
    exception_case("-+--+", "(-a*c + b*(a+c-1))*d*e", b_ac,
                   "6*(-a*c + b*(a+c+d-1) + d*(e-c))",
                   "6*d*(-c^2 + (a-1)*e + c*(1+e))", "a+c-1", e_c,
                   "-18*(a-1)*a*(c-1)*c", "a+c-1",
                   [{"tuple": "(-1,1,-(e+1),-d,e)", "constraints": con_c}])
    exception_case("+-+--", "(a*c - b*(a+c-1))*d*e", b_ac,
                   "6*(-a*c + b*(-1+a+c-d) + d*(c-e))",
                   "6*d*(c^2 + e - a*e - c*(1+e))", "a+c-1", e_c,
                   "18*(a-1)*a*(c-1)*c", "a+c-1",
                   [{"tuple": "(1,-1,e+1,-d,-e)", "constraints": con_c}])
    exception_case("-+-++", "(a*c - b*(a+c-1))*d*e", b_ac,
                   "6*(-a*c + b*(-1+a+c-d) + d*(c-e))",
                   "6*d*(c^2 + e - a*e - c*(1+e))", "a+c-1", e_c,
                   "-18*(a-1)*a*(c-1)*c", "a+c-1",
                   [{"tuple": "(-1,1,-(e+1),d,e)", "constraints": con_c}])
    exception_case("+--++", "(b*c - a*(b+c-1))*d*e", a_bc,
                   "6*(-b*c + a*(b+c-1) + d*(b+c-e-1))",
                   "6*d*(b+c-1-e)", "1", e_bc,
                   "-18*(b-1)*b*(c-1)*c", "b+c-1",
                   [{"tuple": "(1,-1,-e,d,e)", "constraints": con_ec},
                    {"tuple": "(1,-e,-1,d,e)", "constraints": con_eb}])
    exception_case("-++--", "(b*c - a*(b+c-1))*d*e", a_bc,
                   "6*(-b*c + a*(b+c-1) + d*(b+c-e-1))",
                   "6*d*(b+c-1-e)", "1", e_bc,
                   "18*(b-1)*b*(c-1)*c", "b+c-1",
                   [{"tuple": "(-1,1,e,-d,-e)", "constraints": con_ec},
                    {"tuple": "(-1,e,1,-d,-e)", "constraints": con_eb}])
    exception_case("+---+", "(-b*c + a*(b+c-1))*d*e", a_bc,
                   "6*(a*(b+c-1) - b*c + d*(1-b-c+e))",
                   "-6*d*(-1+b+c-e)", "1", e_bc,
                   "-18*(b-1)*b*(c-1)*c", "b+c-1",
                   [{"tuple": "(1,-1,-e,-d,e)", "constraints": con_ec},
                    {"tuple": "(1,-e,-1,-d,e)", "constraints": con_eb}])
    exception_case("-+++-", "(-b*c + a*(b+c-1))*d*e", a_bc,
                   "6*(a*(b+c-1) - b*c + d*(1-b-c+e))",
                   "-6*d*(-1+b+c-e)", "1", e_bc,
                   "18*(b-1)*b*(c-1)*c", "b+c-1",
                   [{"tuple": "(-1,1,e,d,-e)", "constraints": con_ec},
                    {"tuple": "(-1,e,1,d,-e)", "constraints": con_eb}])

    return {"family": "7_6", "cases": cases,
            "exceptions": exceptions, "d4_demo": {}}


def ten_fifty_eight():
    cases = {}
    for signs in ("-----", "+++++", "+--++", "-++--"):
        cases[signs] = [entry("leading", expr="(a*d + a*e + d*e)*b*c", sign="positive")]
    for signs in ("--+--", "++-++", "+-+++", "-+---"):
        cases[signs] = [entry("leading", expr="-(a*d + a*e + d*e)*b*c", sign="negative")]

    e_ad = ("e", "a*d", "a+d")
    d_ae = ("d", "a*e", "a+e")
    a_de = ("a", "d*e", "d+e")

    def c3_group(signs_pair, lead, chain1, c3, c3_num, c3_den, c3_sign):
        for signs in signs_pair:
            cases[signs] = [
                entry("leading", expr=lead),
                entry("c3", expr=c3),
                entry("c3", chain=[chain1], target_num=c3_num, target_den=c3_den,
                      sign=c3_sign),
            ]

    c3_group(("++++-", "----+"), "(a*d - a*e - d*e)*b*c", e_ad,
             "a*b + a*c + c*d - b*e - 4*b*c*(a*d - a*e - d*e)",
             "a^2*b + (a+d)^2*c", "a+d", "positive")
    c3_group(("+--+-", "-++-+"), "(a*d - a*e - d*e)*b*c", e_ad,
             "-(a*b + a*c + c*d - b*e) - 4*b*c*(a*d - a*e - d*e)",
             "-(a^2*b + (a+d)^2*c)", "a+d", "negative")
    c3_group(("+++-+", "---+-"), "(a*e - a*d - d*e)*b*c", d_ae,
             "a*b + a*c - c*d + b*e - 4*b*c*(a*e - a*d - d*e)",
             "a^2*c + b*(a+e)^2", "a+e", "positive")
    c3_group(("+---+", "-+++-"), "(a*e - a*d - d*e)*b*c", d_ae,
             "-(a*b + a*c - c*d + b*e) - 4*b*c*(a*e - a*d - d*e)",
             "-(a^2*c + b*(a+e)^2)", "a+e", "negative")
    c3_group(("+++--", "---++"), "(-a*d - a*e + d*e)*b*c", a_de,
             "a*b + a*c - c*d - b*e - 4*b*c*(-a*d - a*e + d*e)",
             "-(c*d^2 + b*e^2)", "d+e", "negative")
    c3_group(("+----", "-++++"), "(-a*d - a*e + d*e)*b*c", a_de,
             "-(a*b + a*c - c*d - b*e) - 4*b*c*(-a*d - a*e + d*e)",
             "c*d^2 + b*e^2", "d+e", "positive")

    # cases settled at the third derivative
    def d3_case(signs, lead, chain1, c3, c3_num, c3_den, chain2, d3, d3_num,
                d3_den, d3_sign):
        rows = [entry("leading", expr=lead),
                entry("c3", expr=c3),
                entry("c3", chain=[chain1], target_num=c3_num, target_den=c3_den)]
        if d3 is not None:
            rows.append(entry("d3", expr=d3))
        rows.append(entry("d3", chain=[chain1, chain2], target_num=d3_num,
                          target_den=d3_den, sign=d3_sign))
        cases[signs] = rows

    c_from_b = ("c", "b*(a+e)^2", "a^2")
    b_from_c = ("b", "c*(a+d)^2", "a^2")

    d3_case("++--+", "(a*d - a*e + d*e)*b*c", d_ae,
            "a*b - a*c + c*d + b*e - 4*b*c*(a*d - a*e + d*e)",
            "(a+e)^2*b - c*a^2", "a+e", c_from_b,
            "18*((a*b - a*c + c*d + b*e) - a^2*b - a*b^2 + a^2*c + 2*a*b*c"
            " - a*c^2 - 2*a*c*d + c^2*d + c*d^2 - 2*a*b*e - b^2*e - b*e^2)",
            "-18*b*e*(2*a^3 + a^2*e + a*b*e + b*e^2)", "a^2", "negative")
    d3_case("--++-", "(a*d - a*e + d*e)*b*c", d_ae,
            "a*b - a*c + c*d + b*e - 4*b*c*(a*d - a*e + d*e)",
            "(a+e)^2*b - c*a^2", "a+e", c_from_b,
            "18*((a*b - a*c + c*d + b*e) + a^2*b + a*b^2 - a^2*c - 2*a*b*c"
            " + a*c^2 + 2*a*c*d - c^2*d - c*d^2 + 2*a*b*e + b^2*e + b*e^2)",
            "18*b*e*(2*a^3 + a^2*e + a*b*e + b*e^2)", "a^2", "positive")
    d3_case("+-++-", "(-a*d + a*e + d*e)*b*c", e_ad,
            "-a*b + a*c + c*d + b*e - 4*b*c*(-a*d + a*e + d*e)",
            "(a+d)^2*c - a^2*b", "a+d", b_from_c,
            None,
            "-18*c*d*(2*a^3 + a^2*d + a*c*d + c*d^2)", "a^2", "negative")
    d3_case("-+--+", "(-a*d + a*e + d*e)*b*c", e_ad,
            "-a*b + a*c + c*d + b*e - 4*b*c*(-a*d + a*e + d*e)",
            "(a+d)^2*c - a^2*b", "a+d", b_from_c,
            None,
            "18*c*d*(2*a^3 + a^2*d + a*c*d + c*d^2)", "a^2", "positive")

    # cases that also need the fourth derivative
    def d4_case(signs, lead, chain1, c3, c3_num, c3_den, chain2, d3_expr,
                d3_num, d3_den, chain3, d4_num, d4_den, d4_sign, d4_shift):
        rows = [entry("leading", expr=lead),
                entry("c3", expr=c3),
                entry("c3", chain=[chain1], target_num=c3_num, target_den=c3_den)]
        if d3_expr is not None:
            rows.append(entry("d3", expr=d3_expr))
        rows.append(entry("d3", chain=[chain1, chain2], target_num=d3_num,
                          target_den=d3_den))
        rows.append(entry("d4", chain=[chain1, chain2, chain3],
                          target_num=d4_num, target_den=d4_den, sign=d4_sign,
                          shift=d4_shift))
        cases[signs] = rows

    c_top = ("c", "a^2*(2*a+d)", "d*(a+d)")
    b_top = ("b", "a^2*(2*a+e)", "(a+e)*e")
    b_cd = ("b", "c*d^2", "e^2")

    # note: the published third-derivative value for these two cases omits the
    # overall factor 18; the registry records the computed normalization
    d4_case("++-+-", "(-a*d + a*e + d*e)*b*c", e_ad,
            "a*b - a*c - c*d - b*e - 4*b*c*(-a*d + a*e + d*e)",
            "a^2*b - c*(a+d)^2", "a+d", b_from_c, None,
            "18*c*d*(2*a^3 + a^2*d - a*c*d - c*d^2)", "a^2", c_top,
            "48*a^3*(2*a+d)^2*(4*a^2 + 4*a*d + 5*d^2)", "d^2*(a+d)",
            "positive", None)
    d4_case("--+-+", "(-a*d + a*e + d*e)*b*c", e_ad,
            "a*b - a*c - c*d - b*e - 4*b*c*(-a*d + a*e + d*e)",
            "a^2*b - c*(a+d)^2", "a+d", b_from_c, None,
            "-18*c*d*(2*a^3 + a^2*d - a*c*d - c*d^2)", "a^2", c_top,
            "48*a^3*(2*a+d)^2*(4*a^2 + 4*a*d + 5*d^2)", "d^2*(a+d)",
            "positive", None)
    d4_case("+-+-+", "(a*d - a*e + d*e)*b*c", d_ae,
            "-a*b + a*c - c*d - b*e - 4*b*c*(a*d - a*e + d*e)",
            "a^2*c - b*(a+e)^2", "a+e", c_from_b, None,
            "18*b*e*(a^2*(2*a+e) - (a+e)*e*b)", "a^2", b_top,
            "48*a^3*(2*a+e)^2*(4*a^2 + 4*a*e + 5*e^2)", "e^2*(a+e)",
            "positive", None)
    d4_case("-+-+-", "(a*d - a*e + d*e)*b*c", d_ae,
            "-a*b + a*c - c*d - b*e - 4*b*c*(a*d - a*e + d*e)",
            "a^2*c - b*(a+e)^2", "a+e", c_from_b, None,
            "-18*b*e*(a^2*(2*a+e) - (a+e)*e*b)", "a^2", b_top,
            "48*a^3*(2*a+e)^2*(4*a^2 + 4*a*e + 5*e^2)", "e^2*(a+e)",
            "positive", None)
    d4_case("++---", "(a*d + a*e - d*e)*b*c", a_de,
            "a*b - a*c + c*d - b*e - 4*b*c*(a*d + a*e - d*e)",
            "c*d^2 - b*e^2", "d+e", b_cd, None,
            "18*c*d^2*(c*(d+e)^2 + (d-e)*e^2)", "e^2*(d+e)",
            ("c", "(e-d)*e^2", "(d+e)^2"),
            "-48*d^3*(e-d)^2*e^3*(5*d^2 + 6*d*e + 5*e^2)", "(d+e)^6",
            "negative", ("e", "d+e"))
    d4_case("--+++", "(a*d + a*e - d*e)*b*c", a_de,
            "a*b - a*c + c*d - b*e - 4*b*c*(a*d + a*e - d*e)",
            "c*d^2 - b*e^2", "d+e", b_cd,
            "18*((a*b - a*c + c*d - b*e) + a^2*b + a*b^2 - a^2*c - 2*a*b*c"
            " + a*c^2 + 2*a*c*d - c^2*d - c*d^2 - 2*a*b*e - b^2*e + b*e^2)",
            "-18*c*d^2*(c*(d+e)^2 + (d-e)*e^2)", "e^2*(d+e)",
            ("c", "(e-d)*e^2", "(d+e)^2"),
            "-48*d^3*(e-d)^2*e^3*(5*d^2 + 6*d*e + 5*e^2)", "(d+e)^6",
            "negative", ("e", "d+e"))
    d4_case("-+-++", "(a*d + a*e - d*e)*b*c", a_de,
            "-(a*b - a*c + c*d - b*e) - 4*b*c*(a*d + a*e - d*e)",
            "-(c*d^2 - b*e^2)", "d+e", b_cd,
            "18*(-(a*b - a*c + c*d - b*e) + (-a^2*b + a*b^2 + a^2*c - 2*a*b*c"
            " + a*c^2 - 2*a*c*d - c^2*d + c*d^2 + 2*a*b*e - b^2*e - b*e^2))",
            "-18*c*d^2*(e^2*(-d+e) + c*(d+e)^2)", "e^2*(d+e)",
            ("c", "e^2*(d-e)", "(d+e)^2"),
            "-48*d^3*(d-e)^2*e^3*(5*d^2 + 6*d*e + 5*e^2)", "(d+e)^6",
            "negative", ("d", "e+d"))
    d4_case("+-+--", "(a*d + a*e - d*e)*b*c", a_de,
            "-(a*b - a*c + c*d - b*e) - 4*b*c*(a*d + a*e - d*e)",
            "-(c*d^2 - b*e^2)", "d+e", b_cd, None,
            "18*c*d^2*(e^2*(-d+e) + c*(d+e)^2)", "e^2*(d+e)",
            ("c", "e^2*(d-e)", "(d+e)^2"),
            "-48*d^3*(d-e)^2*e^3*(5*d^2 + 6*d*e + 5*e^2)", "(d+e)^6",
            "negative", ("d", "e+d"))

    d4_demo = {
        "++-+-": [2, 12, 3, 2, 1],
        "--+-+": [2, 12, 3, 2, 1],
        "+-+-+": [2, 3, 12, 1, 2],
        "-+-+-": [2, 3, 12, 1, 2],
        "++---": [6, 1, 9, 8, 24],
        "--+++": [6, 1, 9, 8, 24],
        "-+-++": [6, 9, 1, 24, 8],
        "+-+--": [6, 9, 1, 24, 8],
    }
    return {"family": "10_58", "cases": cases,
            "exceptions": {}, "d4_demo": d4_demo}


def eight_twelve():
    cases = {}
    for bits in product("+-", repeat=5):
        signs = "".join(bits)
        parity = 1
        for ch in signs[:4]:
            parity *= 1 if ch == "+" else -1
        expr = "a*b*c*d" if parity > 0 else "-a*b*c*d"
        cases[signs] = [entry("leading", expr=expr,
                              sign="positive" if parity > 0 else "negative")]
    return {"family": "8_12", "cases": cases,
            "exceptions": {}, "d4_demo": {}}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for data in (seven_six(), ten_fifty_eight(), eight_twelve()):
        path = OUT / f"{data['family']}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {path} ({len(data['cases'])} cases)")


if __name__ == "__main__":
    main()
