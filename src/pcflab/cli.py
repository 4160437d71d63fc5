"""Command-line front end.

Exposes evaluation and duality of periodic continued fractions, variety
membership and conic projection, the table searches, and the 2-adic reports.
Everything is computed exactly; decimals are display-only and every printed
digit is certified.  Exit codes: 0 for a positive outcome (converges, member,
match), 1 for a mathematical negative, 2 for unusable input, 3 when an
internal self-check fails (a bug, never an answer).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional, Tuple

from .continuant import INF
from .converge import PARABOLIC, rate, verdict
from .intervals import decimal_str, interval_g6_str, refine
from .pcf import Pcf, QuadPoly, dual
from .ring import RingElem, SelfCheckError, format_coords, format_elem, parse_elem
from .search import (
    KMAX,
    LJUNGGREN_BOUND,
    TableName,
    ljunggren_oracle,
    reproduce_table,
    solve_e_curve,
)
from .skolem import aprime_z_table, format_aprime_table, l2_scan, oryx_check, rst_table
from .variety import e_curve_residual, fp_conic_residual, fp_project, variety_residuals

MATH_NEGATIVE = 1
USAGE_ERROR = 2
SELF_CHECK_FAILED = 3


def _print_json(record: dict):
    print(json.dumps(record, sort_keys=True))


def _print_record(verdict: str, *, coords=None, pcf=None, residuals=None, value_decimal=None):
    """One json-lines answer: ``coords`` or ``pcf``, ``residuals``, ``verdict``, ``value_decimal``."""
    rec = {"pcf": str(pcf)} if pcf is not None else {"coords": [format_elem(c) for c in coords]}
    rec["residuals"] = None if residuals is None else [format_elem(r) for r in residuals]
    rec["verdict"] = verdict
    rec["value_decimal"] = value_decimal
    _print_json(rec)


def _emit(args, text: Optional[str], verdict: str, **record):
    """One answer: its json-lines record under ``--format json-lines``, else ``text`` if any."""
    if args.format == "json-lines":
        _print_record(verdict, **record)
    elif text is not None:
        print(text)


def _value_text(x) -> str:
    return "inf" if x is INF else format_elem(x)


def _decimal_or_none(x, digits: int) -> Optional[str]:
    return None if x is INF else decimal_str(x, digits)


def _verdict_label(v) -> str:
    return "Converges" if v.converges else f"Diverges({v.reason})"


def _rate_text(P: Pcf, v) -> str:
    """The rate line: both enclosures refined until their six digits are certified."""

    def attempt(digits):
        r = rate(P, digits, v=v)
        shown = (interval_g6_str(r.convergents_per_digit), interval_g6_str(r.eigen_abs))
        return None if None in shown else shown

    per_digit, eigen = refine(attempt, 12)
    return f"rate: ~{per_digit} convergents per digit (|eigenvalue| ~ {eigen})"


def _emit_pcf_result(P: Pcf, args, heading: str) -> int:
    v = verdict(P)
    dec = _decimal_or_none(v.value, args.precision) if v.converges else None
    if args.format == "json-lines":
        _print_record(_verdict_label(v), pcf=P, value_decimal=dec)
        return 0 if v.converges else MATH_NEGATIVE
    print(f"{heading}: {P}")
    print(f"verdict: {_verdict_label(v)}")
    if v.note:
        print(f"note: {v.note}")
    if v.converges:
        print(f"value: {_value_text(v.value)}")
        if dec is not None:
            print(f"decimal: {dec}")
        if v.reason == PARABOLIC:
            print("rate: sub-exponential (tangent case)")
        else:
            print(_rate_text(P, v))
        return 0
    if v.pariah_index is not None:
        print(f"pariah index: {v.pariah_index}")
        print(f"pariah limit: {_value_text(v.pariah_limit)}")
        if v.pariah_limit is not INF:
            print(f"pariah limit decimal: {decimal_str(v.pariah_limit, args.precision)}")
    return MATH_NEGATIVE


def cmd_eval(args) -> int:
    P = Pcf.parse(args.pcf)
    return _emit_pcf_result(P, args, "pcf")


def cmd_dual(args) -> int:
    P = Pcf.parse(args.pcf)
    return _emit_pcf_result(dual(P), args, "dual")


def _parse_type(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"type must be two comma-separated integers, got {text!r}")
    n, k = (int(p) for p in parts)
    if n < 0 or k < 1:
        raise ValueError(f"type ({n},{k}) is out of range")
    return n, k


def _parse_tuple(text: str) -> Tuple[RingElem, ...]:
    return tuple(parse_elem(p) for p in text.split(","))


def _target_of(args) -> QuadPoly:
    abc = _parse_tuple(args.target)
    if len(abc) != 3:
        raise ValueError("target must be three comma-separated coefficients")
    if not any(abc):
        raise ValueError("target coefficients must not all vanish")
    return QuadPoly(*abc)


def _point_of(text: str, n: int, k: int) -> Pcf:
    coords = _parse_tuple(text)
    if len(coords) != n + k:
        raise ValueError("need n >= 0, k >= 1 and n + k coordinates")
    return Pcf(coords[:n], coords[n:])


def cmd_variety_check(args) -> int:
    n, k = _parse_type(args.type)
    T = _target_of(args)
    all_member = True
    for text in args.point:
        P = _point_of(text, n, k)
        coords = P.pre + P.per
        res = variety_residuals(T, P)
        member = not any(res)
        all_member = all_member and member
        tag = "member" if member else "NOT a member"
        line = f"point {format_coords(coords)}: residuals {format_coords(res)}, {tag}"
        _emit(args, line, "member" if member else "non-member", coords=coords, residuals=res)
    return 0 if all_member else MATH_NEGATIVE


def cmd_fp_project(args) -> int:
    n, k = _parse_type(args.type)
    T = _target_of(args)
    all_on = True
    for text in args.point:
        P = _point_of(text, n, k)
        coords = P.pre + P.per
        try:
            xy = fp_project(T, P)
        except ValueError as exc:
            print(f"math error: {exc}", file=sys.stderr)
            _emit(args, None, "non-member", coords=coords)
            all_on = False
            continue
        r = fp_conic_residual(T, k, xy)
        on = not r
        all_on = all_on and on
        tag = "on the conic" if on else "OFF the conic"
        line = f"point {format_coords(coords)} -> {format_coords(xy)}: residual {format_elem(r)}"
        _emit(args, f"{line}, {tag}", "on-conic" if on else "off-conic", coords=xy, residuals=[r])
    return 0 if all_on else MATH_NEGATIVE


def cmd_search_table(args) -> int:
    try:
        name = TableName(args.name)
    except ValueError:
        known = ", ".join(t.value for t in TableName)
        raise ValueError(f"unknown table {args.name!r}; known tables: {known}")
    report = reproduce_table(name)
    if args.format == "json-lines":
        found = [(e, "match" if e in report.expected else "extra") for e in report.found]
        for entry, status in found + [(e, "missing") for e in report.missing]:
            if isinstance(entry, Pcf):
                _print_record(status, pcf=entry)
            else:
                _print_record(status, coords=entry)
        for label, ok in report.checks:
            _print_json({"check": label, "verdict": "ok" if ok else "fail"})
        for note in report.notes:
            _print_json({"note": note, "verdict": "note"})
    else:
        print(report)
    return 0 if report.match else MATH_NEGATIVE


def cmd_search_ljunggren(args) -> int:
    if args.bound <= 0:
        raise ValueError("bound must be positive")
    sols = ljunggren_oracle(args.bound)
    for x, y in sols:
        residual = x * x + 1 - 2 * y ** 4
        _emit(args, format_coords((x, y)), "solution", coords=(x, y), residuals=[residual])
    if args.format == "text":
        print(f"{len(sols)} solutions with |y| <= {args.bound}")
    return 0


def cmd_search_ecurve(args) -> int:
    pi = parse_elem(args.pi)
    if args.kmax <= 0:
        raise ValueError("kmax must be positive")
    pts = solve_e_curve(pi, args.kmax)
    for pt in pts:
        _emit(args, format_coords(pt), "on-curve", coords=pt, residuals=[e_curve_residual(pi, *pt)])
    if args.format == "text":
        print(f"{len(pts)} points with unit-scan exponent up to {args.kmax}")
    return 0


def cmd_skolem(args) -> int:
    if args.format != "text":
        raise ValueError(f"skolem prints text only; drop --format {args.format}")
    if args.report == "rst":
        if args.nmax < 0:
            raise ValueError("nmax must be nonnegative")
        print(rst_table(args.nmax))
        return 0
    if args.report == "table":
        print(format_aprime_table(aprime_z_table()))
        return 0
    if args.report == "oryx":
        if args.jmax <= 0:
            raise ValueError("jmax must be positive")
        rep = oryx_check(args.jmax)
        print(rep)
        return 0 if rep.all_pass else MATH_NEGATIVE
    if args.kmax <= 0:
        raise ValueError("kmax must be positive")
    ks = l2_scan(args.kmax)
    print("exponents with unit-norm v-coefficient: {" + ", ".join(map(str, ks)) + "}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcflab",
        description="Exact arithmetic for periodic continued fractions over quadratic rings.",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=None,
        help="decimal display digits (default: PCFLAB_PRECISION or 50)",
    )
    parser.add_argument(
        "--format", choices=("text", "json-lines"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="decide convergence and report the exact value")
    p.add_argument("pcf", help='periodic continued fraction, e.g. "[1; 2]"')
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dual", help="form the dual expansion and evaluate it")
    p.add_argument("pcf")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("variety", help="membership tests for quadratic-target families")
    vs = p.add_subparsers(dest="subcommand", required=True)
    pc = vs.add_parser("check", help="test points against the defining residuals")
    pc.add_argument("--type", required=True, help="N,k")
    pc.add_argument("--target", required=True, help="A,B,C")
    pc.add_argument("--point", required=True, action="append", help="comma-separated coordinates")
    pc.set_defaults(func=cmd_variety_check)

    p = sub.add_parser("fp", help="conic projection of family points")
    fs = p.add_subparsers(dest="subcommand", required=True)
    pp = fs.add_parser("project", help="project points and check the conic residual")
    pp.add_argument("--type", required=True, help="N,k")
    pp.add_argument("--target", required=True, help="A,B,C")
    pp.add_argument("--point", required=True, action="append")
    pp.set_defaults(func=cmd_fp_project)

    p = sub.add_parser("search", help="solution scans and embedded-table reproduction")
    ss = p.add_subparsers(dest="subcommand", required=True)
    pt = ss.add_parser("table", help="re-enumerate an embedded table and diff")
    pt.add_argument("name", help="table name, e.g. z22_03")
    pt.set_defaults(func=cmd_search_table)
    pl = ss.add_parser("ljunggren", help="brute scan of x^2 + 1 = 2 y^4")
    pl.add_argument("--bound", type=int, default=LJUNGGREN_BOUND)
    pl.set_defaults(func=cmd_search_ljunggren)
    pe = ss.add_parser("ecurve", help="unit-scan solver for (a^2 b + 1) b = pi")
    pe.add_argument("--pi", required=True)
    pe.add_argument("--kmax", type=int, default=KMAX)
    pe.set_defaults(func=cmd_search_ecurve)

    p = sub.add_parser("skolem", help="2-adic valuation reports")
    ks = p.add_subparsers(dest="report", required=True)
    pr = ks.add_parser("rst", help="power-expansion coefficient table")
    pr.add_argument("--nmax", type=int, default=4)
    pr.set_defaults(func=cmd_skolem)
    pa = ks.add_parser("table", help="coefficient/norm table for the small exponent pairs")
    pa.set_defaults(func=cmd_skolem)
    po = ks.add_parser("oryx", help="norm-difference valuation scan")
    po.add_argument("--jmax", type=int, default=30)
    po.set_defaults(func=cmd_skolem)
    pl2 = ks.add_parser("l2", help="unit-norm coefficient scan in the second extension")
    pl2.add_argument("--kmax", type=int, default=20)
    pl2.set_defaults(func=cmd_skolem)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parsing leaves it unchanged
    return build_parser()


def _env_precision() -> int:
    """The digits ``PCFLAB_PRECISION`` asks for; 50 when it is unset."""
    text = os.environ.get("PCFLAB_PRECISION", "50")
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"PCFLAB_PRECISION must be a positive integer, got {text!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.func in (cmd_eval, cmd_dual):
            if args.precision is None:
                args.precision = _env_precision()
            elif args.precision <= 0:
                raise ValueError("precision must be positive")
        elif args.precision is not None:
            # only eval and dual print decimals; an ignored flag would mislead
            raise ValueError("--precision applies to eval and dual only")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return MATH_NEGATIVE
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return SELF_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
