"""Command-line frontend.

Subcommands:

  catalog        build and print the bounded iso-class catalog
  hall-table     full classical multiplication table
  derived-table  full derived multiplication table
  verify         run the identity sweeps (--checks selects a subset)
  lf-eval        push-forward / pullback of a function from JSON data
  base-change    check both composites of a base-change square from JSON

Exit codes: 0 success / all checks pass, 1 check failure or violated
invariant, 2 usage or input error, 3 enumeration cap exceeded.  Output is
byte-deterministic for a fixed configuration: keys are sorted, rationals
print as gcd-reduced "num/den" with positive denominator.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .catalog import catalog_build
from .errors import EnumerationCapError, HallAlgError, InputError, InvariantError
from .hall import EnumerationCaps, HallContext, basis_product
from .lf import (
    BaseChangeSquare,
    FiniteSupportFn,
    ProperMapData,
    check_base_change,
    pullback,
    pushforward,
)
from .quivers import Quiver
from .span import build_span_model
from .verify import ALL_CHECKS, in_bound_pairs, verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _fmt_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_window(text: str) -> tuple:
    try:
        lo, hi = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad window {text!r} (expected lo,hi)") from exc
    return (lo, hi)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A fully parsed run configuration; every subcommand that computes
    algebra data goes through one of these."""

    quiver_path: str
    modulus: int
    bound: tuple
    mode: str
    window: Optional[tuple]
    cap: int
    format: str

    def __post_init__(self):
        if self.cap <= 0:
            raise InputError("cap must be positive")
        if any(b < 0 for b in self.bound):
            raise InputError("bound must be componentwise >= 0")

    def context(self) -> HallContext:
        quiver = Quiver.load(self.quiver_path)
        bound = _parse_bound_for(self.bound, quiver.vertex_count)
        catalog = catalog_build(quiver, self.modulus, bound, cap=self.cap)
        return HallContext(
            self.mode,
            catalog,
            window=self.window,
            caps=EnumerationCaps(candidates=self.cap),
        )


def _parse_bound_for(parts: tuple, vertex_count: int) -> tuple:
    if len(parts) == 1 and vertex_count > 1:
        parts = parts * vertex_count
    if len(parts) != vertex_count:
        raise InputError(
            f"bound has {len(parts)} entries for {vertex_count} vertices"
        )
    return parts


def _config(args, mode: str) -> RunConfig:
    try:
        bound = tuple(int(v) for v in args.bound.split(","))
    except ValueError as exc:
        raise InputError(f"bad bound {args.bound!r}") from exc
    window = _parse_window(args.window) if mode == "derived" else None
    return RunConfig(
        quiver_path=args.quiver,
        modulus=args.modulus,
        bound=bound,
        mode=mode,
        window=window,
        cap=args.cap,
        format=args.format,
    )


def _context(args, mode: str) -> HallContext:
    return _config(args, mode).context()


def _emit(args, doc: dict, csv_rows=None, pretty=None) -> None:
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    elif args.format == "csv":
        if csv_rows is None:
            raise InputError("this subcommand has no CSV form")
        for row in csv_rows:
            print(",".join(str(v) for v in row))
    else:
        print(pretty if pretty is not None else json.dumps(doc, sort_keys=True, indent=2))


def cmd_catalog(args) -> int:
    ctx = _context(args, "classical")
    doc = ctx.catalog.export_json_dict()
    rows = [("id", "dim_vector", "aut_order", "indecomposable")]
    rows += [
        (c["id"], ";".join(str(d) for d in c["dim_vector"]), c["aut_order"],
         int(c["indecomposable"]))
        for c in doc["classes"]
    ]
    pretty_lines = [f"{len(doc['classes'])} classes (p={args.modulus})"]
    for c in doc["classes"]:
        flag = "indec" if c["indecomposable"] else "     "
        pretty_lines.append(
            f"  {c['id']:>5}  dim {tuple(c['dim_vector'])}  |Aut|={c['aut_order']}  {flag}"
        )
    _emit(args, doc, rows, "\n".join(pretty_lines))
    return EXIT_OK


def _table(args, mode: str) -> int:
    ctx = _context(args, mode)
    table = []
    for x, y in in_bound_pairs(ctx):
        terms = basis_product(ctx, x, y)
        table.append(
            {
                "x": ctx.key_name(x),
                "y": ctx.key_name(y),
                "terms": [
                    {
                        "z": ctx.key_name(z),
                        "coeff_num": g.numerator,
                        "coeff_den": g.denominator,
                    }
                    for z, g in sorted(terms.items())
                ],
            }
        )
    doc = {
        "schema": 1,
        "mode": mode,
        "modulus": args.modulus,
        "table": table,
    }
    rows = [("x", "y", "z", "coeff")]
    for cell in table:
        for term in cell["terms"]:
            rows.append(
                (cell["x"], cell["y"], term["z"],
                 f"{term['coeff_num']}/{term['coeff_den']}")
            )
    pretty_lines = []
    for cell in table:
        terms = " + ".join(
            f"{t['coeff_num']}/{t['coeff_den']}*{t['z']}" for t in cell["terms"]
        )
        pretty_lines.append(f"{cell['x']} * {cell['y']} = {terms or '0'}")
    _emit(args, doc, rows, "\n".join(pretty_lines))
    return EXIT_OK


def cmd_hall_table(args) -> int:
    return _table(args, "classical")


def cmd_derived_table(args) -> int:
    return _table(args, "derived")


def cmd_verify(args) -> int:
    checks = ALL_CHECKS if args.checks == "all" else tuple(args.checks.split(","))
    ctx = _context(args, args.mode)
    span = None
    if ctx.mode == "classical" and "span" in checks:
        span = build_span_model(ctx)
    report = verify_suite(ctx, span=span, checks=checks)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK if report["failures_total"] == 0 else EXIT_CHECK_FAILED


def cmd_lf_eval(args) -> int:
    mapdata = ProperMapData.from_json_dict(_load_json(args.map))
    fn_doc = _load_json(args.fn)
    if args.op == "pushforward":
        fn = FiniteSupportFn.from_json_dict(mapdata.source, fn_doc)
        out = pushforward(mapdata, fn)
    else:
        fn = FiniteSupportFn.from_json_dict(mapdata.target, fn_doc)
        out = pullback(mapdata, fn)
    print(json.dumps(out.to_json_dict(), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_base_change(args) -> int:
    doc = _load_json(args.square)
    try:
        square = BaseChangeSquare(
            f=ProperMapData.from_json_dict(doc["f"]),
            u=ProperMapData.from_json_dict(doc["u"]),
            v=ProperMapData.from_json_dict(doc["v"]),
            g=ProperMapData.from_json_dict(doc["g"]),
        )
    except KeyError as exc:
        raise InputError(f"square JSON is missing edge {exc}") from exc
    report = check_base_change(square)
    out = {
        "schema": 1,
        "equal": report.equal,
        "max_deviation": _fmt_fraction(report.max_deviation),
        "failures": [
            {k: (str(v) if isinstance(v, Fraction) else v) for k, v in f.items()}
            for f in report.failures
        ],
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK if report.equal else EXIT_CHECK_FAILED


def _add_common(parser: argparse.ArgumentParser, derived_mode=False) -> None:
    parser.add_argument("--quiver", required=True, help="quiver JSON file")
    parser.add_argument("-p", "--modulus", type=int, required=True,
                        help="prime field modulus")
    parser.add_argument("--bound", required=True,
                        help="per-vertex dimension bound, e.g. 2,2")
    parser.add_argument("--cap", type=int, default=10_000_000,
                        help="enumeration candidate cap")
    parser.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json")
    parser.add_argument("--window", default="-2,2",
                        help="derived shift window lo,hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hall",
        description="Hall algebras of quiver representations over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="build the iso-class catalog")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("hall-table", help="classical multiplication table")
    _add_common(p)
    p.set_defaults(func=cmd_hall_table)

    p = sub.add_parser("derived-table", help="derived multiplication table")
    _add_common(p)
    p.set_defaults(func=cmd_derived_table)

    p = sub.add_parser("verify", help="run the identity verification sweeps")
    _add_common(p)
    p.add_argument("--mode", choices=("classical", "derived"),
                   default="classical")
    p.add_argument("--checks", default="all",
                   help="comma list of unit,assoc,riedtmann,span,stalk,orbit or 'all'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lf-eval", help="evaluate push-forward or pullback")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--fn", required=True, help="function JSON file")
    p.add_argument("--op", choices=("pushforward", "pullback"),
                   default="pushforward")
    p.set_defaults(func=cmd_lf_eval)

    p = sub.add_parser("base-change", help="check a base-change square")
    p.add_argument("--square", required=True, help="square JSON file")
    p.set_defaults(func=cmd_base_change)

    return parser


def _glue_window(argv: list) -> list:
    """Join `--window -1,1` into `--window=-1,1`: argparse would read a value
    starting with '-' that is not a plain number as an option."""
    out: list = []
    for arg in argv:
        if out and out[-1] == "--window" and re.match(r"-\d", arg):
            out[-1] = f"--window={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _glue_window(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (InputError, HallAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
