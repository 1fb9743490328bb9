"""Command-line frontend.

Subcommands:

  catalog        build and print the bounded iso-class catalog
  hall-table     full classical multiplication table
  derived-table  full derived multiplication table
  verify         run the identity sweeps (--checks selects a subset)
  lf-eval        push-forward / pullback of a function from JSON data
  base-change    check both composites of a base-change square from JSON

Exit codes: 0 success / all checks pass, 1 check failure or violated
invariant, 2 usage or input error, 3 enumeration cap exceeded or a result
outside the catalog bound or shift window, 141 (128 + SIGPIPE) stdout
closed by its reader, as in `hall ... | head`.
Output is byte-deterministic for a fixed configuration: keys are sorted,
rationals print as gcd-reduced "num/den" with positive denominator.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .catalog import catalog_build
from .errors import (
    EnumerationCapError,
    HallAlgError,
    InputError,
    InvariantError,
    OutOfUniverseError,
)
from .hall import HallContext, compute_product
from .lf import (
    BaseChangeSquare,
    FiniteSupportFn,
    ProperMapData,
    check_base_change,
    pullback,
    pushforward,
)
from .quivers import Quiver
from .reps import DEFAULT_CAP
from .span import build_span_model
from .verify import in_bound_pairs, select_checks, verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BROKEN_PIPE = 141


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

    def __post_init__(self):
        if self.cap <= 0:
            raise InputError("cap must be positive")
        if any(b < 0 for b in self.bound):
            raise InputError("bound must be componentwise >= 0")

    def context(self) -> HallContext:
        quiver = Quiver.load(self.quiver_path)
        bound = _parse_bound_for(self.bound, quiver.vertex_count)
        catalog = catalog_build(quiver, self.modulus, bound, cap=self.cap)
        return HallContext(self.mode, catalog, window=self.window, cap=self.cap)


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
    # a subcommand that takes --window parses it in every mode; only a
    # derived context reads it
    window = _parse_window(args.window) if "window" in vars(args) else None
    return RunConfig(
        quiver_path=args.quiver,
        modulus=args.modulus,
        bound=bound,
        mode=mode,
        window=window if mode == "derived" else None,
        cap=args.cap,
    )


def _context(args, mode: str) -> HallContext:
    return _config(args, mode).context()


def _emit(chunks) -> None:
    """Write the output to stdout chunk by chunk, each as it is made."""
    write = sys.stdout.write
    for chunk in chunks:
        write(chunk)


def cmd_catalog(args) -> int:
    ctx = _context(args, "classical")
    doc = ctx.catalog.export_json_dict()
    if args.format == "json":
        lines = [json.dumps(doc, sort_keys=True, indent=2)]
    elif args.format == "csv":
        lines = ["id,dim_vector,aut_order,indecomposable"] + [
            f"{c['id']},{';'.join(str(d) for d in c['dim_vector'])},"
            f"{c['aut_order']},{int(c['indecomposable'])}"
            for c in doc["classes"]
        ]
    else:
        lines = [f"{len(doc['classes'])} classes (p={args.modulus})"] + [
            f"  {c['id']:>5}  dim {tuple(c['dim_vector'])}  |Aut|={c['aut_order']}  "
            f"{'indec' if c['indecomposable'] else '     '}"
            for c in doc["classes"]
        ]
    _emit(line + "\n" for line in lines)
    return EXIT_OK


def _json_table(mode: str, modulus: int, cells, name):
    """The text of json.dumps({"schema": 1, "mode": mode, "modulus":
    modulus, "table": [one dict per cell]}, sort_keys=True, indent=2) and a
    newline, one cell at a time; name(key) is the key's name as a JSON
    string.  The table is never empty: it holds 0 * 0."""
    yield (f'{{\n  "mode": {encode_basestring_ascii(mode)},\n  "modulus": '
           f'{modulus},\n  "schema": 1,\n  "table": [')
    sep = "\n    "
    for x, y, terms in cells:
        body = ",".join(
            f'\n        {{\n          "coeff_den": {g.denominator},\n          '
            f'"coeff_num": {g.numerator},\n          "z": {name(z)}\n        }}'
            for z, g in sorted(terms.items()))
        if body:
            body += "\n      "
        yield (f'{sep}{{\n      "terms": [{body}],\n      "x": {name(x)},'
               f'\n      "y": {name(y)}\n    }}')
        sep = ",\n    "
    yield "\n  ]\n}\n"


def _csv_table(cells, name):
    yield "x,y,z,coeff\n"
    for x, y, terms in cells:
        head = f"{name(x)},{name(y)},"
        yield "".join(f"{head}{name(z)},{g.numerator}/{g.denominator}\n"
                      for z, g in sorted(terms.items()))


def _pretty_table(cells, name):
    for x, y, terms in cells:
        total = " + ".join(f"{g.numerator}/{g.denominator}*{name(z)}"
                           for z, g in sorted(terms.items()))
        yield f"{name(x)} * {name(y)} = {total or '0'}\n"


def _table(args, mode: str) -> int:
    """Every cell's product is computed before the first byte is written,
    so a cap or out-of-universe error leaves stdout empty; the cells are
    then written one at a time in the chosen format, with no document
    built.  Each cell is computed once, so the products bypass the
    context's product cache, which would keep a second reference to every
    cell's dict."""
    ctx = _context(args, mode)
    cells = [(x, y, compute_product(ctx, x, y)) for x, y in in_bound_pairs(ctx)]
    quote = encode_basestring_ascii if args.format == "json" else str
    name = functools.cache(lambda key: quote(ctx.key_name(key)))
    if args.format == "json":
        _emit(_json_table(mode, args.modulus, cells, name))
    elif args.format == "csv":
        _emit(_csv_table(cells, name))
    else:
        _emit(_pretty_table(cells, name))
    return EXIT_OK


def cmd_hall_table(args) -> int:
    return _table(args, "classical")


def cmd_derived_table(args) -> int:
    return _table(args, "derived")


def cmd_verify(args) -> int:
    checks = select_checks(None if args.checks == "all" else args.checks.split(","))
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
    if not isinstance(doc, dict):
        raise InputError("square JSON must be an object")
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


def _add_common(parser: argparse.ArgumentParser, *options: str) -> None:
    """The options of every computing subcommand, plus those named."""
    parser.add_argument("--quiver", required=True, help="quiver JSON file")
    parser.add_argument("-p", "--modulus", type=int, required=True,
                        help="prime field modulus")
    parser.add_argument("--bound", required=True,
                        help="per-vertex dimension bound, e.g. 2,2")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="enumeration candidate cap")
    if "format" in options:
        parser.add_argument("--format", choices=("json", "csv", "pretty"),
                            default="json")
    if "window" in options:
        parser.add_argument("--window", default="-2,2",
                            help="derived shift window lo,hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hall",
        description="Hall algebras of quiver representations over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="build the iso-class catalog")
    _add_common(p, "format")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("hall-table", help="classical multiplication table")
    _add_common(p, "format")
    p.set_defaults(func=cmd_hall_table)

    p = sub.add_parser("derived-table", help="derived multiplication table")
    _add_common(p, "format", "window")
    p.set_defaults(func=cmd_derived_table)

    p = sub.add_parser("verify", help="run the identity verification sweeps")
    _add_common(p, "window")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at the null device, so that the
        # flush at interpreter shutdown has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (EnumerationCapError, OutOfUniverseError) as exc:
        # well-formed input, but the universe is too small for it
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
