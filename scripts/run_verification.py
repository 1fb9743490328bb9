#!/usr/bin/env python3
"""Run every identity sweep over the standard desk-scale universes.

Covers the one-vertex quiver at p = 2, 3, the two-vertex A_2 quiver at
p = 2 and the three-vertex A_3 quiver at p = 2, classical with the span
cross-check, the A_2 quiver in derived mode too, plus the Kronecker quiver
(two parallel arrows) at p = 2 in derived mode.  Prints one line per (universe, check) and exits nonzero on any
failure.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hallalg.catalog import catalog_build
from hallalg.hall import HallContext
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.span import build_span_model
from hallalg.verify import verify_suite


def run(label, ctx, span=None, checks=None):
    t0 = time.time()
    report = verify_suite(ctx, span=span, checks=checks)
    elapsed = time.time() - t0
    bad = 0
    for name, check in report["checks"].items():
        status = check["status"]
        line = f"{label:28s} {name:10s} {status:8s} {check['cases']:6d} cases"
        if name == "orbit" and status != "skipped":
            line += (
                f"  (non-free: {check['non_free_triples']}, "
                f"uninverted-reading failures: {check['uninverted_reading_failures']})"
            )
        print(line)
        if status == "fail":
            bad += len(check["failures"])
            print(json.dumps(check["failures"][:3], indent=2, default=str))
    print(f"{label:28s} {'-- total --':10s} {elapsed:6.1f}s")
    return bad


def main():
    failures = 0

    for p in (2, 3):
        ctx = HallContext("classical", catalog_build(a_n_quiver(1), p, (3,)))
        failures += run(f"one-vertex p={p} bound 3", ctx, span=build_span_model(ctx))

    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 2, (2, 2)))
    failures += run("A_2 p=2 bound (2,2)", ctx, span=build_span_model(ctx))

    ctx = HallContext("classical", catalog_build(a_n_quiver(3), 2, (2, 2, 1)))
    failures += run("A_3 p=2 bound (2,2,1)", ctx, span=build_span_model(ctx))

    dctx = HallContext(
        "derived", catalog_build(a_n_quiver(2), 2, (1, 1)), window=(-1, 1)
    )
    failures += run("A_2 p=2 derived [-1,1]", dctx)

    kronecker = Quiver(2, ((0, 1), (0, 1)))
    kctx = HallContext(
        "derived", catalog_build(kronecker, 2, (1, 1)), window=(-1, 1)
    )
    failures += run("Kronecker p=2 derived [-1,1]", kctx)

    print()
    if failures:
        print(f"FAILED: {failures} identity violations")
        return 1
    print("all identity sweeps passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
