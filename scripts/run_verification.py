#!/usr/bin/env python3
"""Run every identity sweep over the standard desk-scale universes.

Covers the one-vertex quiver at p = 2, 3, the two-vertex A_2 quiver at
p = 2 and the three-vertex A_3 quiver at p = 2, classical with the span
cross-check, the A_2 quiver in derived mode at p = 2 and 3, plus the
Kronecker quiver (two parallel arrows) at p = 2 in derived mode; the
derived orbit check acts on the block coordinates of each Hom class
(derived.precompositions).  A_2 at p = 3 with bound (3,3) runs the unit
and assoc checks only (806 triples, under 0.1 s).  The riedtmann, span and
orbit checks walk whole Hom spaces past the 10^7 cap and stop there with
exit 3: 3^18 maps (3,3) -> (3,3) for the epimorphisms of the riedtmann
check and for End(x) in the span model's Aut generators (ROADMAP item 2
replaces that walk by a closed form), 3^15 maps (2,3) -> (3,3) for the
monomorphisms of the orbit check.  A_3 at p = 3 with bound
(2,2,2) builds the span model and runs every classical check.  A_2 at
p = 2 runs the derived orbit check alone on the window [-1,2] and the unit
and stalk checks on the CLI default window [-2,2].  A_2 at p = 2 with
bound (2,2) runs in derived mode on the window [-1,0] with the unit, assoc
and stalk checks only: its orbit check classifies the cone of every one of
the 4,864,384 Hom classes of its 5,917 pairs (x, z), most of them missing
the cone-homology memo, and was still unfinished after 600 s, at 402 MiB.

One whole run on a 2-vCPU machine took 24.0 s and peaked at 107 MiB.  The
printed totals time the checks alone: 4.2 s for A_3 p=3 (its span build,
mostly the generators of each Aut, is about 3.8 s more), 7.2 s for the
derived orbit check on [-1,2], 0.5 s on [-2,2], 2.3 s for A_2 p=2 (2,2) on
[-1,0] and 2.6 s for the Kronecker quiver.
Prints one line per (universe, check) and exits nonzero on any failure.
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

    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 3, (3, 3)))
    failures += run("A_2 p=3 bound (3,3)", ctx, checks=("unit", "assoc"))

    ctx = HallContext("classical", catalog_build(a_n_quiver(3), 2, (2, 2, 1)))
    failures += run("A_3 p=2 bound (2,2,1)", ctx, span=build_span_model(ctx))

    ctx = HallContext("classical", catalog_build(a_n_quiver(3), 3, (2, 2, 2)))
    failures += run("A_3 p=3 bound (2,2,2)", ctx, span=build_span_model(ctx))

    dctx = HallContext(
        "derived", catalog_build(a_n_quiver(2), 2, (1, 1)), window=(-1, 1)
    )
    failures += run("A_2 p=2 derived [-1,1]", dctx)

    dctx = HallContext(
        "derived", catalog_build(a_n_quiver(2), 3, (1, 1)), window=(-1, 1)
    )
    failures += run("A_2 p=3 derived [-1,1]", dctx)

    dctx = HallContext(
        "derived", catalog_build(a_n_quiver(2), 2, (1, 1)), window=(-1, 2)
    )
    failures += run("A_2 p=2 derived [-1,2]", dctx, checks=("orbit",))

    dctx = HallContext(
        "derived", catalog_build(a_n_quiver(2), 2, (1, 1)), window=(-2, 2)
    )
    failures += run("A_2 p=2 derived [-2,2]", dctx, checks=("unit", "stalk"))

    dctx = HallContext(
        "derived", catalog_build(a_n_quiver(2), 2, (2, 2)), window=(-1, 0)
    )
    failures += run("A_2 p=2 derived (2,2) [-1,0]", dctx,
                    checks=("unit", "assoc", "stalk"))

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
