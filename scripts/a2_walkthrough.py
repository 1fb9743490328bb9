#!/usr/bin/env python3
"""A guided tour of the A_2 universe at p = 2.

Builds the bounded catalog, prints the classical multiplication table, shows
the two routes to the same product (subobject counting vs the groupoid span
through the push-forward calculus), and finishes with a pair of genuinely
derived products involving shifted classes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hallalg.catalog import catalog_build
from hallalg.derived import DerivedClass
from hallalg.hall import HallContext, basis_product, multiply
from hallalg.quivers import a_n_quiver
from hallalg.span import build_span_model, mu_span
from hallalg.verify import in_bound_pairs


def fmt_element(ctx, values):
    if not values:
        return "0"
    parts = []
    for k, v in sorted(values.items()):
        name = f"chi({ctx.key_name(k)})"
        parts.append(name if v == 1 else f"{v}*{name}")
    return " + ".join(parts)


def main():
    quiver = a_n_quiver(2)
    cat = catalog_build(quiver, 2, (1, 1))
    ctx = HallContext("classical", cat)

    print("catalog (A_2, p=2, bound (1,1)):")
    for e in cat.entries:
        flag = "indecomposable" if e.indecomposable else ""
        print(f"  {cat.name(e.index)}  dim {e.dims}  |Aut| = {cat.aut_order(e.index)}  {flag}")

    print("\nclassical multiplication table:")
    for x, y in in_bound_pairs(ctx):
        terms = basis_product(ctx, x, y)
        print(f"  {cat.name(x)} * {cat.name(y)} = {fmt_element(ctx, terms)}")

    print("\nspan route over monomorphisms (pullback, push-forward) agrees:")
    span = build_span_model(ctx)
    for x, y in in_bound_pairs(ctx):
        via_span = mu_span(ctx.chi(x), ctx.chi(y), span)
        via_count = multiply(ctx.chi(x), ctx.chi(y))
        marker = "ok" if via_span == via_count else "MISMATCH"
        print(f"  {cat.name(x)} * {cat.name(y)}: {marker}")

    print("\nderived products with shifted classes (window [-1, 1]):")
    dctx = HallContext("derived", cat, window=(-1, 1))
    s1 = next(e.index for e in cat.entries if e.dims == (1, 0))
    s2 = next(e.index for e in cat.entries if e.dims == (0, 1))
    samples = [
        (DerivedClass.from_module(s1), DerivedClass.from_module(s1).shift(1)),
        (DerivedClass.from_module(s2).shift(-1), DerivedClass.from_module(s1)),
        (DerivedClass(((-1, s2), (0, s1))), DerivedClass.from_module(s2)),
    ]
    for x, y in samples:
        got = multiply(dctx.chi(x), dctx.chi(y))
        print(f"  {dctx.key_name(x)} * {dctx.key_name(y)} = "
              f"{fmt_element(dctx, got.values)}")


if __name__ == "__main__":
    main()
