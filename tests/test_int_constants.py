"""Classical Hall numbers are plain ints, against a Fraction-only oracle.

Every classical structure constant counts subobjects, so basis_product,
multiply and HallElement hold ints on the classical side; derived
constants are ints or Fractions, never floats or bools.  The oracle below
is the bilinear product with every value a Fraction, as multiply computed
it before; both routes must give equal coefficients.  A constant pushed
up by one must still fail the assoc and span checks, with the witnesses
printed as "num/den" strings.
"""

import re
from fractions import Fraction

import pytest

from hallalg import hall
from hallalg.catalog import catalog_build
from hallalg.hall import HallContext, HallElement, basis_product, multiply
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.span import build_span_model
from hallalg.verify import in_bound_pairs, verify_suite

KRONECKER = Quiver(2, ((0, 1), (0, 1)))

UNIVERSES = [
    pytest.param(a_n_quiver(2), 2, (2, 2), id="A2-p2-22"),
    pytest.param(a_n_quiver(2), 3, (2, 2), id="A2-p3-22"),
    pytest.param(a_n_quiver(3), 2, (2, 2, 1), id="A3-p2-221"),
    pytest.param(KRONECKER, 2, (2, 2), id="kronecker-p2-22"),
]


def fraction_multiply(ctx, a: dict, b: dict) -> dict:
    """{z: coefficient} of the product of the combinations a and b, every
    value and every partial sum a Fraction."""
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            for z, g in basis_product(ctx, x, y).items():
                out[z] = out.get(z, Fraction(0)) + Fraction(cx) * Fraction(cy) * Fraction(g)
    return {z: v for z, v in out.items() if v}


def is_int(v) -> bool:
    return type(v) is int


@pytest.mark.parametrize("quiver,p,bound", UNIVERSES)
def test_classical_products_are_ints_and_match_the_fraction_oracle(quiver, p, bound):
    ctx = HallContext("classical", catalog_build(quiver, p, bound))
    for x, y in in_bound_pairs(ctx):
        assert all(map(is_int, basis_product(ctx, x, y).values())), (x, y)
        got = multiply(ctx.chi(x), ctx.chi(y))
        assert all(map(is_int, got.values.values())), (x, y)
        assert got.values == fraction_multiply(ctx, {x: 1}, {y: 1}), (x, y)
    # combinations with proper fractions stay exact and agree too
    keys = [k for k in ctx.basis_keys() if ctx.keys_in_bound([k, k])]
    a = {k: Fraction(k + 1, 2) for k in keys}
    b = {k: Fraction(-1, k + 3) for k in keys}
    assert len(keys) > 3 and all(ctx.keys_in_bound([x, y]) for x in a for y in b)
    got = multiply(HallElement(ctx, a), HallElement(ctx, b))
    assert got.values == fraction_multiply(ctx, a, b)
    assert all(is_int(v) or type(v) is Fraction for v in got.values.values())


def test_hall_element_keeps_ints_and_reduces_integral_fractions():
    ctx = HallContext("classical", catalog_build(a_n_quiver(1), 2, (1,)))
    e = HallElement(ctx, {0: 3, 1: Fraction(4, 2)})
    assert e.values == {0: 3, 1: 2} and all(map(is_int, e.values.values()))
    assert type(HallElement(ctx, {0: True}).values[0]) is int
    assert type(HallElement(ctx, {0: 0.5}).values[0]) is Fraction
    assert all(map(is_int, ctx.chi(1).values.values()))
    assert all(map(is_int, (ctx.chi(1) + ctx.chi(1).scale(2)).values.values()))


def test_derived_values_are_ints_or_fractions():
    ctx = HallContext("derived", catalog_build(a_n_quiver(2), 2, (1, 1)), window=(-1, 0))
    seen = set()
    for x, y in in_bound_pairs(ctx):
        values = list(basis_product(ctx, x, y).values())
        values += multiply(ctx.chi(x), ctx.chi(y)).values.values()
        assert all(type(v) in (int, Fraction) for v in values), (x, y)
        seen |= {type(v) for v in values}
    assert Fraction in seen


def test_a_constant_off_by_one_fails_assoc_and_span(monkeypatch):
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 2, (2, 2)))
    cat = ctx.catalog
    s1, s2 = cat.classes_with_dims((1, 0))[0], cat.classes_with_dims((0, 1))[0]
    real = hall.classical_product

    def off_by_one(ctx, x, y):
        out = dict(real(ctx, x, y))
        if (x, y) == (s1, s2):
            z = min(out)
            out[z] += 1
        return out

    monkeypatch.setattr(hall, "classical_product", off_by_one)
    report = verify_suite(ctx, build_span_model(ctx), checks=("assoc", "span"))
    for name, sides in (("assoc", ("lhs", "rhs")), ("span", ("span", "formula"))):
        check = report["checks"][name]
        assert check["status"] == "fail", name
        printed = [v for f in check["failures"] for side in sides
                   for v in f[side].values()]
        assert printed and all(re.fullmatch(r"-?\d+/\d+", v) for v in printed), name
        assert any(v.endswith("/1") for v in printed), name
