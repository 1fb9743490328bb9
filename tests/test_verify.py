import dataclasses
import json
from collections import Counter
from fractions import Fraction

import pytest

from hallalg.catalog import catalog_build
from hallalg.derived import DerivedClass
from hallalg.hall import HallContext
from hallalg.lf import Fiber, LFType, ProperMapData
from hallalg.quivers import a_n_quiver
from hallalg.span import build_span_model
from hallalg.verify import (
    in_bound_pairs,
    in_bound_triples,
    orbit_stabilizer_check,
    verify_suite,
)


@pytest.fixture(scope="module")
def a1_ctx():
    return HallContext("classical", catalog_build(a_n_quiver(1), 2, (3,)))


@pytest.fixture(scope="module")
def a2_ctx():
    return HallContext("classical", catalog_build(a_n_quiver(2), 2, (2, 2)))


@pytest.fixture(scope="module")
def dctx():
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    return HallContext("derived", cat, window=(-1, 1))


def idx_of(cat, dims, indec=None):
    for e in cat.entries:
        if e.dims == dims and (indec is None or e.indecomposable == indec):
            return e.index
    raise AssertionError


def test_classical_suite_passes_a1(a1_ctx):
    report = verify_suite(a1_ctx, checks=("unit", "assoc", "riedtmann", "orbit"))
    for name, check in report["checks"].items():
        assert check["status"] == "pass", (name, check["failures"][:3])
    assert report["failures_total"] == 0


def test_classical_suite_passes_a2_with_span(a2_ctx):
    span = build_span_model(a2_ctx)
    report = verify_suite(a2_ctx, span=span)
    for name, check in report["checks"].items():
        if check["status"] == "skipped":
            assert name == "stalk"
            continue
        assert check["status"] == "pass", (name, check["failures"][:3])


def test_orbit_check_a1_example(a1_ctx):
    cat = a1_ctx.catalog
    by_dim = {cat.dims(i)[0]: i for i in range(len(cat))}
    rep = orbit_stabilizer_check(a1_ctx, by_dim[1], by_dim[2], by_dim[1])
    assert rep["set_size"] == 3
    assert rep["aut_order"] == 1
    assert rep["identity_holds"]
    assert rep["free_action"]
    assert rep["sum_inverse_stabilizers"] == "3/1"


def test_orbit_check_empty_set(a1_ctx):
    cat = a1_ctx.catalog
    by_dim = {cat.dims(i)[0]: i for i in range(len(cat))}
    # no injection V_2 -> V_1
    rep = orbit_stabilizer_check(a1_ctx, by_dim[2], by_dim[1], by_dim[0])
    assert rep["set_size"] == 0
    assert rep["identity_holds"]


def test_orbit_check_nontrivial_stabilizer(dctx):
    cat = dctx.catalog
    s1 = idx_of(cat, (1, 0))
    s2 = idx_of(cat, (0, 1))
    x = DerivedClass(((-1, s2), (0, s1)))  # S_1 (+) S_2[1], |Aut| = 2
    z = DerivedClass.from_module(s1)
    y = DerivedClass(((-2, s2),))          # S_2[2]
    rep = orbit_stabilizer_check(dctx, x, z, y)
    assert rep["aut_order"] == 2
    assert rep["set_size"] == 1
    assert rep["identity_holds"]
    assert not rep["free_action"]
    assert rep["sum_inverse_stabilizers"] == "1/2"
    assert not rep["uninverted_matches"]


def test_derived_suite_smoke_small_window(dctx):
    report = verify_suite(dctx, checks=("unit", "stalk"))
    assert report["checks"]["unit"]["status"] == "pass"
    assert report["checks"]["stalk"]["status"] == "pass"


def test_mutated_table_fails_associativity():
    # A fresh context, since the corrupted product cache must not leak into
    # other tests.  Bound (2, 2), because at (1, 1) every in-bound triple
    # holding s2 and s1 holds the zero class too, and a unit factor cannot
    # expose a corrupted s2 * s1.
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 2, (2, 2)))
    cat = ctx.catalog
    s1 = idx_of(cat, (1, 0))
    s2 = idx_of(cat, (0, 1))
    p1 = idx_of(cat, (1, 1), indec=True)
    ctx._product_cache[(s2, s1)] = {p1: Fraction(7)}
    report = verify_suite(ctx, checks=("assoc",))
    assert report["checks"]["assoc"]["status"] == "fail"
    named = [cat.name(k) for k in (s2, s1)]
    assert any(
        f["triple"][0] in named or f["triple"][1] in named
        for f in report["checks"]["assoc"]["failures"]
    )


def test_mutated_comma_fiber_fails_span_check(a2_ctx):
    # Change the order of one comma-fiber component that shares its arrow
    # class with other components of the same fiber and carries weight into
    # an in-bound product: the span route must see the change.
    span = build_span_model(a2_ctx)
    pairs = set(in_bound_pairs(a2_ctx))
    target = None
    for zi, fib in enumerate(span.t.fibers):
        shared = Counter(fib.incl)
        for j, src in enumerate(fib.incl):
            ac = span.arrow_classes[src]
            pair = (ac.source_class, ac.cokernel_class)
            if shared[src] > 1 and pair in pairs:
                target = (zi, j, pair)
    assert target is not None
    zi, j, (x, y) = target
    fib = span.t.fibers[zi]
    orders = list(fib.lftype.orders)
    orders[j] = (orders[j][0] * 2,) + orders[j][1:]
    fibers = list(span.t.fibers)
    fibers[zi] = Fiber(LFType(fib.lftype.components, tuple(orders)), fib.incl)
    t = ProperMapData(span.t.source, span.t.target, span.t.component_map,
                      tuple(fibers))
    mutated = dataclasses.replace(span, t=t)

    assert verify_suite(a2_ctx, span=span, checks=("span",))[
        "checks"]["span"]["status"] == "pass"
    check = verify_suite(a2_ctx, span=mutated, checks=("span",))["checks"]["span"]
    assert check["status"] == "fail"
    cat = a2_ctx.catalog
    assert [cat.name(x), cat.name(y)] in [f["pair"] for f in check["failures"]]


def test_report_is_json_serializable(a1_ctx):
    report = verify_suite(a1_ctx, checks=("unit",))
    blob = json.dumps(report, sort_keys=True)
    assert json.loads(blob)["checks"]["unit"]["status"] == "pass"


def test_in_bound_enumeration_matches_bruteforce(a2_ctx):
    keys = a2_ctx.basis_keys()
    expected_pairs = [
        (x, y) for x in keys for y in keys if a2_ctx.keys_in_bound((x, y))
    ]
    assert in_bound_pairs(a2_ctx) == expected_pairs
    expected_triples = [
        (x, y, z)
        for x in keys
        for y in keys
        for z in keys
        if a2_ctx.keys_in_bound((x, y, z))
    ]
    assert in_bound_triples(a2_ctx) == expected_triples

