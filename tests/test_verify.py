import itertools
import json
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from hallalg import reps, verify
from hallalg.catalog import catalog_build
from hallalg.derived import DerivedClass
from hallalg.errors import EnumerationCapError
from hallalg.hall import HallContext
from hallalg.lf import Fiber, LFType, ProperMapData
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.span import SpanModel, build_span_model
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


def test_classical_suite_never_lists_the_automorphisms(monkeypatch):
    def no_elements(x):
        raise AssertionError("reps.aut_elements is the test oracle only")

    monkeypatch.setattr(reps, "aut_elements", no_elements)
    ctx = HallContext("classical", catalog_build(a_n_quiver(3), 2, (2, 2, 1)))
    report = verify_suite(ctx, span=build_span_model(ctx))
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
    mutated = SpanModel(span.context, span.x0, span.x00, span.x1, t, span.sc,
                        span.arrow_classes)

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
    assert list(in_bound_triples(a2_ctx)) == expected_triples


def _sorted_oracle(ctx, arity):
    # every arity-tuple of key groups tested by keys_in_bound on one key of
    # each (keys with equal dims in every degree fit alike), expanded and
    # sorted by comparing the keys themselves
    groups = {}
    for k in ctx.basis_keys():
        groups.setdefault(ctx.key_dims(k), []).append(k)
    return sorted(t for gs in itertools.product(groups.values(), repeat=arity)
                  if ctx.keys_in_bound([g[0] for g in gs])
                  for t in itertools.product(*gs))


@pytest.mark.parametrize("mode, quiver, p, bound, window", [
    ("derived", a_n_quiver(2), 2, (1, 1), (-1, 2)),
    ("derived", a_n_quiver(3), 2, (1, 1, 1), (-1, 0)),
    ("classical", a_n_quiver(3), 2, (2, 2, 1), None),
], ids=["a2-p2-derived", "a3-p2-derived", "a3-p2-classical"])
def test_in_bound_pairs_by_profile_group_match_the_per_key_enumeration(
        mode, quiver, p, bound, window):
    ctx = HallContext(mode, catalog_build(quiver, p, bound), window=window)
    pairs = in_bound_pairs(ctx)
    assert pairs and pairs == _sorted_oracle(ctx, 2)


@pytest.mark.parametrize("mode, quiver, p, bound, window, triples", [
    ("derived", a_n_quiver(2), 2, (1, 1), None, False),
    ("derived", Quiver(2, ((0, 1), (0, 1))), 2, (1, 1), (-1, 1), True),
    ("classical", a_n_quiver(3), 2, (2, 2, 1), None, True),
], ids=["a2-p2-default-window", "kronecker-p2-w-1,1", "a3-p2-221-classical"])
def test_in_bound_tuples_ordered_by_rank_match_the_sorted_oracle(
        mode, quiver, p, bound, window, triples):
    # in_bound_* extend each prefix by key ranks; the oracle sorts the keys
    # themselves.  The default window's 19^5 triples are left out: the
    # oracle would test 1,024^3 tuples of key groups.
    ctx = HallContext(mode, catalog_build(quiver, p, bound), window=window)
    pairs = in_bound_pairs(ctx)
    assert pairs and pairs == _sorted_oracle(ctx, 2)
    if triples:
        got = list(in_bound_triples(ctx))
        assert got and got == _sorted_oracle(ctx, 3)


@pytest.mark.parametrize("mode, quiver, p, bound, window", [
    ("classical", a_n_quiver(2), 3, (3, 3), None),
    ("classical", a_n_quiver(3), 2, (2, 2, 1), None),
    ("derived", a_n_quiver(2), 2, (1, 1), (-1, 1)),
    ("derived", Quiver(2, ((0, 1), (0, 1))), 2, (1, 1), (-1, 1)),
], ids=["a2-p3-33-classical", "a3-p2-221-classical", "a2-p2-w-1,1",
        "kronecker-p2-w-1,1"])
def test_the_in_bound_count_checked_against_the_cap_is_exact(mode, quiver, p, bound,
                                                              window):
    # the cap is checked on a count made from the catalog's dims before any
    # key is built: at a cap of exactly the listed tuples they are listed,
    # one below it raises with that count
    ctx = HallContext(mode, catalog_build(quiver, p, bound), window=window)
    for what, listing in (("pairs", in_bound_pairs), ("triples", in_bound_triples)):
        listed = list(listing(ctx))
        ctx.cap = len(listed)
        assert list(listing(ctx)) == listed
        ctx.cap = len(listed) - 1
        with pytest.raises(EnumerationCapError, match=(
                rf"^in_bound_{what}: {len(listed)} {what} of basis keys exceed "
                rf"cap {ctx.cap}$")):
            listing(ctx)
        ctx.cap = reps.DEFAULT_CAP


def test_default_window_triples_stream_in_order_from_little_memory():
    # A2 p=2 (1,1) at -2,2: the first 3,125 of the 19^5 triples are
    # (zero, zero, k) for every basis key k, and taking them builds no
    # other triple
    ctx = HallContext("derived", catalog_build(a_n_quiver(2), 2, (1, 1)))
    keys = ctx.basis_keys()
    tracemalloc.start()
    try:
        first = list(itertools.islice(in_bound_triples(ctx), len(keys)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [(keys[0], keys[0], k) for k in keys]
    assert peak < 4 << 20


def test_the_triple_cap_raises_when_the_listing_is_asked_for():
    ctx = HallContext("derived", catalog_build(a_n_quiver(2), 2, (1, 1)),
                      window=(-1, 1), cap=6858)
    with pytest.raises(EnumerationCapError, match=r"^in_bound_triples: 6859 triples "
                                                  r"of basis keys exceed cap 6858$"):
        in_bound_triples(ctx)


@pytest.mark.parametrize("mode, window, count", [
    ("classical", None, 5),
    ("derived", (-1, 1), 5 ** 3),
])
def test_basis_keys_are_counted_against_the_cap(mode, window, count):
    ctx = HallContext(mode, catalog_build(a_n_quiver(2), 2, (1, 1)), window=window,
                      cap=count)
    assert len(ctx.basis_keys()) == count
    ctx.cap = count - 1
    with pytest.raises(EnumerationCapError, match=rf"^basis_keys: {count} basis keys "
                                                  rf"exceed cap {count - 1}$"):
        ctx.basis_keys()


@pytest.mark.parametrize("mode, window", [("classical", None), ("derived", (-1, 1))])
def test_checks_that_read_no_pair_never_list_them(monkeypatch, mode, window):
    ctx = HallContext(mode, catalog_build(a_n_quiver(1), 2, (2,)), window=window)
    monkeypatch.setattr(verify, "in_bound_pairs", lambda ctx: pytest.fail("listed pairs"))
    report = verify_suite(ctx, checks=("unit", "assoc", "stalk"))
    assert report["failures_total"] == 0
    assert report["checks"]["assoc"]["cases"] > 0


def test_the_in_bound_cap_raises_before_a_key_is_built(monkeypatch):
    # A2 p=2 (2,2) has 14 classes and 57 pairs of them within the bound in
    # each of the default window's five degrees: 57^5 pairs of its 14^5
    # basis keys, and no key is built to count them
    ctx = HallContext("derived", catalog_build(a_n_quiver(2), 2, (2, 2)))
    monkeypatch.setattr(HallContext, "basis_keys", lambda self: pytest.fail("built keys"))
    with pytest.raises(EnumerationCapError, match=r"^in_bound_pairs: 601692057 pairs "
                                                  r"of basis keys exceed cap 10000000$"):
        in_bound_pairs(ctx)


@pytest.mark.parametrize("run", [
    build_span_model,
    lambda ctx: verify_suite(ctx, checks=["orbit"]),
], ids=["span", "orbit"])
def test_a_late_space_over_the_cap_fails_before_any_walk(a2_ctx, monkeypatch, run):
    # cap 2**7: End(c11), 2**8, is the first space over it in the span
    # model's walk order; every End(i) and Hom(a, b) is checked before any
    # is walked, so reps.hom_keys never starts, not even on End(c0)
    walks = []
    walk = reps.hom_keys
    monkeypatch.setattr(reps, "hom_keys", lambda x, y, *args, **kwargs: (
        walks.append((x.dims, y.dims)) or walk(x, y, *args, **kwargs)))
    reps.aut_generators.cache_clear()
    ctx = HallContext("classical", a2_ctx.catalog, cap=2 ** 7)
    with pytest.raises(EnumerationCapError, match=r"^hom_keys\(dims \(2, 2\) -> \(2, 2\)\): "
                                                  r"\|Hom\| = 2\*\*8 exceeds cap 128$"):
        run(ctx)
    assert walks == []
    assert ctx._monos == {}
