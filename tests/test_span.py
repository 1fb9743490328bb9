from fractions import Fraction

import pytest

from hallalg.catalog import catalog_build
from hallalg.hall import HallContext, multiply
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.reps import enumerate_subreps
from hallalg.span import build_span_model, mu_span


@pytest.fixture(scope="module")
def a1_span():
    ctx = HallContext("classical", catalog_build(a_n_quiver(1), 2, (2,)))
    return ctx, build_span_model(ctx)


@pytest.fixture(scope="module")
def a2_span():
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 2, (1, 1)))
    return ctx, build_span_model(ctx)


def idx_of(cat, dims, indec=None):
    for e in cat.entries:
        if e.dims == dims and (indec is None or e.indecomposable == indec):
            return e.index
    raise AssertionError


def test_x0_orders_are_aut_orders(a1_span):
    ctx, span = a1_span
    cat = ctx.catalog
    got = sorted(span.x0.orders)
    assert got == sorted((cat.aut_order(i),) for i in range(len(cat)))
    assert sorted(o[0] for o in span.x0.orders) == [1, 1, 6]


def test_fiber_over_zero_object(a1_span):
    ctx, span = a1_span
    zero = ctx.catalog.zero_index
    fib = span.t.fibers[zero]
    # the only subobject of 0 is 0 -> 0, with trivial stabilizer
    assert len(fib.lftype.components) == 1
    assert fib.lftype.orders == ((1,),)
    assert span.arrow_classes[fib.incl[0]].source_class == zero


def test_arrow_class_stabilizer_times_orbit(a2_span):
    ctx, span = a2_span
    cat = ctx.catalog
    for ac in span.arrow_classes.values():
        auts = cat.aut_order(ac.source_class) * cat.aut_order(ac.target_class)
        assert ac.orbit_size * ac.stabilizer_order == auts


def test_fiber_orbit_counts_match_injection_orbits(a1_span):
    # over z = V_2, the injective-arrow components from source V_1 number
    # |Inj(V_1, V_2)| / |Aut V_1| = 3, each with trivial stabilizer
    ctx, span = a1_span
    cat = ctx.catalog
    v1 = next(e.index for e in cat.entries if e.dims == (1,))
    v2 = next(e.index for e in cat.entries if e.dims == (2,))
    fib = span.t.fibers[v2]
    inj_comps = [
        (c, o)
        for c, o, src in zip(fib.lftype.components, fib.lftype.orders, fib.incl)
        if span.arrow_classes[src].source_class == v1
    ]
    assert len(inj_comps) == 3
    assert all(o == (1,) for _, o in inj_comps)


def test_every_arrow_class_is_a_monomorphism(a2_span):
    _, span = a2_span
    assert span.arrow_classes
    assert all(ac.rep.is_injective() for ac in span.arrow_classes.values())


@pytest.mark.parametrize("quiver, p, bound", [
    pytest.param(a_n_quiver(1), 3, (3,), id="a1-p3-3"),
    pytest.param(a_n_quiver(2), 2, (2, 2), id="a2-p2-22"),
    pytest.param(Quiver(2, ((0, 1), (0, 1))), 2, (1, 1), id="kronecker-p2-11"),
])
def test_fiber_mass_counts_subobjects(quiver, p, bound):
    # X1 = S_2: the fiber of t over z is the groupoid of subobjects of z, so
    # its homotopy cardinality is the number of subrepresentations of z
    ctx = HallContext("classical", catalog_build(quiver, p, bound))
    span = build_span_model(ctx)
    cat = ctx.catalog
    for z in range(len(cat)):
        orders = span.t.fibers[z].lftype.orders
        mass = sum(Fraction(1, o[0]) for o in orders)
        assert mass == len(enumerate_subreps(cat.rep(z))), cat.name(z)


def test_mu_span_unit(a2_span):
    ctx, span = a2_span
    chi0 = ctx.chi(ctx.catalog.zero_index)
    for k in range(len(ctx.catalog)):
        a = ctx.chi(k)
        assert mu_span(chi0, a, span) == a
        assert mu_span(a, chi0, span) == a


def test_mu_span_equals_multiply_a2(a2_span):
    ctx, span = a2_span
    cat = ctx.catalog
    for x in range(len(cat)):
        for y in range(len(cat)):
            if not ctx.keys_in_bound((x, y)):
                continue
            assert mu_span(ctx.chi(x), ctx.chi(y), span) == multiply(
                ctx.chi(x), ctx.chi(y)
            ), (x, y)


def test_mu_span_gaussian_count(a1_span):
    ctx, span = a1_span
    cat = ctx.catalog
    v1 = next(e.index for e in cat.entries if e.dims == (1,))
    v2 = next(e.index for e in cat.entries if e.dims == (2,))
    got = mu_span(ctx.chi(v1), ctx.chi(v1), span)
    assert got.values == {v2: Fraction(3)}


def test_mu_span_is_bilinear(a2_span):
    ctx, span = a2_span
    cat = ctx.catalog
    s1 = idx_of(cat, (1, 0))
    s2 = idx_of(cat, (0, 1))
    zero = cat.zero_index
    a = ctx.chi(s1).scale(Fraction(2, 3)) + ctx.chi(zero)
    b = ctx.chi(s2).scale(5)
    lhs = mu_span(a, b, span)
    rhs = mu_span(ctx.chi(s1), b, span).scale(Fraction(2, 3)) + mu_span(
        ctx.chi(zero), b, span
    )
    assert lhs == rhs
