import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hallalg.errors import InputError
from lf_oracle import dense_pullback, dense_pushforward
from hallalg.lf import (
    BaseChangeSquare,
    Fiber,
    FiniteSupportFn,
    LFType,
    ProperMapData,
    check_base_change,
    homotopy_weight,
    lf_product,
    pullback,
    pushforward,
    random_base_change_square,
)


def one_component(orders, name="x0"):
    return LFType((name,), (tuple(orders),))


def map_to_point(x: LFType) -> ProperMapData:
    pt = LFType.point()
    fiber = Fiber(x, tuple(x.components))
    return ProperMapData(x, pt, ("pt",) * len(x.components), (fiber,))


def test_pushforward_identity():
    x = LFType(("a", "b"), ((2,), (3, 4)))
    f = ProperMapData.identity(x)
    alpha = FiniteSupportFn(x, {"a": Fraction(5), "b": Fraction(1, 3)})
    assert pushforward(f, alpha) == alpha


def test_pushforward_pi1_inverted():
    x = one_component([2])
    f = map_to_point(x)
    got = pushforward(f, FiniteSupportFn.characteristic(x, "x0"))
    assert got("pt") == Fraction(1, 2)


def test_pushforward_alternating_exponents():
    x = one_component([3, 9])
    f = map_to_point(x)
    got = pushforward(f, FiniteSupportFn.characteristic(x, "x0"))
    assert got("pt") == Fraction(9, 3) == 3


def test_pushforward_of_constant_is_homotopy_cardinality():
    x = LFType(("a", "b", "c"), ((2,), (3, 4), ()))
    f = map_to_point(x)
    got = pushforward(f, FiniteSupportFn(x, {c: 1 for c in x.components}))
    cardinality = sum(homotopy_weight(o) for o in x.orders)
    assert got("pt") == cardinality == Fraction(1, 2) + Fraction(4, 3) + 1


def test_pullback_identity():
    x = LFType(("a", "b"), ((), ()))
    f = ProperMapData.identity(x)
    beta = FiniteSupportFn(x, {"a": 1})
    assert pullback(f, beta) == beta


def test_pullback_of_zero_is_zero():
    x = LFType(("a",), ((),))
    f = ProperMapData.identity(x)
    assert pullback(f, FiniteSupportFn(x)) == FiniteSupportFn(x)


def test_pullback_duplicates_over_shared_target():
    src = LFType(("a", "b"), ((), ()))
    dst = LFType(("y",), ((),))
    f = ProperMapData(src, dst, ("y", "y"),
                      (Fiber(LFType(("fa", "fb"), ((), ())), ("a", "b")),))
    got = pullback(f, FiniteSupportFn.characteristic(dst, "y"))
    assert got("a") == 1 and got("b") == 1


def test_lf_product_point_is_identity():
    x = LFType(("a", "b"), ((2,), (3, 4)))
    prod = lf_product(x, LFType.point())
    assert len(prod.components) == 2
    assert set(prod.orders) == {(2,), (3, 4)}


def test_lf_product_orders_multiply():
    x = one_component([2], "a")
    y = one_component([3], "b")
    prod = lf_product(x, y)
    assert prod.orders == ((6,),)


def test_lf_product_component_count():
    x = LFType(("a", "b"), ((), ()))
    y = LFType(("u", "v", "w"), ((), (), ()))
    assert len(lf_product(x, y).components) == 6


def test_identity_laws():
    x = LFType(("a", "b"), ((2, 2), (5,)))
    f = ProperMapData.identity(x)
    for comp in x.components:
        chi = FiniteSupportFn.characteristic(x, comp)
        assert pushforward(f, chi) == chi
        assert pullback(f, chi) == chi


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=4),
    st.fractions(), st.fractions(),
)
def test_pushforward_linearity(orders, c1, c2):
    x = LFType(("a", "b"), (tuple(orders), (2,)))
    f = map_to_point(x)
    alpha = FiniteSupportFn(x, {"a": c1})
    beta = FiniteSupportFn(x, {"a": c2, "b": 1})
    lhs = pushforward(f, alpha.scale(3) + beta)
    rhs = pushforward(f, alpha).scale(3) + pushforward(f, beta)
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(st.fractions(), st.fractions())
def test_pullback_linearity(c1, c2):
    src = LFType(("a", "b", "c"), ((), (), ()))
    dst = LFType(("y", "z"), ((), ()))
    f = ProperMapData(src, dst, ("y", "y", "z"), None)
    alpha = FiniteSupportFn(dst, {"y": c1})
    beta = FiniteSupportFn(dst, {"y": c2, "z": 1})
    lhs = pullback(f, alpha.scale(7) + beta)
    rhs = pullback(f, alpha).scale(7) + pullback(f, beta)
    assert lhs == rhs


def test_base_change_identity_u():
    x = LFType(("a", "b"), ((2,), (3,)))
    f = map_to_point(x)
    square = BaseChangeSquare(
        f=f, u=ProperMapData.identity(f.target),
        v=ProperMapData.identity(x), g=f,
    )
    report = check_base_change(square)
    assert report.equal
    assert report.max_deviation == 0


def test_base_change_identity_f():
    x = LFType(("a", "b"), ((2,), (3,)))
    ident = ProperMapData.identity(x)
    square = BaseChangeSquare(f=ident, u=ident, v=ident, g=ident)
    report = check_base_change(square)
    assert report.equal


def test_base_change_randomized_squares_exact():
    rng = random.Random(12345)
    for _ in range(100):
        square = random_base_change_square(rng, max_components=5, max_order=8)
        report = check_base_change(square)
        assert report.equal, report.failures
        assert report.max_deviation == 0


def test_base_change_detects_corruption():
    rng = random.Random(999)
    square = None
    while square is None:
        cand = random_base_change_square(rng)
        # need at least one g-fiber component to corrupt
        if any(fib.lftype.components for fib in cand.g.fibers):
            square = cand
    bad_fibers = []
    corrupted = False
    for fib in square.g.fibers:
        if fib.lftype.components and not corrupted:
            # scale exactly one fiber component's weight, so exactly one
            # evaluation changes and the deviation cannot cancel
            new_orders = (fib.lftype.orders[0] + (7,),) + fib.lftype.orders[1:]
            bad_fibers.append(
                Fiber(LFType(fib.lftype.components, new_orders), fib.incl)
            )
            corrupted = True
        else:
            bad_fibers.append(fib)
    bad_g = ProperMapData(
        square.g.source, square.g.target, square.g.component_map,
        tuple(bad_fibers),
    )
    report = check_base_change(
        BaseChangeSquare(square.f, square.u, square.v, bad_g)
    )
    assert not report.equal
    assert report.max_deviation > 0


def test_fiber_compatibility_enforced():
    src = LFType(("a", "b"), ((), ()))
    dst = LFType(("y",), ((),))
    with pytest.raises(InputError):
        # fiber misses component b of the preimage
        ProperMapData(src, dst, ("y", "y"),
                      (Fiber(LFType(("fa",), ((),)), ("a",)),))


def test_orders_must_be_positive():
    with pytest.raises(InputError):
        LFType(("a",), ((0,),))
    with pytest.raises(InputError):
        homotopy_weight([0])


def test_json_roundtrip():
    x = LFType(("a", "b"), ((2,), (3, 4)))
    f = map_to_point(x)
    doc = f.to_json_dict()
    back = ProperMapData.from_json_dict(doc)
    assert back.target == LFType.point()
    alpha = FiniteSupportFn(back.source, {"a": Fraction(1, 2)})
    assert pushforward(back, alpha)("pt") == Fraction(1, 4)
    fn_doc = alpha.to_json_dict()
    assert fn_doc["values"]["a"] == "1/2"
    again = FiniteSupportFn.from_json_dict(back.source, fn_doc)
    assert again == alpha


def with_shared_sources(f: ProperMapData, rng: random.Random) -> ProperMapData:
    """f with extra fiber components, each including a source that some
    fiber component over the same target already includes."""
    fibers = []
    for tcomp, fib in zip(f.target.components, f.fibers):
        pairs = list(zip(fib.lftype.components, fib.lftype.orders))
        incl = list(fib.incl)
        for k in range(rng.randint(0, 3) if incl else 0):
            pairs.append((f"extra.{tcomp}.{k}",
                          tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 2)))))
            incl.append(rng.choice(fib.incl))
        fibers.append(Fiber(LFType.from_pairs(pairs), tuple(incl)))
    return ProperMapData(f.source, f.target, f.component_map, tuple(fibers))


small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=30)


def random_fn(data, base: LFType) -> FiniteSupportFn:
    return FiniteSupportFn(base, {
        c: data.draw(small_fractions) for c in base.components if data.draw(st.booleans())
    })


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_indexed_push_pull_match_dense_oracle(seed, data):
    rng = random.Random(seed)
    square = random_base_change_square(rng)
    maps = [square.f, square.u, square.v, square.g]
    maps += [with_shared_sources(m, rng) for m in maps]
    for f in maps:
        for alpha in (FiniteSupportFn(f.source), random_fn(data, f.source)):
            assert pushforward(f, alpha) == dense_pushforward(f, alpha)
        for beta in (FiniteSupportFn(f.target), random_fn(data, f.target)):
            assert pullback(f, beta) == dense_pullback(f, beta)

        # contributions that cancel: over a target with at least two
        # sources, the last source's value offsets all the others
        for tcomp in f.target.components:
            pre = f.preimage(tcomp)
            if len(pre) < 2:
                continue
            weight = {
                s: dense_pushforward(f, FiniteSupportFn.characteristic(f.source, s))(tcomp)
                for s in pre
            }
            vals = {s: data.draw(small_fractions) for s in pre[:-1]}
            vals[pre[-1]] = -sum(v * weight[s] for s, v in vals.items()) / weight[pre[-1]]
            alpha = FiniteSupportFn(f.source, vals)
            got = pushforward(f, alpha)
            assert tcomp not in got.values
            assert got == dense_pushforward(f, alpha)
