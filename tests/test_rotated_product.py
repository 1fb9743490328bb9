"""Derived products from the rotated triangle against Toën's direct count.

derived_product reads one cone histogram per product, over the Hom classes
y[-1] -> x, and weights the count N of each cone z there by

    |Aut z| / (|Aut x| |Aut y|) * p^(E(y[-1], x) + E(z, z) - E(x, x) - E(y, y)),

each |Aut| in closed form (hall.derived_aut_formula).

derived_hall_number counts the Hom classes x -> z with cone y and is the
oracle.  Every term of every product that `hall derived-table` computes
must agree exactly, and a factor of p moved in one |Aut z| or one E(z, z)
must show up as a disagreement on the terms with that z.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hallalg import hall
from hallalg.catalog import catalog_build
from hallalg.derived import DerivedClass
from hallalg.errors import InvariantError
from hallalg.hall import (
    HallContext,
    derived_aut_order,
    derived_hall_number,
    derived_product,
)
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.verify import in_bound_pairs
from test_cone_kernel import universes

KRONECKER = Quiver(2, ((0, 1), (0, 1)))


def mismatches(ctx, pairs) -> tuple:
    """([(x, y, z) whose product term differs from the direct count], the
    number of terms) over the given pairs.  Each product's terms are
    exactly its support."""
    bad, terms = [], 0
    for x, y in pairs:
        got = derived_product(ctx, x, y)
        for z, g in got.items():
            terms += 1
            if g != derived_hall_number(ctx, x, y, z):
                bad.append((x, y, z))
    return bad, terms


@pytest.mark.parametrize("quiver, p, bound, window", [
    (a_n_quiver(2), 2, (1, 1), (-1, 1)),
    (a_n_quiver(2), 3, (1, 1), (-1, 1)),
    (KRONECKER, 2, (1, 1), (-1, 1)),
    (a_n_quiver(3), 2, (1, 1, 1), (-1, 0)),
], ids=["a2-p2", "a2-p3", "kronecker-p2", "a3-p2"])
def test_rotated_products_match_the_direct_count(quiver, p, bound, window):
    ctx = HallContext("derived", catalog_build(quiver, p, bound), window=window)
    bad, terms = mismatches(ctx, in_bound_pairs(ctx))
    assert terms > 1000
    assert bad == []


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(universe=universes(), data=st.data())
def test_rotated_products_match_the_direct_count_on_random_quivers(universe, data):
    quiver, p, bound = universe
    ctx = HallContext("derived", catalog_build(quiver, p, bound), window=(-1, 0))
    pairs = in_bound_pairs(ctx)
    drawn = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8))
    bad, terms = mismatches(ctx, drawn)
    assert terms >= len(drawn)
    assert bad == []


@pytest.mark.parametrize("factor", ["aut", "ext"])
def test_a_factor_of_p_moved_in_one_z_fails_the_comparison(monkeypatch, factor):
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    ctx = HallContext("derived", cat, window=(-1, 1))
    pairs = in_bound_pairs(ctx)
    indec = next(e.index for e in cat.entries if e.dims == (1, 1) and e.indecomposable)
    z0 = DerivedClass.from_module(indec)
    # the terms whose z is z0 and whose x and y are not: only the rotated
    # route reads |Aut z0| and E(z0, z0) for them
    expected = {(x, y, z) for x, y in pairs for z in derived_product(ctx, x, y)
                if z == z0 and z0 not in (x, y)}
    assert expected
    if factor == "aut":
        real = hall.derived_aut_formula
        monkeypatch.setattr(hall, "derived_aut_formula", lambda ctx, x: (
            real(ctx, x) * cat.p if x == z0 else real(ctx, x)))
    else:
        real = hall.ext_exponent
        monkeypatch.setattr(hall, "ext_exponent", lambda ctx, x, z: (
            real(ctx, x, z) + 1 if x == z == z0 else real(ctx, x, z)))
    # a fresh context over the same catalog: the products above filled
    # ctx's cache of E(z0, z0), so only a new context reads the patched value
    bad, _ = mismatches(HallContext("derived", cat, window=(-1, 1)), pairs)
    assert expected <= set(bad)
    assert all(z0 in t for t in bad)


def test_an_object_with_no_zero_cone_endomorphism_raises(monkeypatch):
    ctx = HallContext("derived", catalog_build(a_n_quiver(2), 2, (1, 1)),
                      window=(0, 0))
    monkeypatch.setattr(hall, "cone_counts", lambda ctx, x, z: {None: 1})
    with pytest.raises(InvariantError,
                       match=r"^derived_aut_order\(c1\): no Hom class x -> x "
                             r"has a zero cone"):
        derived_aut_order(ctx, DerivedClass.from_module(1))
