"""The closed form of derived |Aut| against the zero-cone count.

derived_product reads |Aut x| = prod_n |Aut x_n| * p^(sum_n dim
Ext^1(x_(n+1), x_n)) (hall.derived_aut_formula); derived_aut_order counts
the Hom classes x -> x with a zero cone and is the oracle.  They must agree
on every basis key of seven universes and on sampled keys of random
quivers, and a slip in the Ext direction or a dropped factor of p in the
formula must show up as disagreements.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hallalg.catalog import Catalog, catalog_build
from hallalg.hall import HallContext, derived_aut_formula, derived_aut_order
from hallalg.quivers import Quiver, a_n_quiver
from test_cone_kernel import universes

KRONECKER = Quiver(2, ((0, 1), (0, 1)))
SINK = Quiver(3, ((0, 1), (2, 1)))

UNIVERSES = pytest.mark.parametrize("quiver, p, bound, window", [
    (a_n_quiver(2), 2, (1, 1), (-1, 1)),
    (a_n_quiver(2), 3, (1, 1), (-1, 1)),
    (KRONECKER, 2, (1, 1), (-1, 1)),
    (a_n_quiver(3), 2, (1, 1, 1), (-1, 0)),
    (a_n_quiver(3), 2, (1, 1, 1), (-1, 1)),
    (SINK, 2, (1, 1, 1), (-1, 1)),
    (a_n_quiver(2), 2, (2, 1), (-1, 0)),
], ids=["a2-p2", "a2-p3", "kronecker-p2", "a3-p2-window-1,0", "a3-p2",
        "sink-p2", "a2-p2-21-window-1,0"])


def counted(ctx, keys) -> dict:
    """{key: derived_aut_order}, the count taken before any formula value
    is read."""
    return {x: derived_aut_order(ctx, x) for x in keys}


def context(quiver, p, bound, window) -> HallContext:
    return HallContext("derived", catalog_build(quiver, p, bound), window=window)


def mismatches(ctx, oracle) -> list:
    return [x for x, order in oracle.items()
            if derived_aut_formula(ctx, x) != order]


@UNIVERSES
def test_the_formula_matches_the_count_on_every_basis_key(quiver, p, bound, window):
    ctx = context(quiver, p, bound, window)
    oracle = counted(ctx, ctx.basis_keys())
    assert len(oracle) >= 64
    # the square-zero part is reached: some order is not a product of
    # module automorphism orders
    assert any(derived_aut_formula(ctx, x) % p == 0 for x in oracle)
    assert mismatches(ctx, oracle) == []


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(universe=universes(), data=st.data())
def test_the_formula_matches_the_count_on_random_quivers(universe, data):
    ctx = context(*universe, (-1, 0))
    keys = data.draw(st.lists(st.sampled_from(ctx.basis_keys()), min_size=1,
                              max_size=16, unique=True))
    assert mismatches(ctx, counted(ctx, keys)) == []


@UNIVERSES
@pytest.mark.parametrize("mutant", ["reversed-ext", "dropped-p"])
def test_a_mutated_formula_fails_the_comparison(monkeypatch, quiver, p, bound,
                                                window, mutant):
    ctx = context(quiver, p, bound, window)
    oracle = counted(ctx, ctx.basis_keys())
    cat = ctx.catalog
    real = Catalog.ext1_dim
    # patched on this catalog only after the count, so only the formula
    # reads the mutant
    if mutant == "reversed-ext":
        monkeypatch.setattr(cat, "ext1_dim", lambda a, b: real(cat, b, a))
    else:
        monkeypatch.setattr(cat, "ext1_dim",
                            lambda a, b: max(real(cat, a, b) - 1, 0))
    assert len(mismatches(ctx, oracle)) >= 15
