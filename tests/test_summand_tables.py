"""Derived tables from shared local pieces, against their oracles.

hom_class_table assembles each (x, z) table from the per-summand blocks of
hom_block; the whole-table solve HomotopyClasses(P(x), C(z)) is its oracle.
ConeClassifier shares one cone-homology memo per catalog; derived_class_of(
mapping_cone(...)) is its oracle, and recomputing every memo lookup shows
that the memo key fixes the class.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hallalg.catalog import catalog_build
from hallalg.derived import (
    ConeClassifier,
    DerivedClass,
    HomotopyClasses,
    derived_class_of,
    hom_block,
    hom_class_table,
    mapping_cone,
    projective_realization,
    stalk_realization,
)
from hallalg.errors import InvariantError
from hallalg.hall import HallContext, basis_product, cone_histogram
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.verify import in_bound_pairs
from test_cone_kernel import universes

KRONECKER = Quiver(2, ((0, 1), (0, 1)))


def oracle_table(cat, x, z):
    return HomotopyClasses(projective_realization(cat, x), stalk_realization(cat, z))


def reached_context(quiver, p, bound, window):
    """A derived context after `hall derived-table` has run on it."""
    ctx = HallContext("derived", catalog_build(quiver, p, bound), window=window)
    for x, y in in_bound_pairs(ctx):
        basis_product(ctx, x, y)
    return ctx


@pytest.mark.parametrize("quiver, p, bound, window", [
    (a_n_quiver(2), 2, (1, 1), (-1, 1)),
    (a_n_quiver(2), 3, (1, 1), (-1, 1)),
    (KRONECKER, 2, (1, 1), (-1, 0)),
    (a_n_quiver(3), 2, (1, 1, 1), (-1, 0)),
], ids=["a2-p2", "a2-p3", "kronecker-p2", "a3-p2"])
def test_assembled_tables_match_the_whole_table_solve(quiver, p, bound, window):
    ctx = reached_context(quiver, p, bound, window)
    cat = ctx.catalog
    assert len(cat.derived_hom_tables) > 100
    for (x, z), table in cat.derived_hom_tables.items():
        oracle = oracle_table(cat, x, z)
        assert table.space.offsets == oracle.space.offsets
        assert table.dim == oracle.dim
        # the same bases, not only the same spans: the canonical kernel
        # basis, the reduced echelon null rows and the complement, in the
        # same order, so class_vectors runs in the same order too
        assert table.cycle_basis == oracle.cycle_basis
        assert table.null.rows == oracle.null.rows
        assert table.null.pivots == oracle.null.pivots
        assert table.complement == oracle.complement
        ours = [table.canon(v) for v in table.class_vectors()]
        assert ours == [oracle.canon(v) for v in table.class_vectors()]
        assert sorted(ours) == sorted(oracle.canon(v) for v in oracle.class_vectors())


def test_every_memo_lookup_recomputes_to_the_memoized_class():
    ctx = reached_context(a_n_quiver(2), 2, (1, 1), (-1, 1))
    cat = ctx.catalog
    lookups = 0
    for (x, z), (rows, _) in ctx._cone_hist.items():
        classify = ConeClassifier(hom_class_table(cat, x, z), cat)
        for vec, _ in rows:
            for k in range(len(classify.degrees)):
                memo = classify.memos[k]
                assert memo[vec[classify.reads[k]]] == classify._homology_class(k, vec)
                lookups += 1
    entries = sum(len(m) for m in cat.derived_cone_homology.values())
    # most lookups are hits of entries another table computed
    assert lookups > 10 * entries


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(universe=universes(), data=st.data())
def test_shared_memo_histograms_match_the_mapping_cone_oracle(universe, data):
    quiver, p, bound = universe
    ctx = HallContext("derived", catalog_build(quiver, p, bound), window=(-1, 0))
    cat = ctx.catalog
    keys = ctx.basis_keys()
    for _ in range(6):
        x = data.draw(st.sampled_from(keys))
        z = data.draw(st.sampled_from(keys))
        oracle = oracle_table(cat, x, z)
        expected = Counter(
            derived_class_of(mapping_cone(oracle.lift(v)), cat, strict=False)
            for v in oracle.class_vectors()
        )
        assert cone_histogram(ctx, x, z) == dict(expected)


def test_blocks_are_built_once_per_summand_pair():
    ctx = reached_context(a_n_quiver(2), 2, (1, 1), (-1, 1))
    cat = ctx.catalog
    nonzero = len(cat) - 1
    assert len(cat.derived_hom_tables) == 3165
    # one block per pair of nonzero classes and shift -5..3 that ext_dim
    # reads, against one table per (x, z)
    assert len(cat.derived_hom_blocks) == nonzero * nonzero * 9 == 144
    for (a, b, k), block in cat.derived_hom_blocks.items():
        expected = (cat.hom_dim(a, b) if k == 0
                    else cat.ext1_dim(a, b) if k == 1 else 0)
        assert block.dim == expected


def test_block_dim_disagreeing_with_the_module_route_raises(monkeypatch):
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    monkeypatch.setattr(cat, "ext1_dim", lambda a, b: 5)
    with pytest.raises(InvariantError,
                       match=r"^stalk_hom_dim\(c2 -> c1\[1\]\): the chain-map "
                             r"route gives dim 1, the module route 5$"):
        hom_block(cat, 2, 1, 1)
    x = DerivedClass.from_module(2)
    with pytest.raises(InvariantError, match="module route 5"):
        hom_class_table(cat, x, DerivedClass.from_module(1).shift(1))
