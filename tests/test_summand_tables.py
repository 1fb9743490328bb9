"""Derived tables from shared local pieces, against their oracles.

SummandHomClasses lays out each (x, z) table from the per-summand blocks of
hom_block; the whole-table solve hom_class_table = HomotopyClasses(P(x),
C(z)) is its oracle.
Cone classes come from one cone-homology memo per catalog, keyed by the
summand signature and three block coefficient tuples; derived_class_of(
mapping_cone(...)) is its oracle, and classifying every row afresh from its
whole-table vector (ConeClassifier) shows that the memo key fixes the class,
while a key without one of the blocks H^n reads does not.  The cone of the
zero Hom class is read off its signature (zero_cone_homology), and
cone_homology on the local table is its oracle.
"""

import gc
import itertools
import json
import types
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hallalg import cli, derived
from hallalg.catalog import catalog_build
from hallalg.derived import (
    Complex,
    ConeBlocks,
    ConeClassifier,
    ConeDegree,
    DerivedClass,
    GradedMapSpace,
    HomotopyClasses,
    SummandHomClasses,
    cone_homology,
    derived_class_of,
    hom_block,
    hom_class_table,
    mapping_cone,
    module_dim,
    projective_realization,
    stalk_realization,
)
from hallalg.errors import InvariantError
from hallalg.fq import RowSpace
from hallalg.reps import Representation
from hallalg.hall import HallContext, cone_histogram, cone_table
from hallalg.quivers import Quiver, a_n_quiver
from test_cone_kernel import reach_both_routes, universes

KRONECKER = Quiver(2, ((0, 1), (0, 1)))


def oracle_table(cat, x, z):
    return HomotopyClasses(projective_realization(cat, x), stalk_realization(cat, z))


def reached_context(quiver, p, bound, window):
    """A derived context after both routes of every product of `hall
    derived-table` have run on it."""
    return reach_both_routes(
        HallContext("derived", catalog_build(quiver, p, bound), window=window))


@pytest.mark.parametrize("quiver, p, bound, window", [
    (a_n_quiver(2), 2, (1, 1), (-1, 1)),
    (a_n_quiver(2), 3, (1, 1), (-1, 1)),
    (KRONECKER, 2, (1, 1), (-1, 0)),
    (a_n_quiver(3), 2, (1, 1, 1), (-1, 0)),
], ids=["a2-p2", "a2-p3", "kronecker-p2", "a3-p2"])
def test_assembled_tables_match_the_whole_table_solve(quiver, p, bound, window):
    # the embedded block complements are chain maps, independent modulo the
    # null-homotopic maps of the whole-table solve, and give its p^dim
    # classes: the ConeBlocks coordinates are coordinates of the whole table
    ctx = reached_context(quiver, p, bound, window)
    cat = ctx.catalog
    assert len(ctx._cone_hist) > 100
    for x, z in ctx._cone_hist:
        layout = SummandHomClasses(cat, x, z)
        oracle = hom_class_table(cat, x, z)
        assert layout.space.offsets == oracle.space.offsets
        cones = ConeBlocks(cat, x, z)
        assert sum(cones.dims) == oracle.dim
        cycles = RowSpace(p, oracle.space.total)
        for v in oracle.cycle_basis:
            cycles.add(v)
        spanned = RowSpace(p, oracle.space.total)
        for v in oracle.null.rows:
            spanned.add(v)
        for key, dim in zip(cones.keys, cones.dims):
            for i in range(dim):
                vec = layout.vector({key: tuple(int(j == i) for j in range(dim))})
                assert not any(cycles.reduce(vec)), (x, z, key, i)
                assert spanned.add(vec), (x, z, key, i)
        classes = {oracle.canon(layout.vector(dict(zip(cones.keys, coords))))
                   for coords in cones.coordinates()}
        assert len(classes) == oracle.count


def memo_mismatches(ctx) -> tuple:
    """(rows whose memo class differs from the class computed afresh from
    the row's whole-table vector, rows) over every table that ctx reached."""
    cat = ctx.catalog
    bad = rows = 0
    for x, z in list(ctx._cone_hist):
        whole = ConeClassifier(hom_class_table(cat, x, z), cat)
        for vec, dc in cone_table(ctx, x, z):
            rows += 1
            bad += dc != whole(vec)
    return bad, rows


def test_every_memo_lookup_recomputes_to_the_memoized_class():
    ctx = reached_context(a_n_quiver(2), 2, (1, 1), (-1, 1))
    cat = ctx.catalog
    bad, rows = memo_mismatches(ctx)
    assert bad == 0 and rows == 18131
    lookups = sum(len(ConeBlocks(cat, x, z).reads) * count
                  for (x, z), hist in ctx._cone_hist.items()
                  for count in hist.values())
    entries = sum(len(m) for m in cat.derived_cone_homology.values())
    # most lookups are hits of entries another table computed
    assert lookups > 40 * entries


@pytest.mark.parametrize("dropped", [1, 2], ids=["ext-n", "hom-n+1"])
def test_a_key_without_a_block_that_hn_reads_fails(monkeypatch, dropped):
    # key entry 1 is Ext^1(x_(n+1), z_n), entry 2 is Hom(x_(n+1), z_(n+1))
    init = ConeBlocks.__init__

    def without(key_of):
        return lambda coords: tuple(() if i == dropped else c
                                    for i, c in enumerate(key_of(coords)))

    def drop(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.reads = [(n, sig, memo, without(key_of))
                      for n, sig, memo, key_of in self.reads]

    monkeypatch.setattr(ConeBlocks, "__init__", drop)
    # the wrong classes also move the support, so other tables are reached
    bad, rows = memo_mismatches(reached_context(a_n_quiver(2), 2, (1, 1), (-1, 1)))
    assert bad > 0 and rows > 0


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
    # counting cones builds no (x, z) table: one local table per signature
    # that has a nonzero Hom class, since the cone of the zero class is
    # read off the signature
    assert len(ctx._cone_hist) == 3165
    assert not cat.derived_hom_tables
    assert len(cat.derived_cone_homology) == 345
    assert sum(len(m) for m in cat.derived_cone_homology.values()) == 998
    with_nonzero = {sig for sig, memo in cat.derived_cone_homology.items()
                    if any(any(map(any, key)) for key in memo)}
    assert set(cat.derived_cone_tables) == with_nonzero
    assert len(cat.derived_cone_tables) == 261
    # one block per pair of nonzero classes and shift 0 or 1, the blocks
    # summand_blocks builds; ext_dim and the Ext factors read module_dim
    # and build none
    assert len(cat.derived_hom_blocks) == nonzero * nonzero * 2 == 32
    for (a, b, k), block in cat.derived_hom_blocks.items():
        assert k in (0, 1)
        assert block.dim == module_dim(cat, a, b, k)


@pytest.mark.parametrize("quiver, argv, solves", [
    (a_n_quiver(2), ["derived-table", "-p", "2", "--bound", "1,1", "--window=-1,1"],
     18),
    (KRONECKER, ["verify", "--mode", "derived", "--checks", "all", "-p", "2",
                 "--bound", "1,1", "--window=-1,1"], 97),
], ids=["derived-table-A2", "verify-derived-Kronecker"])
def test_cli_runs_solve_only_the_blocks_a_table_lays_out(monkeypatch, tmp_path,
                                                         capsys, quiver, argv, solves):
    # dimensions and Ext factors come from module_dim, so a whole run solves
    # chain maps only for the Hom blocks of shift 0 and 1 that its tables
    # lay out, the lifts and compositions of the orbit check, and no other
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"vertices": quiver.vertex_count, "arrows": [
        {"src": s, "dst": t} for s, t in quiver.arrows]}))
    cats, built = [], []
    monkeypatch.setattr(cli, "catalog_build",
                        lambda *a, **k: cats.append(catalog_build(*a, **k)) or cats[-1])
    init = HomotopyClasses.__init__
    monkeypatch.setattr(HomotopyClasses, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    assert cli.main([argv[0], "--quiver", str(path), *argv[1:]]) == 0
    capsys.readouterr()
    (cat,) = cats
    assert cat.derived_hom_blocks
    assert {k for _, _, k in cat.derived_hom_blocks} <= {0, 1}
    assert len(built) == solves


def test_block_dim_disagreeing_with_the_module_route_raises(monkeypatch):
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    monkeypatch.setattr(cat, "ext1_dim", lambda a, b: 5)
    with pytest.raises(InvariantError,
                       match=r"^hom_block\(c2 -> c1\[1\]\): the chain-map "
                             r"route gives dim 1, the module route 5$"):
        hom_block(cat, 2, 1, 1)
    x = DerivedClass.from_module(2)
    with pytest.raises(InvariantError, match="module route 5"):
        ConeBlocks(cat, x, DerivedClass.from_module(1).shift(1))


def test_local_cone_tables_keep_only_what_a_miss_reads():
    # per signature: the local table's length, each block's positions and
    # complement, and the ConeDegree of H^0; no table, complex or
    # representation of the local table stays reachable (the catalog, which
    # holds its own, is not walked)
    ctx = reached_context(a_n_quiver(2), 2, (1, 1), (-1, 1))
    cat = ctx.catalog
    held = (SummandHomClasses, HomotopyClasses, GradedMapSpace, Complex,
            Representation)
    seen, todo = set(), list(cat.derived_cone_tables.values())
    for total, embeds, degree in todo:
        assert type(total) is int and len(embeds) == 3
        assert isinstance(degree, ConeDegree) and degree.n == 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or obj is cat or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, held), type(obj)
        todo.extend(gc.get_referents(obj))


def zero_key(cat, sig):
    """The memo key of the zero Hom class of a signature: a zero tuple on
    each block H^n reads, () for an absent or zero-dim one."""
    x_n, x_n1, z_n, z_n1 = sig
    return tuple(
        (0,) * hom_block(cat, a, b, k).dim if a is not None and b is not None else ()
        for a, b, k in ((x_n, z_n, 0), (x_n1, z_n, 1), (x_n1, z_n1, 0)))


def zero_cone_mismatches(cat, sigs) -> tuple:
    """([signatures where derived.zero_cone_homology differs from
    cone_homology on the zero key], the values of the oracle)."""
    bad, seen = [], []
    for sig in sigs:
        expected = cone_homology(cat, sig, zero_key(cat, sig))
        seen.append(expected)
        if derived.zero_cone_homology(cat, sig) != expected:
            bad.append(sig)
    return bad, seen


ZERO_CONE_UNIVERSES = pytest.mark.parametrize("quiver, p, bound, window", [
    (a_n_quiver(2), 2, (1, 1), (-1, 1)),
    (a_n_quiver(2), 3, (1, 1), (-1, 1)),
    (KRONECKER, 2, (1, 1), (-1, 1)),
    (a_n_quiver(3), 2, (1, 1, 1), (-1, 0)),
], ids=["a2-p2", "a2-p3", "kronecker-p2", "a3-p2"])


def unreached_zero_signatures(cat) -> list:
    """The signatures with x_(n+1) and z_n absent, whose H^n is zero:
    ConeBlocks reads no such degree, so they are added by hand."""
    nonzero = [e.index for e in cat.entries if not e.rep.is_zero()]
    return [(a, None, None, b) for a, b in itertools.product([None, *nonzero], repeat=2)]


@ZERO_CONE_UNIVERSES
def test_zero_cones_read_off_the_signature_match_the_local_table(quiver, p, bound,
                                                                 window):
    ctx = reached_context(quiver, p, bound, window)
    cat = ctx.catalog
    memo = cat.derived_cone_homology
    assert len(memo) > 300
    # every reached signature has a zero class, and the memo holds the
    # shortcut's value for it
    for sig, classes in memo.items():
        assert classes[zero_key(cat, sig)] == derived.zero_cone_homology(cat, sig)
    bad, seen = zero_cone_mismatches(cat, [*memo, *unreached_zero_signatures(cat)])
    assert bad == []
    assert None in seen and ConeClassifier.OUT_OF_BOUND in seen
    assert any(i is not None and i >= 0 for i in seen)


def test_a_zero_cone_of_z_n_alone_fails_the_comparison(monkeypatch):
    ctx = reached_context(a_n_quiver(2), 2, (1, 1), (-1, 1))
    cat = ctx.catalog
    monkeypatch.setattr(derived, "zero_cone_homology", lambda cat, sig: sig[2])
    bad, _ = zero_cone_mismatches(cat, cat.derived_cone_homology)
    # wrong wherever x_(n+1) is present
    assert bad
    assert all(sig[1] is not None for sig in bad)
    # and the production route reads the shortcut: a fresh catalog's cone
    # histograms leave the mapping-cone oracle
    fresh = HallContext("derived", catalog_build(a_n_quiver(2), 2, (1, 1)), window=(-1, 1))
    x = DerivedClass.from_module(1)
    oracle = hom_class_table(fresh.catalog, x, x)
    expected = Counter(derived_class_of(mapping_cone(oracle.lift(v)), fresh.catalog,
                                        strict=False) for v in oracle.class_vectors())
    assert cone_histogram(fresh, x, x) != dict(expected)
