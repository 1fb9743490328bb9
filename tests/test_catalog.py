import itertools

import pytest
from hypothesis import given, settings

from catalog_oracle import (
    all_transvection_generators,
    fingerprint,
    pairwise_catalog,
    tuple_sweep_catalog,
)
from hallalg import catalog as catalog_module
from hallalg.catalog import Catalog, catalog_build
from hallalg.errors import EnumerationCapError, InvariantError, OutOfUniverseError
from hallalg.fq import FqMatrix
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.reps import (
    Representation,
    aut_order,
    direct_sum,
    enumerate_subreps,
    is_isomorphic,
)
from test_cone_kernel import universes

KRONECKER = Quiver(2, ((0, 1), (0, 1)))

ORACLE_UNIVERSES = [
    pytest.param(a_n_quiver(1), 2, (3,), id="A1-p2-3"),
    pytest.param(a_n_quiver(2), 2, (2, 2), id="A2-p2-22"),
    pytest.param(a_n_quiver(2), 3, (2, 2), id="A2-p3-22"),
    pytest.param(a_n_quiver(3), 2, (2, 2, 1), id="A3-p2-221"),
    pytest.param(KRONECKER, 2, (1, 1), id="kronecker-p2-11"),
    pytest.param(KRONECKER, 3, (2, 1), id="kronecker-p3-21"),
    pytest.param(Quiver(2, ((1, 0),)), 2, (2, 2), id="A2-arrow10-p2-22"),
    # a loop is acted on from both sides by the same vertex matrix
    pytest.param(Quiver(1, ((0, 0),)), 3, (2,), id="jordan-p3-2"),
]


@pytest.fixture(scope="module")
def a1_cat():
    return catalog_build(a_n_quiver(1), 2, (2,))


@pytest.fixture(scope="module")
def a2_cat():
    return catalog_build(a_n_quiver(2), 2, (1, 1))


@pytest.fixture(scope="module")
def a2_cat_22():
    return catalog_build(a_n_quiver(2), 2, (2, 2))


def test_a1_bound2_has_three_classes(a1_cat):
    assert len(a1_cat) == 3
    assert sorted(e.dims for e in a1_cat.entries) == [(0,), (1,), (2,)]


def test_bound_zero_single_class():
    cat = catalog_build(a_n_quiver(2), 2, (0, 0))
    assert len(cat) == 1


def test_a2_bound11_five_classes(a2_cat):
    assert len(a2_cat) == 5
    dims = sorted(e.dims for e in a2_cat.entries)
    assert dims == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def test_a2_indecomposables(a2_cat):
    # zero and the split (1,1) class are decomposable; S_1, S_2, P_1 are not
    indec = a2_cat.indecomposable_indices
    assert len(indec) == 3
    for i in indec:
        assert a2_cat.rep(i).total_dim > 0


def test_a2_bound22_class_count(a2_cat_22):
    # multisets S_1^a + S_2^b + P_1^c with a+c <= 2, b+c <= 2
    expected = sum(
        1
        for a in range(3)
        for b in range(3)
        for c in range(3)
        if a + c <= 2 and b + c <= 2
    )
    assert len(a2_cat_22) == expected == 14


def test_classify_finds_direct_sums(a2_cat):
    s1 = next(e.index for e in a2_cat.entries if e.dims == (1, 0))
    s2 = next(e.index for e in a2_cat.entries if e.dims == (0, 1))
    both = direct_sum(a2_cat.rep(s1), a2_cat.rep(s2))
    idx = a2_cat.classify(both)
    assert a2_cat.dims(idx) == (1, 1)
    assert not a2_cat.entries[idx].indecomposable


def test_classify_out_of_bound_raises(a2_cat):
    big = Representation(
        a_n_quiver(2), 2, (2, 0), (FqMatrix(2, 0, 2, ()),)
    )
    with pytest.raises(OutOfUniverseError):
        a2_cat.classify(big)


def test_fingerprint_equality_matches_isomorphism(a2_cat_22):
    # Krull-Schmidt at desk scale: fingerprints separate classes exactly
    cat = a2_cat_22
    for a in range(len(cat)):
        for b in range(len(cat)):
            same_fp = (
                cat.dims(a) == cat.dims(b)
                and fingerprint(cat, a) == fingerprint(cat, b)
            )
            assert same_fp == is_isomorphic(cat.rep(a), cat.rep(b))


def test_is_isomorphic_equivalence_relation(a2_cat):
    cat = a2_cat
    idxs = range(len(cat))
    for a in idxs:
        assert is_isomorphic(cat.rep(a), cat.rep(a))
        for b in idxs:
            ab = is_isomorphic(cat.rep(a), cat.rep(b))
            assert ab == is_isomorphic(cat.rep(b), cat.rep(a))
            for c in idxs:
                if ab and is_isomorphic(cat.rep(b), cat.rep(c)):
                    assert is_isomorphic(cat.rep(a), cat.rep(c))


def test_hom_ext_tables_are_finite_and_cached(a2_cat):
    cat = a2_cat
    for a in range(len(cat)):
        for b in range(len(cat)):
            assert cat.hom_dim(a, b) >= 0
            assert cat.ext1_dim(a, b) >= 0
            assert cat.p ** cat.hom_dim(a, b) >= 1


def test_canonical_representative_is_lex_least(a2_cat):
    # P_1's orbit over F_2 contains only the matrix (1); the split class
    # representative must be the zero matrix
    split = [
        e for e in a2_cat.entries if e.dims == (1, 1) and not e.indecomposable
    ]
    assert len(split) == 1
    assert split[0].rep.mats[0].data == (0,)


def test_export_schema(a1_cat):
    doc = a1_cat.export_json_dict()
    assert doc["schema"] == 1
    assert len(doc["classes"]) == 3
    for cls in doc["classes"]:
        assert set(cls) == {"id", "dim_vector", "aut_order", "indecomposable"}
    by_dim = {tuple(c["dim_vector"]): c["aut_order"] for c in doc["classes"]}
    assert by_dim == {(0,): 1, (1,): 1, (2,): 6}


# -- the orbit sweep against the pairwise-isomorphism oracle -------------------


@pytest.mark.parametrize("quiver,p,bound", ORACLE_UNIVERSES)
def test_sweep_matches_pairwise_oracle(quiver, p, bound):
    cat = catalog_build(quiver, p, bound)
    oracle_reps, flags = pairwise_catalog(quiver, p, bound)
    assert [e.rep.key() for e in cat.entries] == [r.key() for r in oracle_reps]
    assert [e.indecomposable for e in cat.entries] == flags


@pytest.mark.parametrize("quiver,p,bound", ORACLE_UNIVERSES)
def test_direct_sum_key_matches_the_built_direct_sum(quiver, p, bound):
    cat = catalog_build(quiver, p, bound)
    for a in cat.entries:
        for b in cat.entries:
            assert (catalog_module._direct_sum_key(a.rep, b.rep)
                    == direct_sum(a.rep, b.rep).key())


@pytest.mark.parametrize("quiver,p,bound", ORACLE_UNIVERSES)
def test_orbit_stabilizer_aut_matches_end_enumeration(quiver, p, bound):
    cat = catalog_build(quiver, p, bound)
    for i in range(len(cat)):
        assert cat.aut_order(i) == aut_order(cat.rep(i)), cat.dims(i)


@pytest.mark.parametrize("quiver,p,bound", ORACLE_UNIVERSES)
def test_classify_matches_isomorphism_search(quiver, p, bound):
    cat = catalog_build(quiver, p, bound)
    for e in cat.entries:
        for sr in enumerate_subreps(e.rep):
            for obj in (sr.sub, sr.quot):
                matches = [
                    i for i in cat.classes_with_dims(obj.dims)
                    if is_isomorphic(obj, cat.rep(i))
                ]
                assert matches == [cat.classify(obj)]


# -- the code sweep against the tuple sweep ------------------------------------

JORDAN = Quiver(1, ((0, 0),))
SINK = Quiver(3, ((0, 1), (2, 1)))

SWEEP_UNIVERSES = ORACLE_UNIVERSES + [
    pytest.param(a_n_quiver(2), 3, (3, 3), id="A2-p3-33"),
    pytest.param(a_n_quiver(2), 5, (2, 2), id="A2-p5-22"),
    pytest.param(KRONECKER, 2, (3, 2), id="kronecker-p2-32"),
    pytest.param(JORDAN, 2, (4,), id="jordan-p2-4"),
    pytest.param(JORDAN, 3, (3,), id="jordan-p3-3"),
    pytest.param(SINK, 2, (1, 3, 1), id="sink-p2-131"),
    # vertex 1 has dimension 0, so both arrow matrices are empty
    pytest.param(a_n_quiver(3), 2, (2, 0, 1), id="A3-p2-201"),
]


def assert_same_catalog(cat, ref):
    assert [e.rep.key() for e in cat.entries] == [e.rep.key() for e in ref.entries]
    assert [e.aut_order for e in cat.entries] == [e.aut_order for e in ref.entries]
    assert ([e.indecomposable for e in cat.entries]
            == [e.indecomposable for e in ref.entries])
    assert cat._labels == ref._labels


@pytest.mark.parametrize("quiver,p,bound", SWEEP_UNIVERSES)
def test_code_sweep_matches_tuple_sweep(quiver, p, bound):
    assert_same_catalog(catalog_build(quiver, p, bound),
                        tuple_sweep_catalog(quiver, p, bound))


@settings(max_examples=40, deadline=None)
@given(universe=universes())
def test_code_sweep_matches_tuple_sweep_on_random_quivers(universe):
    quiver, p, bound = universe
    assert_same_catalog(catalog_build(quiver, p, bound),
                        tuple_sweep_catalog(quiver, p, bound))


@pytest.mark.parametrize("quiver,p,bound", SWEEP_UNIVERSES + [
    # one-row arrow matrices: (3,1) must not build a two-row table
    pytest.param(a_n_quiver(2), 3, (3, 1), id="A2-p3-31"),
    pytest.param(Quiver(2, ((1, 0),)), 3, (1, 3), id="A2-arrow10-p3-13"),
])
@pytest.mark.parametrize("generators", [
    catalog_module._generators, all_transvection_generators,
], ids=["default", "all-transvections"])
def test_no_row_table_exceeds_rep_d(quiver, p, bound, generators):
    for dims in itertools.product(*(range(b + 1) for b in bound)):
        size = p ** sum(dims[s] * dims[t] for s, t in quiver.arrows)
        moves = catalog_module._compile_moves(
            quiver, p, dims, generators(quiver, p, dims))
        for move in moves:
            for blocks, pairs in move:
                for *_, n, table in blocks + pairs:
                    assert len(table) <= size, (dims, n)


def test_cap_fires_before_any_label_array_or_row_table(monkeypatch):
    # A2 p=3 (3,3): every dims before (3,3) has at most 3^6 = 729 tuples
    built = []
    compile_moves, label_orbits = (catalog_module._compile_moves,
                                   catalog_module._label_orbits)

    def recording_compile(quiver, p, dims, gens):
        built.append(("tables", dims))
        return compile_moves(quiver, p, dims, gens)

    def recording_labels(moves, size, first):
        built.append(("labels", size))
        return label_orbits(moves, size, first)

    monkeypatch.setattr(catalog_module, "_compile_moves", recording_compile)
    monkeypatch.setattr(catalog_module, "_label_orbits", recording_labels)
    with pytest.raises(EnumerationCapError, match=(
            r"catalog.build\(dims \(3,3\)\): 3\^9 = 19683 arrow-matrix "
            r"tuples exceed cap 1000")):
        catalog_build(a_n_quiver(2), 3, (3, 3), cap=1000)
    assert ("tables", (3, 3)) not in built
    assert max(size for kind, size in built if kind == "labels") == 729
    assert ("tables", (3, 2)) in built


# -- build-time invariants -----------------------------------------------------


@pytest.mark.parametrize("quiver,p,bound", [
    pytest.param(a_n_quiver(2), 2, (4, 3), id="A2-p2-43"),
    pytest.param(KRONECKER, 2, (3, 2), id="kronecker-p2-32"),
    pytest.param(Quiver(1, ((0, 0),)), 2, (4,), id="jordan-p2-4"),
    pytest.param(Quiver(1, ((0, 0),)), 3, (3,), id="jordan-p3-3"),
    pytest.param(Quiver(3, ((0, 1), (2, 1))), 2, (1, 3, 1), id="sink-p2-131"),
])
def test_adjacent_transvections_give_the_all_transvection_catalog(monkeypatch, quiver,
                                                                  p, bound):
    # the mass formula cannot catch a generating set that is too small,
    # since orbits of any subgroup still partition Rep_d: compare with the
    # catalog that every transvection builds, at dims up to 4 (the default
    # set is I + E_01 and the n-cycle from n = 3, adjacent transvections
    # below)
    cat = catalog_build(quiver, p, bound)
    assert (len(catalog_module._generators(quiver, p, bound))
            < len(all_transvection_generators(quiver, p, bound)))
    monkeypatch.setattr(catalog_module, "_generators", all_transvection_generators)
    full = catalog_build(quiver, p, bound)
    assert [e.rep.key() for e in cat.entries] == [e.rep.key() for e in full.entries]
    assert [e.aut_order for e in cat.entries] == [e.aut_order for e in full.entries]
    assert ([e.indecomposable for e in cat.entries]
            == [e.indecomposable for e in full.entries])
    assert cat._labels == full._labels


def test_orbit_size_not_dividing_gl_raises(monkeypatch):
    monkeypatch.setattr(catalog_module, "_gl_order", lambda n, p: 1)
    with pytest.raises(InvariantError, match="does not divide"):
        catalog_build(a_n_quiver(2), 3, (1, 1))


def test_overlapping_orbits_break_the_mass_formula(monkeypatch):
    # the pair (g, g^-1) = ((0), (0)) is not invertible, so its move zeroes
    # the loop entry and is no group action: the orbits of 1 and 2 both
    # swallow 0, so their sizes sum past |Rep_d| = 3
    zero = ((0,),)
    monkeypatch.setattr(
        catalog_module, "_generators", lambda q, p, dims: [(0, zero, zero)] * dims[0]
    )
    with pytest.raises(InvariantError, match="mass formula"):
        catalog_build(JORDAN, 3, (1,))


def test_in_bound_key_missing_from_table_raises():
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    with pytest.raises(InvariantError, match="missing"):
        Catalog(cat.quiver, cat.p, cat.bound, cat.entries, {})


@pytest.mark.parametrize("key, message", [
    (((1, 1), ()), "has 0 arrow matrices, the quiver 1 arrows"),
    (((1, 1), ((0,), (1,))), "has 2 arrow matrices"),
    (((1, 1), ((0, 1),)), "has 2 entries for a 1x1 arrow matrix"),
    (((1, 1), ((2,),)), "has entry 2 outside 0..1"),
    (((1, 1), ((-1,),)), "has entry -1 outside 0..1"),
    (((1, 0), ((),)), None),
], ids=["no-arrow", "two-arrows", "long-matrix", "entry-p", "entry-negative",
        "well-formed"])
def test_malformed_keys_raise_instead_of_reading_another_code(key, message):
    # the label array of dims (1, 1) has p^1 = 2 codes; a malformed key
    # must not be read as one of them
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    if message is None:
        assert [cat.classify_key(key)] == cat.classes_with_dims((1, 0))
        return
    with pytest.raises(InvariantError, match=message):
        cat.classify_key(key)


def test_keys_beyond_the_bound_leave_the_universe():
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    with pytest.raises(OutOfUniverseError, match=r"\(2, 1\) exceeds catalog bound"):
        cat.classify_key(((2, 1), ((0, 0),)))
