import pytest

from catalog_oracle import fingerprint, pairwise_catalog
from hallalg import catalog as catalog_module
from hallalg.catalog import Catalog, catalog_build
from hallalg.errors import InvariantError, OutOfUniverseError
from hallalg.fq import FqMatrix
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.reps import (
    Representation,
    aut_order,
    direct_sum,
    enumerate_subreps,
    is_isomorphic,
)

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


# -- build-time invariants -----------------------------------------------------


def test_orbit_size_not_dividing_gl_raises(monkeypatch):
    monkeypatch.setattr(catalog_module, "_gl_order", lambda n, p: 1)
    with pytest.raises(InvariantError, match="does not divide"):
        catalog_build(a_n_quiver(2), 3, (1, 1))


def test_overlapping_orbits_break_the_mass_formula(monkeypatch):
    # a move that zeroes the loop entry is no group action: the orbits of 1
    # and 2 both swallow 0, so their sizes sum past |Rep_d| = 3
    jordan = Quiver(1, ((0, 0),))
    zero_entry = ((0, ((0, 0, 2),)),)
    monkeypatch.setattr(
        catalog_module, "_generators", lambda q, p, dims: [zero_entry] * dims[0]
    )
    with pytest.raises(InvariantError, match="mass formula"):
        catalog_build(jordan, 3, (1,))


def test_in_bound_key_missing_from_table_raises():
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    with pytest.raises(InvariantError, match="missing"):
        Catalog(cat.quiver, cat.p, cat.bound, cat.entries, {})
