import dataclasses
import itertools
import pickle

import pytest

from hallalg.catalog import catalog_build
from hallalg.derived import (
    ChainMap,
    Complex,
    DerivedClass,
    augmentation_map,
    derived_class_of,
    ext_dim,
    hom_block,
    hom_class_table,
    homology,
    mapping_cone,
    module_dim,
    projective_realization,
    stalk_realization,
)
from hallalg.errors import InputError
from hallalg.fq import FqMatrix
from hallalg.hall import HallContext
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.reps import RepMorphism, is_isomorphic


@pytest.fixture(scope="module")
def a2_cat():
    return catalog_build(a_n_quiver(2), 2, (1, 1))


@pytest.fixture(scope="module")
def a1_cat():
    return catalog_build(a_n_quiver(1), 2, (2,))


def cls_of(cat, dims, indec=None):
    for e in cat.entries:
        if e.dims == dims and (indec is None or e.indecomposable == indec):
            return e.index
    raise AssertionError(f"no class with dims {dims}")


def test_homology_of_stalk(a2_cat):
    m = a2_cat.rep(cls_of(a2_cat, (1, 1), indec=True))
    c = Complex.stalk(m, 0)
    h = homology(c)
    assert len(h) == 1
    assert h[0][0] == 0
    assert is_isomorphic(h[0][1], m)


def test_homology_of_exact_complex(a2_cat):
    m = a2_cat.rep(cls_of(a2_cat, (1, 1), indec=True))
    ident = RepMorphism.identity(m)
    c = Complex(m.quiver, 2, 0, (m, m), (ident,))
    assert homology(c) == []


def test_homology_of_inclusion_complex(a2_cat):
    # 0 -> S_2 -> P_1 -> 0 in degrees -1, 0 has H^0 = S_1 and H^-1 = 0
    s2 = a2_cat.rep(cls_of(a2_cat, (0, 1)))
    p1 = a2_cat.rep(cls_of(a2_cat, (1, 1), indec=True))
    incl = RepMorphism(s2, p1, (FqMatrix(2, 1, 0, ()), FqMatrix(2, 1, 1, (1,))))
    c = Complex(s2.quiver, 2, -1, (s2, p1), (incl,))
    h = homology(c)
    assert len(h) == 1
    assert h[0][0] == 0
    assert is_isomorphic(h[0][1], a2_cat.rep(cls_of(a2_cat, (1, 0))))


def test_derived_class_of_stalk_and_shift(a2_cat):
    idx = cls_of(a2_cat, (1, 0))
    c = Complex.stalk(a2_cat.rep(idx), 0)
    assert derived_class_of(c, a2_cat) == DerivedClass.from_module(idx)
    shifted = c.shift(1)
    assert derived_class_of(shifted, a2_cat) == DerivedClass(((-1, idx),))


def test_cone_of_zero_map_is_shifted_sum(a2_cat):
    i1 = cls_of(a2_cat, (1, 0))
    i2 = cls_of(a2_cat, (0, 1))
    x = Complex.stalk(a2_cat.rep(i1), 0)
    z = Complex.stalk(a2_cat.rep(i2), 0)
    f = ChainMap(x, z, {0: RepMorphism.zero(x.rep(0), z.rep(0))})
    cone = mapping_cone(f)
    assert derived_class_of(cone, a2_cat) == DerivedClass(((-1, i1), (0, i2)))


def test_cone_of_identity_is_zero(a2_cat):
    idx = cls_of(a2_cat, (1, 1), indec=True)
    m = a2_cat.rep(idx)
    c = Complex.stalk(m, 0)
    f = ChainMap(c, c, {0: RepMorphism.identity(m)})
    assert derived_class_of(mapping_cone(f), a2_cat) == DerivedClass.zero()


def test_cone_of_module_map_is_ker_shift_plus_coker(a2_cat):
    # projection P_1 ->> S_1 has kernel S_2: cone = S_2[1] (+) 0
    p1 = a2_cat.rep(cls_of(a2_cat, (1, 1), indec=True))
    s1 = a2_cat.rep(cls_of(a2_cat, (1, 0)))
    proj = RepMorphism(p1, s1, (FqMatrix(2, 1, 1, (1,)), FqMatrix(2, 0, 1, ())))
    f = ChainMap(Complex.stalk(p1), Complex.stalk(s1), {0: proj})
    got = derived_class_of(mapping_cone(f), a2_cat)
    assert got == DerivedClass(((-1, cls_of(a2_cat, (0, 1))),))


def test_hom_classes_count_matches_ext(a2_cat):
    s1 = DerivedClass.from_module(cls_of(a2_cat, (1, 0)))
    s2 = DerivedClass.from_module(cls_of(a2_cat, (0, 1)))
    # |Hom_D(S_1, S_2[1])| = |Ext^1(S_1, S_2)| = 2
    shifted = s2.shift(1)
    table = hom_class_table(a2_cat, s1, shifted)
    classes = [table.lift(v) for v in table.class_vectors()]
    assert len(classes) == 2
    i1 = cls_of(a2_cat, (1, 0))
    i2 = cls_of(a2_cat, (0, 1))
    assert a2_cat.ext1_dim(i1, i2) == 1


def test_hom_class_representatives_pairwise_non_homotopic(a2_cat):
    i1 = cls_of(a2_cat, (1, 0))
    ip = cls_of(a2_cat, (1, 1), indec=True)
    pairs = [
        (DerivedClass.from_module(i1), DerivedClass.from_module(ip)),
        (DerivedClass.from_module(ip), DerivedClass(((-1, i1), (0, ip)))),
    ]
    for x, z in pairs:
        table = hom_class_table(a2_cat, x, z)
        keys = [table.canon(v) for v in table.class_vectors()]
        assert len(keys) == len(set(keys)) == table.count


def test_hom_classes_negative_shift_only_zero(a1_cat):
    v1 = DerivedClass.from_module(cls_of(a1_cat, (1,)))
    table = hom_class_table(a1_cat, v1, v1.shift(-1))
    classes = [table.lift(v) for v in table.class_vectors()]
    assert len(classes) == 1
    assert classes[0].is_zero()


def test_hom_classes_self_contains_identity_class(a2_cat):
    idx = cls_of(a2_cat, (1, 1), indec=True)
    x = DerivedClass.from_module(idx)
    table = hom_class_table(a2_cat, x, x)
    aug = augmentation_map(a2_cat, x)
    canon_aug = table.canon(table.vector_of(aug))
    keys = {table.canon(v) for v in table.class_vectors()}
    assert canon_aug in keys
    # and its cone is the zero object (it is an isomorphism in the homotopy category)
    assert derived_class_of(mapping_cone(aug), a2_cat) == DerivedClass.zero()


def test_ext_dim_module_cases(a2_cat):
    i1 = cls_of(a2_cat, (1, 0))
    i2 = cls_of(a2_cat, (0, 1))
    ip = cls_of(a2_cat, (1, 1), indec=True)
    s1 = DerivedClass.from_module(i1)
    s2 = DerivedClass.from_module(i2)
    p1 = DerivedClass.from_module(ip)
    # negative ext between module stalks vanish
    for i in (-1, -2, -3):
        assert ext_dim(s1, s2, i, a2_cat) == 0
        assert ext_dim(p1, p1, i, a2_cat) == 0
    # i = 0 is End
    assert ext_dim(p1, p1, 0, a2_cat) == a2_cat.hom_dim(ip, ip)
    # i = 1 agrees with the abelian Ext^1 oracle
    for a in (i1, i2, ip):
        for b in (i1, i2, ip):
            assert (
                ext_dim(
                    DerivedClass.from_module(a),
                    DerivedClass.from_module(b),
                    1,
                    a2_cat,
                )
                == a2_cat.ext1_dim(a, b)
            )


def test_ext_dim_shift_compatibility(a2_cat):
    i1 = cls_of(a2_cat, (1, 0))
    i2 = cls_of(a2_cat, (0, 1))
    x = DerivedClass(((-1, i2), (0, i1)))
    z = DerivedClass(((0, i2), (1, i1)))
    for i in range(-3, 4):
        base = ext_dim(x, z, i, a2_cat)
        for k in (-1, 1, 2):
            assert ext_dim(x.shift(k), z.shift(k), i, a2_cat) == base
        assert ext_dim(x, z.shift(i), 0, a2_cat) == base


def test_ext_dim_vanishes_outside_band(a2_cat):
    # window span 2 (degrees -1..1): band is [-3, 3]
    classes = [
        DerivedClass.zero(),
        DerivedClass.from_module(cls_of(a2_cat, (1, 0)), -1),
        DerivedClass(((0, cls_of(a2_cat, (0, 1))), (1, cls_of(a2_cat, (1, 0))))),
    ]
    for x in classes:
        for z in classes:
            for i in (-5, -4, 4, 5):
                assert ext_dim(x, z, i, a2_cat) == 0


@pytest.mark.parametrize("quiver, p, bound", [
    (a_n_quiver(2), 2, (1, 1)),
    (a_n_quiver(2), 3, (2, 2)),
    (Quiver(2, ((0, 1), (0, 1))), 2, (1, 1)),
], ids=["A2-p2-11", "A2-p3-22", "Kronecker-p2-11"])
def test_chain_route_block_dims_equal_module_dim(quiver, p, bound):
    # ext_dim and the Ext factors read module_dim and solve no chain map, so
    # the chain-map solve of each (a, b, k) stays under test here, also at
    # the shifts where heredity says it vanishes
    cat = catalog_build(quiver, p, bound)
    nonzero = [e.index for e in cat.entries if not e.rep.is_zero()]
    for a, b in itertools.product(nonzero, repeat=2):
        for k in range(-3, 4):
            assert hom_block(cat, a, b, k).dim == module_dim(cat, a, b, k), (a, b, k)


def test_hereditary_sanity_roundtrip(a2_cat):
    # a complex is quasi-isomorphic to its homology with zero differentials
    s2 = a2_cat.rep(cls_of(a2_cat, (0, 1)))
    p1 = a2_cat.rep(cls_of(a2_cat, (1, 1), indec=True))
    incl = RepMorphism(s2, p1, (FqMatrix(2, 1, 0, ()), FqMatrix(2, 1, 1, (1,))))
    c = Complex(s2.quiver, 2, -1, (s2, p1), (incl,))
    dc = derived_class_of(c, a2_cat)
    assert derived_class_of(stalk_realization(a2_cat, dc), a2_cat) == dc


def test_projective_realization_is_quasi_isomorphic(a2_cat):
    for dc in [
        DerivedClass.from_module(cls_of(a2_cat, (1, 0))),
        DerivedClass(((-1, cls_of(a2_cat, (1, 1), indec=True)),
                      (1, cls_of(a2_cat, (0, 1))))),
    ]:
        P = projective_realization(a2_cat, dc)
        assert derived_class_of(P, a2_cat) == dc


def test_homotopy_invariance_of_cone_classes(a2_cat):
    # perturbing a chain map by any null-homotopy boundary must not change
    # the derived class of its cone; sweep pairs until 60 nontrivial checks
    import itertools

    nonzero = [e.index for e in a2_cat.entries if not e.rep.is_zero()]
    classes = []
    for c_m1 in [None] + nonzero:
        for c_0 in [None] + nonzero:
            entries = []
            if c_m1 is not None:
                entries.append((-1, c_m1))
            if c_0 is not None:
                entries.append((0, c_0))
            classes.append(DerivedClass(tuple(entries)))
    checked = 0
    for x, z in itertools.product(classes, classes):
        table = hom_class_table(a2_cat, x, z)
        null_vectors = [v for v in table.null.basis() if any(v)]
        if not null_vectors:
            continue
        perturbations = []
        for coeffs in itertools.product(range(2), repeat=len(null_vectors)):
            if not any(coeffs):
                continue
            vec = [0] * table.space.total
            for c, b in zip(coeffs, null_vectors):
                if c:
                    for j, val in enumerate(b):
                        vec[j] = (vec[j] + val) % 2
            perturbations.append(tuple(vec))
        for vec in table.class_vectors():
            base = derived_class_of(
                mapping_cone(table.lift(vec)), a2_cat, strict=False
            )
            for pert in perturbations:
                moved = tuple((a + b) % 2 for a, b in zip(vec, pert))
                got = derived_class_of(
                    mapping_cone(table.lift(moved)), a2_cat, strict=False
                )
                assert got == base
                checked += 1
        if checked >= 60:
            break
    assert checked >= 60


@dataclasses.dataclass(frozen=True, order=True)
class DataclassTwin:
    """What DerivedClass was: a frozen ordered dataclass of its entries, the
    oracle of its value semantics."""

    entries: tuple


def test_derived_class_compares_and_hashes_as_its_entries(a2_cat):
    ctx = HallContext("derived", a2_cat, window=(-1, 1))
    keys = ctx.basis_keys()
    assert len(keys) == 125
    # the basis order is the order of the entries, and of the dataclass
    assert keys == sorted(keys) == sorted(reversed(keys))
    assert [k.entries for k in keys] == sorted(k.entries for k in keys)
    assert [k.entries for k in keys] == [t.entries for t in sorted(
        DataclassTwin(k.entries) for k in reversed(keys))]
    copies = [DerivedClass(k.entries) for k in keys]
    for a, b in itertools.product(keys, copies):
        ea, eb = a.entries, b.entries
        assert (a == b) == (ea == eb) and (a != b) == (ea != eb)
        assert (a < b) == (ea < eb) and (a <= b) == (ea <= eb)
        assert (a > b) == (ea > eb) and (a >= b) == (ea >= eb)
    for a, b in zip(keys, copies):
        # the hash of the dataclass, so sets and dicts of keys iterate alike
        assert hash(a) == hash(b) == hash(DataclassTwin(a.entries))
    assert len(set(keys) | set(copies)) == len(keys)
    assert pickle.loads(pickle.dumps(keys)) == keys


def test_derived_class_is_frozen_and_validated():
    dc = DerivedClass(((-1, 1), (0, 2)))
    assert repr(dc) == "DerivedClass(entries=((-1, 1), (0, 2)))"
    assert repr(DerivedClass.zero()) == "DerivedClass(entries=())"
    with pytest.raises(dataclasses.FrozenInstanceError):
        dc.entries = ()
    with pytest.raises(AttributeError):
        dc.other = 1
    with pytest.raises(AttributeError):
        del dc.entries
    assert dc.entries == ((-1, 1), (0, 2))
    # other types are not derived classes
    assert dc != dc.entries and not dc == DataclassTwin(dc.entries)
    with pytest.raises(TypeError):
        dc < dc.entries
    for entries in (((1, 1), (0, 2)), ((0, 1), (0, 2)), ((0, 1), (2, 1), (1, 2))):
        with pytest.raises(InputError, match="sorted, one per degree"):
            DerivedClass(entries)
