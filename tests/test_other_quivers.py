"""Universes beyond A_1 and A_2: parallel arrows, longer chains, a loop.

These exercise the intertwining systems, catalog deduplication and the
verification sweeps on structurally different quivers.
"""

import pytest

from hallalg.catalog import catalog_build
from hallalg.errors import InputError
from hallalg.hall import HallContext
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.reps import ext1_dim
from hallalg.span import build_span_model
from hallalg.verify import verify_suite


@pytest.fixture(scope="module")
def kronecker():
    # two parallel arrows 0 -> 1
    return Quiver(2, ((0, 1), (0, 1)))


@pytest.fixture(scope="module")
def jordan():
    # a single loop
    return Quiver(1, ((0, 0),))


def test_kronecker_catalog(kronecker):
    cat = catalog_build(kronecker, 2, (1, 1))
    # dims (1,1): arrow pairs (a, b) in F_2^2, trivial unit action: 4 classes
    assert len(cat.classes_with_dims((1, 1))) == 4
    assert len(cat) == 7
    # the three nonzero arrow pairs are the indecomposables of dim (1,1)
    indec_11 = [
        i for i in cat.classes_with_dims((1, 1)) if cat.entries[i].indecomposable
    ]
    assert len(indec_11) == 3


def test_kronecker_classical_suite(kronecker):
    ctx = HallContext("classical", catalog_build(kronecker, 2, (1, 1)))
    span = build_span_model(ctx)
    report = verify_suite(ctx, span=span)
    for name, check in report["checks"].items():
        if check["status"] == "skipped":
            continue
        assert check["status"] == "pass", (name, check["failures"][:2])


def test_kronecker_derived_suite(kronecker):
    cat = catalog_build(kronecker, 2, (1, 1))
    ctx = HallContext("derived", cat, window=(0, 1))
    report = verify_suite(ctx, checks=("unit", "assoc", "stalk"))
    for name, check in report["checks"].items():
        assert check["status"] == "pass", (name, check["failures"][:2])


def test_kronecker_fingerprints_separate_classes(kronecker):
    # three pairwise non-isomorphic indecomposables share dims (1,1);
    # the Hom-fingerprints must still separate them exactly
    from catalog_oracle import fingerprint
    from hallalg.reps import is_isomorphic

    cat = catalog_build(kronecker, 2, (1, 1))
    for a in range(len(cat)):
        for b in range(len(cat)):
            same_fp = (
                cat.dims(a) == cat.dims(b)
                and fingerprint(cat, a) == fingerprint(cat, b)
            )
            assert same_fp == is_isomorphic(cat.rep(a), cat.rep(b))


def test_kronecker_euler_form(kronecker):
    cat = catalog_build(kronecker, 2, (1, 1))
    # <d, e> = d1 e1 + d2 e2 - 2 d1 e2 for two parallel arrows
    s1 = cat.classes_with_dims((1, 0))[0]
    s2 = cat.classes_with_dims((0, 1))[0]
    assert cat.hom_dim(s1, s2) == 0
    assert cat.ext1_dim(s1, s2) == 2
    assert cat.ext1_dim(s2, s1) == 0


def test_a3_classical_suite():
    ctx = HallContext("classical", catalog_build(a_n_quiver(3), 2, (1, 1, 1)))
    span = build_span_model(ctx)
    report = verify_suite(ctx, span=span)
    for name, check in report["checks"].items():
        if check["status"] == "skipped":
            continue
        assert check["status"] == "pass", (name, check["failures"][:2])


def test_a3_catalog_counts():
    cat = catalog_build(a_n_quiver(3), 2, (1, 1, 1))
    # indecomposables of the A_3 chain are the six intervals
    assert sum(1 for e in cat.entries if e.indecomposable) == 6


def test_a3_derived_stalk_agreement():
    cat = catalog_build(a_n_quiver(3), 2, (1, 1, 1))
    ctx = HallContext("derived", cat, window=(0, 0))
    report = verify_suite(ctx, checks=("stalk",))
    assert report["checks"]["stalk"]["status"] == "pass"
    assert report["checks"]["stalk"]["cases"] > 0


def test_jordan_quiver_classical(jordan):
    # the abelian machinery accepts loops; with dim <= 1 this is the
    # nilpotent-vs-invertible split at the one-dimensional level
    cat = catalog_build(jordan, 2, (1,))
    assert len(cat) == 3  # zero, (F, 0), (F, 1)
    ctx = HallContext("classical", cat)
    span = build_span_model(ctx)
    report = verify_suite(ctx, span=span)
    for name, check in report["checks"].items():
        if check["status"] == "skipped":
            continue
        assert check["status"] == "pass", (name, check["failures"][:2])


def test_jordan_quiver_rejects_derived(jordan):
    cat = catalog_build(jordan, 2, (1,))
    with pytest.raises(InputError):
        HallContext("derived", cat, window=(0, 0))


def test_jordan_quiver_rejects_ext1(jordan):
    # ext1 needs the two-term projective resolution of a finite-dimensional
    # path algebra, which needs acyclicity
    cat = catalog_build(jordan, 2, (1,))
    with pytest.raises(InputError):
        ext1_dim(cat.rep(1), cat.rep(1))
