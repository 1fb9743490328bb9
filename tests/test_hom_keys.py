"""reps.hom_keys and the raw-entry rank tests against the RepMorphism oracle.

hom_keys must yield the keys of hom_oracle.homs_by_addition element for
element and in order, raise the same cap error when it is called, and the
rank tests on raw entries (injective and invertible, and the image key of a
mono and the kernel key of an epi, None on the other elements) must agree
with the RepMorphism methods on every element.  The per-vertex memos that
those rank tests read are checked against a fresh FqMatrix elimination on
every small block.
"""

import itertools
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings

from hom_oracle import homs_by_addition
from test_cone_kernel import universes
from hallalg import reps
from hallalg.catalog import catalog_build
from hallalg.errors import EnumerationCapError
from hallalg.fq import FqMatrix
from hallalg.quivers import Quiver, a_n_quiver

KRONECKER = Quiver(2, ((0, 1), (0, 1)))

UNIVERSES = [
    pytest.param(a_n_quiver(2), 2, (2, 2), id="A2-p2-22"),
    pytest.param(a_n_quiver(2), 3, (2, 2), id="A2-p3-22"),
    pytest.param(a_n_quiver(3), 2, (1, 1, 1), id="A3-p2-111"),
    pytest.param(KRONECKER, 2, (2, 1), id="kronecker-p2-21"),
]


def cap_message(x, y):
    d = reps.hom_dim(x, y)
    return re.escape(
        f"enumerate_homs(dims {x.dims} -> {y.dims}): |Hom| = {x.p}**{d} "
        f"exceeds cap {x.p ** d - 1}"
    ) + "$"


def check_pair(x, y):
    want = list(homs_by_addition(x, y))
    got = list(reps.hom_keys(x, y))
    assert got == [f.key() for f in want]
    assert [f.key() for f in reps.enumerate_homs(x, y)] == got
    for k, f in zip(got, want):
        assert reps.key_is_injective(x, y, k) == f.is_injective()
        assert reps.key_is_invertible(x, y, k) == f.is_invertible()
        assert reps.mono_image_key(x, y, k) == (
            f.image_key() if f.is_injective() else None)
        assert reps.epi_kernel_key(x, y, k) == (
            f.kernel_key() if f.is_surjective() else None)
    # the cap is checked at call time, before any key is asked for
    if reps.hom_dim(x, y):
        with pytest.raises(EnumerationCapError, match="^" + cap_message(x, y)):
            reps.hom_keys(x, y, cap=x.p ** reps.hom_dim(x, y) - 1)
    reps.hom_keys(x, y, cap=x.p ** reps.hom_dim(x, y))


def check_catalog(cat):
    for a in range(len(cat)):
        for b in range(len(cat)):
            check_pair(cat.rep(a), cat.rep(b))
        x = cat.rep(a)
        assert [g.key() for g in reps.aut_elements(x)] == [
            f.key() for f in homs_by_addition(x, x) if f.is_invertible()]


@pytest.mark.parametrize("quiver,p,bound", UNIVERSES)
def test_hom_keys_match_the_morphism_oracle(quiver, p, bound):
    check_catalog(catalog_build(quiver, p, bound))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(universe=universes())
def test_hom_keys_match_the_morphism_oracle_on_random_quivers(universe):
    quiver, p, bound = universe
    check_catalog(catalog_build(quiver, p, bound))


def test_hom_keys_cap_message():
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    m = cat.rep(4)
    with pytest.raises(EnumerationCapError,
                       match=r"^enumerate_homs\(dims \(1, 1\) -> \(1, 1\)\): "
                             r"\|Hom\| = 2\*\*1 exceeds cap 1$"):
        reps.hom_keys(m, m, cap=1)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_hom_keys_on_a_deep_basis(p, n):
    # End(S^n) on one vertex has n^2 basis elements and p^(n^2) elements
    # (512 and 81), each a sum over every level of the enumeration
    x = catalog_build(a_n_quiver(1), p, (n,)).rep(n)
    assert x.dims == (n,)
    assert list(reps.hom_keys(x, x)) == [f.key() for f in homs_by_addition(x, x)]


def test_hom_keys_of_a_zero_hom_space():
    # Hom(S_0, S_1) = 0 on A2: one key, the zero map, with no basis steps
    cat = catalog_build(a_n_quiver(2), 3, (1, 1))
    x, y = (next(cat.rep(i) for i in range(len(cat)) if cat.dims(i) == dims)
            for dims in ((1, 0), (0, 1)))
    assert reps.hom_dim(x, y) == 0
    assert list(reps.hom_keys(x, y)) == [((), ())]
    assert list(reps.hom_keys(x, y)) == [f.key() for f in homs_by_addition(x, y)]
    with pytest.raises(EnumerationCapError, match="^" + cap_message(x, y)):
        reps.hom_keys(x, y, cap=0)


def memo_oracle(p, rows, cols, data):
    """(column space or None, kernel or None) of the rows x cols matrix by a
    fresh FqMatrix elimination."""
    m = FqMatrix(p, rows, cols, data)
    rank = m.rank()
    return (m.column_space_basis().data if rank == cols else None,
            m.kernel_basis().row_space_basis().data if rank == rows else None)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_block_memos_match_fqmatrix_on_every_small_block(p, n):
    for rows, cols in itertools.product(range(n + 1), repeat=2):
        for data in itertools.product(range(p), repeat=rows * cols):
            image, kernel = memo_oracle(p, rows, cols, data)
            assert reps.column_space(p, cols, rows, data) == image
            assert reps.row_kernel(p, cols, rows, data) == kernel


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_memo_verdicts_match_fqmatrix_rank(p):
    rng = random.Random(p)
    for _ in range(300):
        rows, cols = rng.randrange(5), rng.randrange(5)
        data = tuple(rng.randrange(p) if rng.random() < 0.6 else 0
                     for _ in range(rows * cols))
        rank = FqMatrix(p, rows, cols, data).rank()
        assert (reps.column_space(p, cols, rows, data) is not None) == (rank == cols)
        assert (reps.row_kernel(p, cols, rows, data) is not None) == (rank == rows)
