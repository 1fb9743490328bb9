"""reps.hom_keys, the vertex-by-vertex walk of Hom(x, y), against the
RepMorphism oracle.

With any_block the walk must yield the keys of hom_oracle.homs_by_addition
element for element, each valued by itself, in strictly ascending order;
with column_space exactly the injective oracle elements, valued by
RepMorphism.image_key, and with row_kernel exactly the surjective ones,
valued by RepMorphism.kernel_key, in the same order; and it must raise the
same cap error when it is called.  The per-vertex memos that the walk
prunes by are checked against a fresh FqMatrix elimination on every small
block, and the pruning itself by counting column_space calls.
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
from hallalg.hall import HallContext, mono_keys
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
        f"hom_keys(dims {x.dims} -> {y.dims}): |Hom| = {x.p}**{d} "
        f"exceeds cap {x.p ** d - 1}"
    ) + "$"


def check_pair(x, y):
    want = list(homs_by_addition(x, y))
    keys = [f.key() for f in want]
    assert list(reps.hom_keys(x, y, reps.any_block)) == [(k, k) for k in keys]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert [f.key() for f in reps.enumerate_homs(x, y)] == keys
    assert list(reps.hom_keys(x, y, reps.column_space)) == [
        (f.key(), f.image_key()) for f in want if f.is_injective()]
    assert list(reps.hom_keys(x, y, reps.row_kernel)) == [
        (f.key(), f.kernel_key()) for f in want if f.is_surjective()]
    # the cap is checked at call time, before any key is asked for
    if reps.hom_dim(x, y):
        with pytest.raises(EnumerationCapError, match="^" + cap_message(x, y)):
            reps.hom_keys(x, y, reps.any_block, cap=x.p ** reps.hom_dim(x, y) - 1)
    reps.hom_keys(x, y, reps.any_block, cap=x.p ** reps.hom_dim(x, y))


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
                       match=r"^hom_keys\(dims \(1, 1\) -> \(1, 1\)\): "
                             r"\|Hom\| = 2\*\*1 exceeds cap 1$"):
        reps.hom_keys(m, m, reps.any_block, cap=1)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_hom_keys_on_a_deep_basis(p, n):
    # End(S^n) on one vertex has n^2 basis elements and p^(n^2) elements
    # (512 and 81), each a sum over every level of the enumeration
    x = catalog_build(a_n_quiver(1), p, (n,)).rep(n)
    assert x.dims == (n,)
    assert [k for k, _ in reps.hom_keys(x, x, reps.any_block)] == [
        f.key() for f in homs_by_addition(x, x)]


def test_hom_keys_of_a_zero_hom_space():
    # Hom(S_0, S_1) = 0 on A2: one key, the zero map, with no basis steps
    cat = catalog_build(a_n_quiver(2), 3, (1, 1))
    x, y = (next(cat.rep(i) for i in range(len(cat)) if cat.dims(i) == dims)
            for dims in ((1, 0), (0, 1)))
    assert reps.hom_dim(x, y) == 0
    assert list(reps.hom_keys(x, y, reps.any_block)) == [(((), ()), ((), ()))]
    assert [k for k, _ in reps.hom_keys(x, y, reps.any_block)] == [
        f.key() for f in homs_by_addition(x, y)]
    with pytest.raises(EnumerationCapError, match="^" + cap_message(x, y)):
        reps.hom_keys(x, y, reps.any_block, cap=0)


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


def test_the_mono_walk_prunes_at_the_first_failing_block(monkeypatch):
    # The walk reads each distinct block prefix of Hom(a, b) once and reads
    # nothing below a block of rank less than its width: one column_space
    # call per prefix key[:v + 1] whose first v blocks are injective, 7,291
    # over the pairs whose monos mono_keys walks on A3 p=2 (2,2,1).  A
    # key-by-key sweep reads up to 3 blocks for each of their 8,986 keys.
    ctx = HallContext("classical", catalog_build(a_n_quiver(3), 2, (2, 2, 1)))
    cat = ctx.catalog
    pairs = [(a, b) for a in range(len(cat)) for b in range(len(cat))
             if all(da <= db for da, db in zip(cat.dims(a), cat.dims(b)))]
    prefixes = set()
    homs = 0
    for a, b in pairs:
        for f in homs_by_addition(cat.rep(a), cat.rep(b)):
            homs += 1
            for v, m in enumerate(f.mats):
                prefixes.add((a, b, f.key()[:v + 1]))
                if m.rank() < m.cols:
                    break
    assert homs == 8986
    calls = []
    real = reps.column_space

    def counting(p, cols, rows, block):
        calls.append(block)
        return real(p, cols, rows, block)

    monkeypatch.setattr(reps, "column_space", counting)
    monos = sum(len(ks) for a, b in pairs for ks in mono_keys(ctx, a, b).values())
    assert monos > 0
    assert len(calls) == len(prefixes) < 3 * homs
