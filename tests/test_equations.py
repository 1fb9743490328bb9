"""The solved equation systems against brute force.

hom_basis and chain_map_space solve the equations that fq.intertwining_rows
builds with fq.kernel_rows.  On random acyclic quivers (at most 3 vertices,
parallel arrows allowed, p in {2, 3}, dimensions at most 2) every vector of
the unknowns' space is tried when there are few enough of them: the span of
the computed basis must be exactly the vectors that pass validation.
hom_basis must also be the reduced echelon basis of that span, with
ascending pivots, which reps.hom_keys walks by.
"""

import itertools

from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from hallalg.catalog import catalog_build
from hallalg.derived import (
    ChainMap,
    DerivedClass,
    chain_map_space,
    homotopy_boundaries,
    projective_realization,
    stalk_realization,
)
from hallalg.errors import InputError
from hallalg.fq import FqMatrix, RowSpace, intertwining_rows, kernel_rows
from hallalg.quivers import Quiver
from hallalg.reps import Representation, RepMorphism, hom_basis, morphism_from_flat

BRUTE_FORCE_LIMIT = 4096


@st.composite
def quivers(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return Quiver(n, tuple((order[s], order[t]) for s, t in arrows)), draw(st.sampled_from((2, 3)))


def representations(draw, quiver, p):
    dims = tuple(draw(st.lists(st.integers(0, 2), min_size=quiver.vertex_count,
                               max_size=quiver.vertex_count)))
    mats = []
    for s, t in quiver.arrows:
        size = dims[t] * dims[s]
        data = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
        mats.append(FqMatrix(p, dims[t], dims[s], data))
    return Representation(quiver, p, dims, mats)


def span(p, basis, total):
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        out.add(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) % p
                      for j in range(total)))
    return out


def is_valid(build):
    try:
        build()
    except InputError:
        return False
    return True


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_hom_basis_spans_exactly_the_intertwiners(data):
    quiver, p = data.draw(quivers())
    x = representations(data.draw, quiver, p)
    y = representations(data.draw, quiver, p)
    basis = list(hom_basis(x, y))
    total = sum(a * b for a, b in zip(x.dims, y.dims))
    for flat in basis:
        mats = morphism_from_flat(x, y, flat).mats
        assert is_valid(lambda: RepMorphism(x, y, mats, validate=True))
    assert FqMatrix.from_rows(p, basis, total).rank() == len(basis)
    if p ** total <= BRUTE_FORCE_LIMIT:
        got = span(p, basis, total)
        want = {
            flat for flat in itertools.product(range(p), repeat=total)
            if is_valid(lambda: RepMorphism(
                x, y, morphism_from_flat(x, y, flat).mats, validate=True))
        }
        assert got == want
        event(f"brute force, Hom dim {len(basis)}")


def kernel_basis(x, y):
    """A basis of the intertwiners x -> y solved with the columns in their
    own order, as hom_basis solved them before it was put in echelon form."""
    offsets = [0]
    for a, b in zip(x.dims, y.dims):
        offsets.append(offsets[-1] + a * b)
    rows = []
    for idx, (s, t) in enumerate(x.quiver.arrows):
        rows += intertwining_rows(offsets[-1], offsets[t], x.mats[idx],
                                  offsets[s], y.mats[idx])
    return kernel_rows(x.p, rows, offsets[-1])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_hom_basis_is_the_reduced_echelon_basis(data):
    quiver, p = data.draw(quivers())
    x = representations(data.draw, quiver, p)
    y = representations(data.draw, quiver, p)
    basis = hom_basis(x, y)
    pivots = [next(j for j, a in enumerate(row) if a) for row in basis]
    assert pivots == sorted(set(pivots))
    for row in basis:
        assert [row[j] for j in pivots] == [int(row is r) for r in basis]
    space = RowSpace(p, sum(a * b for a, b in zip(x.dims, y.dims)))
    for row in kernel_basis(x, y):
        space.add(row)
    assert [tuple(r) for r in space.rows] == list(basis)
    event(f"Hom dim {len(basis)}")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_chain_map_space_spans_exactly_the_chain_maps(data):
    quiver, p = data.draw(quivers())
    bound = tuple(data.draw(st.lists(st.integers(0, 2), min_size=quiver.vertex_count,
                                     max_size=quiver.vertex_count)))
    # keep the catalog build small: at most p^6 arrow-matrix tuples
    assume(sum(bound[s] * bound[t] for s, t in quiver.arrows) <= 6)
    cat = catalog_build(quiver, p, bound)
    modules = [i for i in range(len(cat)) if not cat.rep(i).is_zero()]
    # complexes with zero, one or two module summands in degrees -1 and 0
    classes = [DerivedClass.zero()] + [
        DerivedClass(tuple(entries))
        for n in (1, 2) for degs in itertools.combinations((-1, 0), n)
        for idx in itertools.product(modules, repeat=n)
        for entries in [zip(degs, idx)]
    ]
    x = data.draw(st.sampled_from(classes))
    z = data.draw(st.sampled_from(classes))
    P = projective_realization(cat, x)
    for X, Z in ((P, stalk_realization(cat, z)), (P, P)):
        gs, basis = chain_map_space(X, Z)
        for vec in basis:
            assert is_valid(lambda: ChainMap(X, Z, gs.unflatten(vec), validate=True))
        # null-homotopic maps are chain maps too
        for vec in homotopy_boundaries(X, Z, gs):
            assert is_valid(lambda: ChainMap(X, Z, gs.unflatten(vec), validate=True))
        assert FqMatrix.from_rows(p, basis, gs.total).rank() == len(basis)
        if p ** gs.total <= BRUTE_FORCE_LIMIT:
            got = span(p, basis, gs.total)
            want = {
                vec for vec in itertools.product(range(p), repeat=gs.total)
                if is_valid(lambda: ChainMap(X, Z, gs.unflatten(vec), validate=True))
            }
            assert got == want
            event(f"brute force, chain map dim {len(basis)}")
