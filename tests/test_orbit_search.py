"""reps.orbit, the one orbit search, against the RepMorphism-composing oracle.

On the keys of every Hom(a, b) of a universe, span._orbits with the moves of
reps.composition_moves must give the same Aut(a) x Aut(b) partition, with
the same least keys in the same order, and the same Aut(a) sub-partition as
span_oracle; each move must be exactly one composition; and reps.orbit from
the identity key over aut_generators must reach all of Aut(x).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from span_oracle import morphism_orbits
from test_cone_kernel import universes
from hallalg import reps, span
from hallalg.catalog import catalog_build
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.reps import RepMorphism

KRONECKER = Quiver(2, ((0, 1), (0, 1)))

UNIVERSES = [
    pytest.param(a_n_quiver(1), 3, (3,), id="A1-p3-3"),
    pytest.param(a_n_quiver(2), 2, (2, 2), id="A2-p2-22"),
    pytest.param(a_n_quiver(2), 3, (2, 2), id="A2-p3-22"),
    pytest.param(KRONECKER, 2, (1, 1), id="kronecker-p2-11"),
]


def parts(orbits) -> set:
    return {frozenset(orbit) for _, orbit in orbits}


def check_against_oracle(cat):
    p = cat.p
    gens = [reps.aut_generators(cat.rep(i)) for i in range(len(cat))]
    for a in range(len(cat)):
        for b in range(len(cat)):
            ra, rb = cat.rep(a), cat.rep(b)
            homs = list(reps.enumerate_homs(ra, rb))

            for h in gens[b]:
                moves = reps.composition_moves([h], (), ra.dims, rb.dims)
                for f in homs:
                    got = reps.act(f.key(), moves[0], p) if moves else f.key()
                    assert got == h.compose(f).key(), (a, b)
            for g in gens[a]:
                moves = reps.composition_moves((), [g], ra.dims, rb.dims)
                for f in homs:
                    got = reps.act(f.key(), moves[0], p) if moves else f.key()
                    assert got == f.compose(g).key(), (a, b)

            both = reps.composition_moves(gens[b], gens[a], ra.dims, rb.dims)
            pre = reps.composition_moves((), gens[a], ra.dims, rb.dims)
            got = span._orbits([f.key() for f in homs], both, p)
            want = morphism_orbits(homs, gens[b], gens[a])
            assert [k for k, _ in got] == [k for k, _ in want], (a, b)
            assert parts(got) == parts(want), (a, b)
            got_sub = set().union(*(parts(span._orbits(o, pre, p)) for _, o in got))
            want_sub = set().union(
                *(parts(morphism_orbits(o.values(), [], gens[a])) for _, o in want))
            assert got_sub == want_sub, (a, b)


@pytest.mark.parametrize("quiver,p,bound", UNIVERSES)
def test_hom_partitions_match_the_morphism_oracle(quiver, p, bound):
    check_against_oracle(catalog_build(quiver, p, bound))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(universe=universes())
def test_hom_partitions_match_the_morphism_oracle_on_random_quivers(universe):
    quiver, p, bound = universe
    check_against_oracle(catalog_build(quiver, p, bound))


@pytest.mark.parametrize("quiver,p,bound", UNIVERSES)
def test_generator_closure_is_the_automorphism_group(quiver, p, bound):
    cat = catalog_build(quiver, p, bound)
    for e in cat.entries:
        x = e.rep
        gens = reps.aut_generators(x)
        ident = RepMorphism.identity(x).key()
        group = {g.key() for g in reps.aut_elements(x)}
        for left, right in ((gens, ()), ((), gens)):
            moves = reps.composition_moves(left, right, x.dims, x.dims)
            assert reps.orbit(ident, moves, p) == group, e.index
