"""reps.orbit, the one orbit search, against the RepMorphism-composing oracle.

On the keys of every Hom(a, b) of a universe, span._orbits with the moves of
reps.composition_moves must give the same Aut(a) x Aut(b) partition, with
the same least keys in the same order, and the same Aut(a) sub-partition as
span_oracle; each move must be exactly one composition; and reps.orbit from
the identity key over aut_generators must reach all of Aut(x).  The span
model, which sweeps only the injective keys, must have the arrow classes
and target-leg fibers of a build over all of Hom with span_oracle's orbits.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from hom_oracle import homs_by_addition
from span_oracle import morphism_orbits
from test_cone_kernel import universes
from hallalg import reps, span
from hallalg.catalog import catalog_build
from hallalg.hall import HallContext
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


def oracle_span_data(cat) -> tuple:
    """Arrow classes and target-leg fiber parts as build_span_model numbers
    them, from morphism_orbits over all of Hom(a, b), non-injective orbits
    dropped after the sweep."""
    gens = [reps.aut_generators(cat.rep(i)) for i in range(len(cat))]
    classes = {}
    fibers = {z: [] for z in range(len(cat))}
    for a in range(len(cat)):
        for b in range(len(cat)):
            ra, rb = cat.rep(a), cat.rep(b)
            if any(da > db for da, db in zip(ra.dims, rb.dims)):
                continue
            comma = []
            rank = 0
            homs = list(homs_by_addition(ra, rb))
            for canon_key, orbit in morphism_orbits(homs, gens[b], gens[a]):
                canon = orbit[canon_key]
                if not canon.is_injective():
                    continue
                comp = ("m", a, b, rank)
                rank += 1
                coker = cat.classify(reps.kernel_cokernel(canon).cokernel)
                stab = cat.aut_order(a) * cat.aut_order(b) // len(orbit)
                classes[comp] = (a, b, canon_key, len(orbit), stab, coker)
                for sub_key, sub in morphism_orbits(orbit.values(), [], gens[a]):
                    comma.append((sub_key, cat.aut_order(a) // len(sub), comp))
            comma.sort(key=lambda o: o[0])
            for rank, (_, fstab, comp) in enumerate(comma):
                fibers[b].append((("f", b, a, rank), (fstab,), comp))
    return classes, fibers


@pytest.mark.parametrize("quiver,p,bound", UNIVERSES)
def test_span_model_from_injective_keys_matches_the_oracle(quiver, p, bound):
    cat = catalog_build(quiver, p, bound)
    model = span.build_span_model(HallContext("classical", cat))
    want_classes, want_fibers = oracle_span_data(cat)
    got_classes = {
        comp: (c.source_class, c.target_class, c.rep.key(), c.orbit_size,
               c.stabilizer_order, c.cokernel_class)
        for comp, c in model.arrow_classes.items()
    }
    assert got_classes == want_classes
    assert list(model.x1.components) == list(want_classes)
    for z, fiber in zip(model.x0.components, model.t.fibers):
        got = list(zip(fiber.lftype.components, fiber.lftype.orders, fiber.incl))
        assert got == want_fibers[z], z
