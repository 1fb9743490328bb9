"""reps.orbit, the one orbit search, against the RepMorphism-composing oracle.

On the keys of every Hom(a, b) of a universe, span_oracle.key_orbits, which
sweeps reps.orbit over the moves of reps.composition_moves, must give the same Aut(a) x Aut(b) partition, with
the same least keys in the same order, and the same Aut(a) sub-partition as
span_oracle; each move must be exactly one composition; and reps.orbit from
the identity key over aut_generators must reach all of Aut(x).  The span
model, which sweeps only the Aut(b)-orbits of the mono images of
hall.mono_keys, must have the arrow classes and target-leg fibers of a
build over all of Hom with span_oracle's orbits, with one reps.orbit call
per arrow class over the Aut(b) moves alone, labelled by image: a labelled
orbit must be the labels of the key orbit, and a warm build must make one
reps.act call per image of each class and per move.
The orbit check's generator sweep must give, on every triple it checks, the
orbits of the element images of hom_oracle.aut_element_images, each of
|Aut x| keys and with a trivial stabilizer.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings

from hom_oracle import aut_element_images, greedy_aut_generators, homs_by_addition
from span_oracle import key_orbits, morphism_orbits
from test_cone_kernel import universes
from hallalg import reps, span, verify
from hallalg.catalog import catalog_build
from hallalg.errors import InvariantError
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
    gens = [reps.aut_generators(cat.rep(i), cat.aut_order(i)) for i in range(len(cat))]
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
            got = key_orbits([f.key() for f in homs], both, p)
            want = morphism_orbits(homs, gens[b], gens[a])
            assert [k for k, _ in got] == [k for k, _ in want], (a, b)
            assert parts(got) == parts(want), (a, b)
            got_sub = set().union(*(parts(key_orbits(o, pre, p)) for _, o in got))
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
        gens = reps.aut_generators(x, e.aut_order)
        ident = RepMorphism.identity(x).key()
        group = {g.key() for g in reps.aut_elements(x)}
        for left, right in ((gens, ()), ((), gens)):
            moves = reps.composition_moves(left, right, x.dims, x.dims)
            assert reps.orbit(ident, moves, p) == group, e.index


def oracle_span_data(cat) -> tuple:
    """Arrow classes and target-leg fiber parts as build_span_model numbers
    them, from morphism_orbits over all of Hom(a, b), non-injective orbits
    dropped after the sweep."""
    gens = [reps.aut_generators(cat.rep(i), cat.aut_order(i)) for i in range(len(cat))]
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


SPAN_UNIVERSES = UNIVERSES + [
    pytest.param(a_n_quiver(3), 2, (2, 2, 1), id="A3-p2-221"),
    pytest.param(Quiver(1, ((0, 0),)), 3, (2,), id="jordan-p3-2"),
    pytest.param(KRONECKER, 2, (2, 1), id="kronecker-p2-21"),
]


@pytest.mark.parametrize("quiver,p,bound", SPAN_UNIVERSES)
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


@pytest.mark.parametrize("quiver,p,bound", [
    pytest.param(a_n_quiver(2), 3, (2, 2), id="A2-p3-22"),
    pytest.param(a_n_quiver(3), 2, (2, 2, 1), id="A3-p2-221"),
])
def test_span_model_sweeps_one_aut_b_orbit_per_arrow_class(monkeypatch, quiver, p, bound):
    cat = catalog_build(quiver, p, bound)
    calls = []

    def recording(start, moves, p, label=None):
        assert label is not None
        calls.append((start, moves))
        return reps.orbit(start, moves, p, label)

    monkeypatch.setattr(span, "_orbit", recording)
    model = span.build_span_model(HallContext("classical", cat))
    classes = list(model.arrow_classes.values())
    assert len(calls) == len(classes)
    for (start, moves), c in zip(calls, classes):
        a, b = c.source_class, c.target_class
        gens_b = reps.aut_generators(cat.rep(b), cat.aut_order(b))
        assert start == c.rep.key(), c.comp_id
        assert moves == reps.composition_moves(
            gens_b, (), cat.rep(a).dims, cat.rep(b).dims), c.comp_id


LABEL_UNIVERSES = [
    pytest.param(a_n_quiver(2), 3, (2, 2), id="A2-p3-22"),
    pytest.param(KRONECKER, 2, (2, 2), id="kronecker-p2-22"),
    pytest.param(a_n_quiver(3), 2, (2, 2, 1), id="A3-p2-221"),
]


@pytest.mark.parametrize("quiver,p,bound", LABEL_UNIVERSES)
def test_labelled_orbit_is_the_labels_of_the_key_orbit(quiver, p, bound):
    # im(h f) = h . im(f), so the image labels the keys of Hom(a, b)
    # compatibly with the moves f |-> h f of the generators of Aut(b)
    cat = catalog_build(quiver, p, bound)
    for a in range(len(cat)):
        for b in range(len(cat)):
            ra, rb = cat.rep(a), cat.rep(b)
            left = reps.composition_moves(
                reps.aut_generators(rb, cat.aut_order(b)), (), ra.dims, rb.dims)
            label = functools.cache(
                lambda k: reps.morphism_from_key(ra, rb, k).image_key())
            want = {}
            for k, _ in reps.hom_keys(ra, rb, reps.any_block):
                if k not in want:
                    keys = reps.orbit(k, left, p)
                    want.update(dict.fromkeys(keys, {label(s) for s in keys}))
                assert reps.orbit(k, left, p, label) == want[k], (a, b, k)


@pytest.mark.parametrize("quiver,p,bound", [
    pytest.param(a_n_quiver(2), 3, (2, 2), id="A2-p3-22"),
    pytest.param(a_n_quiver(3), 2, (2, 2, 1), id="A3-p2-221"),
])
def test_warm_span_build_moves_each_image_once(monkeypatch, quiver, p, bound):
    # with the mono record and the generators warm, the build acts only in
    # its sweeps, and each sweep expands one key per image of its class
    ctx = HallContext("classical", catalog_build(quiver, p, bound))
    cat = ctx.catalog
    span.build_span_model(ctx)
    calls = []
    real = reps.act
    monkeypatch.setattr(reps, "act", lambda *args: calls.append(1) or real(*args))
    model = span.build_span_model(ctx)
    acts = len(calls)
    want = 0
    for c in model.arrow_classes.values():
        ra, rb = cat.rep(c.source_class), cat.rep(c.target_class)
        left = reps.composition_moves(
            reps.aut_generators(rb, cat.aut_order(c.target_class)), (), ra.dims, rb.dims)
        images = sum(comp == c.comp_id for fiber in model.t.fibers for comp in fiber.incl)
        want += images * len(left)
    assert acts == want


def test_relabelling_the_greatest_mono_fails_the_arrow_check(monkeypatch):
    # the 4 monos c1 -> c1 over F_5 share one image, and Aut(c1) = F_5^* is
    # generated by 2; relabelling the image of the greatest, 4, leaves the
    # sweep from 1 its first image alone, since 1 moves to 2 under that
    # label, so the class it counts has 3 keys
    real = span.mono_keys

    def relabelled(ctx, a, b):
        monos = real(ctx, a, b)
        if (a, b) != (1, 1):
            return monos
        (image, (*rest, last)), = monos.items()
        return {image: rest, "another image": [last]}

    monkeypatch.setattr(span, "mono_keys", relabelled)
    ctx = HallContext("classical", catalog_build(a_n_quiver(1), 5, (1,)))
    with pytest.raises(InvariantError,
                       match=r"^build_span_model\(arrows c1 -> c1, Aut x Aut\): orbit "
                             r"of size 3 does not divide the group order 16$"):
        span.build_span_model(ctx)

def check_generators_against_greedy(cat):
    for e in cat.entries:
        want = [g.key() for g in greedy_aut_generators(e.rep)]
        assert [g.key() for g in reps.aut_generators(e.rep, e.aut_order)] == want


@pytest.mark.parametrize("quiver,p,bound", UNIVERSES)
def test_key_walk_generators_match_the_greedy_oracle(quiver, p, bound):
    check_generators_against_greedy(catalog_build(quiver, p, bound))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(universe=universes())
def test_key_walk_generators_match_the_greedy_oracle_on_random_quivers(universe):
    quiver, p, bound = universe
    check_generators_against_greedy(catalog_build(quiver, p, bound))


def test_generator_walk_short_of_the_order_raises():
    x = catalog_build(a_n_quiver(1), 3, (2,)).rep(2)    # k^2, |GL_2(F_3)| = 48
    with pytest.raises(InvariantError, match=r"^aut_generators\(dims \(2,\)\): the "
                       r"invertible keys generate 48 automorphisms, not \|Aut\| = 96$"):
        reps.aut_generators(x, 96)


# over F_2 the Kronecker universe with bound (1, 1) has no generator to drop
@pytest.mark.parametrize("quiver,p,bound", UNIVERSES[:3])
def test_dropping_a_generator_fails_the_closure_test(monkeypatch, quiver, p, bound):
    real = reps.aut_generators
    monkeypatch.setattr(reps, "aut_generators",
                        lambda x, order, cap=reps.DEFAULT_CAP: real(x, order, cap)[:-1])
    with pytest.raises(AssertionError):
        test_generator_closure_is_the_automorphism_group(quiver, p, bound)


ORBIT_CHECK_UNIVERSES = [
    pytest.param(a_n_quiver(2), 2, (2, 2), id="A2-p2-22"),
    pytest.param(a_n_quiver(2), 3, (2, 2), id="A2-p3-22"),
    pytest.param(a_n_quiver(3), 2, (2, 2, 1), id="A3-p2-221"),
    pytest.param(KRONECKER, 2, (2, 2), id="kronecker-p2-22"),
    pytest.param(Quiver(1, ((0, 0),)), 3, (2,), id="jordan-p3-2"),
]


@pytest.mark.parametrize("quiver,p,bound", ORBIT_CHECK_UNIVERSES)
def test_orbit_check_orbits_match_the_element_images(quiver, p, bound):
    ctx = HallContext("classical", catalog_build(quiver, p, bound))
    cat = ctx.catalog
    pairs = verify._orbit_pairs(ctx, verify.in_bound_pairs(ctx))
    assert pairs
    for x, z in pairs:
        classes, act, order = verify._action(ctx, x, z)
        assert order == cat.aut_order(x)
        for y, keys in classes.items():
            seen = set()
            for k in keys:
                if k in seen:
                    continue
                orbit, stab = act(k)
                images = aut_element_images(cat.rep(x), cat.rep(z), k)
                assert orbit == set(images), (x, z, y, k)
                assert stab == images.count(k) == 1, (x, z, y, k)
                assert len(orbit) == order, (x, z, y, k)
                seen |= orbit
            assert seen == set(keys), (x, z, y)
