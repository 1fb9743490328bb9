"""hall.mono_keys, the one record of monos that the span model, the
exact-sequence count and the orbit check share.

It must group the keys of the injective elements of
hom_oracle.homs_by_addition by their RepMorphism.image_key, each group in
ascending key order, for every catalog pair; an image of b must belong to the
record of exactly one a, the class of the subobject it spans; and a key
dropped from its cache must make the Riedtmann and span checks fail on
exactly the triples through that pair, since the other side of each check
(subobject counting) never reads it.
"""

import pytest

from hom_oracle import homs_by_addition
from hallalg import reps
from hallalg.catalog import catalog_build
from hallalg.hall import HallContext, mono_keys
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.span import build_span_model
from hallalg.verify import verify_suite

KRONECKER = Quiver(2, ((0, 1), (0, 1)))


CONTEXTS = pytest.mark.parametrize("quiver,p,bound", [
    (a_n_quiver(3), 2, (2, 2, 1)),
    (a_n_quiver(2), 3, (2, 2)),
    (KRONECKER, 2, (2, 2)),
], ids=["A3-p2-221", "A2-p3-22", "kronecker-p2-22"])


@CONTEXTS
def test_mono_keys_are_the_injective_hom_keys_in_order(quiver, p, bound):
    ctx = HallContext("classical", catalog_build(quiver, p, bound))
    cat = ctx.catalog
    for a in range(len(cat)):
        for b in range(len(cat)):
            ra, rb = cat.rep(a), cat.rep(b)
            want = [f for f in homs_by_addition(ra, rb) if f.is_injective()]
            position = {f.key(): i for i, f in enumerate(want)}
            image_of = {f.key(): f.image_key() for f in want}
            got = mono_keys(ctx, a, b)
            assert type(got) is dict
            assert mono_keys(ctx, a, b) is got
            flat = [k for ks in got.values() for k in ks]
            assert sorted(flat, key=position.__getitem__) == list(position), (a, b)
            for image, ks in got.items():
                assert ks == sorted(ks), (a, b)
                assert all(image_of[k] == image for k in ks)
            # the images come in the order of their first key
            firsts = [position[ks[0]] for ks in got.values()]
            assert firsts == sorted(firsts), (a, b)


@CONTEXTS
def test_an_image_of_b_is_in_the_record_of_its_class_only(quiver, p, bound):
    ctx = HallContext("classical", catalog_build(quiver, p, bound))
    cat = ctx.catalog
    for b in range(len(cat)):
        rb = cat.rep(b)
        owner = {}
        for a in range(len(cat)):
            for image in mono_keys(ctx, a, b):
                assert owner.setdefault(image, a) == a, (image, owner[image], a)
                assert cat.classify_key(reps.sub_key(rb, image)) == a
        assert owner, b   # b is an image of itself


def test_a_dropped_mono_fails_riedtmann_and_span_on_its_pair_only():
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 2, (2, 2)))
    cat = ctx.catalog
    clean = verify_suite(ctx, build_span_model(ctx), checks=["riedtmann", "span"])
    assert clean["failures_total"] == 0
    # a mono alone in its Aut(a) x Aut(b)-orbit, so the span model loses
    # its arrow class and not just one member of it
    a, b, image = next(
        (a, b, image)
        for a in range(len(cat)) for b in range(len(cat))
        if a != b and not cat.rep(a).is_zero()
        and cat.aut_order(a) == cat.aut_order(b) == 1
        for image in mono_keys(ctx, a, b)
    )
    y = cat.classify_key(reps.quotient_key(cat.rep(b), image))
    ctx._monos[(a, b)][image].pop()

    report = verify_suite(ctx, build_span_model(ctx),
                          checks=["riedtmann", "span"])["checks"]
    names = [cat.name(k) for k in (a, y, b)]
    assert report["riedtmann"]["status"] == "fail"
    assert [f["triple"] for f in report["riedtmann"]["failures"]] == [names]
    assert report["span"]["status"] == "fail"
    assert [f["pair"] for f in report["span"]["failures"]] == [names[:2]]
    (failure,) = report["span"]["failures"]
    assert failure["span"].get(names[2]) != failure["formula"].get(names[2])
