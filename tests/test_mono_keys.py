"""hall.mono_keys, the one enumeration of monos that the span model, the
exact-sequence count and the orbit check share.

It must list the injective keys of reps.hom_keys with their images, in
order, for every catalog pair; and a key dropped from its cache must make
the Riedtmann and span checks fail on exactly the triples through that
pair, since the other side of each check (subobject counting) never reads
it.
"""

import pytest

from hallalg import reps
from hallalg.catalog import catalog_build
from hallalg.hall import HallContext, mono_keys
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.span import build_span_model
from hallalg.verify import verify_suite

KRONECKER = Quiver(2, ((0, 1), (0, 1)))


@pytest.mark.parametrize("quiver,p,bound", [
    (a_n_quiver(3), 2, (2, 2, 1)),
    (a_n_quiver(2), 3, (2, 2)),
    (KRONECKER, 2, (2, 2)),
], ids=["A3-p2-221", "A2-p3-22", "kronecker-p2-22"])
def test_mono_keys_are_the_injective_hom_keys_in_order(quiver, p, bound):
    ctx = HallContext("classical", catalog_build(quiver, p, bound))
    cat = ctx.catalog
    for a in range(len(cat)):
        for b in range(len(cat)):
            ra, rb = cat.rep(a), cat.rep(b)
            want = [(k, reps.mono_image_key(ra, rb, k))
                    for k in reps.hom_keys(ra, rb)
                    if reps.key_is_injective(ra, rb, k)]
            got = mono_keys(ctx, a, b)
            assert list(got) == want, (a, b)
            assert mono_keys(ctx, a, b) is got
            # images are interned: one copy per subspace
            assert all(ctx._subspaces[image] is image for _, image in got)


def test_a_dropped_mono_fails_riedtmann_and_span_on_its_pair_only():
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 2, (2, 2)))
    cat = ctx.catalog
    clean = verify_suite(ctx, build_span_model(ctx), checks=["riedtmann", "span"])
    assert clean["failures_total"] == 0
    # a mono alone in its Aut(a) x Aut(b)-orbit, so the span model loses
    # its arrow class and not just one member of it
    a, b, key, image = next(
        (a, b, key, image)
        for a in range(len(cat)) for b in range(len(cat))
        if a != b and not cat.rep(a).is_zero()
        and cat.aut_order(a) == cat.aut_order(b) == 1
        for key, image in mono_keys(ctx, a, b)
    )
    y = cat.classify_key(reps.quotient_key(cat.rep(b), image))
    ctx._monos[(a, b)] = tuple(m for m in ctx._monos[(a, b)] if m[0] != key)
    ctx._mono_images.clear()

    report = verify_suite(ctx, build_span_model(ctx),
                          checks=["riedtmann", "span"])["checks"]
    names = [cat.name(k) for k in (a, y, b)]
    assert report["riedtmann"]["status"] == "fail"
    assert [f["triple"] for f in report["riedtmann"]["failures"]] == [names]
    assert report["span"]["status"] == "fail"
    assert [f["pair"] for f in report["span"]["failures"]] == [names[:2]]
    (failure,) = report["span"]["failures"]
    assert failure["span"].get(names[2]) != failure["formula"].get(names[2])
