"""hall.count_exact_sequences, read from the cached monos grouped by image
and the cached epi kernel histogram, against the per-triple oracle of
hom_oracle, and a mono dropped from its cache that the Riedtmann check
must catch on exactly the triples it touches."""

import pytest

from hom_oracle import count_exact_sequences_per_triple
from hallalg.catalog import catalog_build
from hallalg.hall import HallContext, count_exact_sequences
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.verify import verify_suite

KRONECKER = Quiver(2, ((0, 1), (0, 1)))


@pytest.mark.parametrize("quiver,p,bound", [
    (a_n_quiver(2), 3, (2, 2)),
    (a_n_quiver(3), 2, (2, 2, 1)),
    (KRONECKER, 2, (2, 2)),
], ids=["A2-p3-22", "A3-p2-221", "kronecker-p2-22"])
def test_histogram_count_matches_the_per_triple_oracle(quiver, p, bound):
    ctx = HallContext("classical", catalog_build(quiver, p, bound))
    n = len(ctx.catalog)
    nonzero = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                got = count_exact_sequences(ctx, x, y, z)
                assert got == count_exact_sequences_per_triple(ctx, x, y, z), (x, y, z)
                nonzero += bool(got)
    assert nonzero


def test_riedtmann_catches_a_dropped_monomorphism():
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 2, (2, 2)))
    assert verify_suite(ctx, checks=["riedtmann"])["failures_total"] == 0
    cat = ctx.catalog
    # a triple whose count reads a histogram entry shared by both sides
    x, y, z = next(
        (x, y, z)
        for x in range(len(cat)) for y in range(len(cat)) for z in range(len(cat))
        if not cat.rep(x).is_zero() and not cat.rep(y).is_zero()
        and count_exact_sequences(ctx, x, y, z)
    )
    monos = ctx._monos[(x, z)]
    image = next(k for k in ctx._epi_kernels[(z, y)] if monos.get(k))
    monos[image].pop()

    report = verify_suite(ctx, checks=["riedtmann"])["checks"]["riedtmann"]
    failed = [tuple(f["triple"]) for f in report["failures"]]
    assert report["status"] == "fail"
    assert (cat.name(x), cat.name(y), cat.name(z)) in failed
    assert all(fx == cat.name(x) and fz == cat.name(z) for fx, _, fz in failed)
