"""Hom enumeration and the exact-sequence count by whole RepMorphisms, kept
as test oracles.

This is the slow path that reps.hom_keys and the histograms of
hall.count_exact_sequences replaced: every element of Hom(x, y) is a
RepMorphism built by adding scaled basis morphisms, and each triple
enumerates both of its Hom spaces again.
"""

from hallalg import reps
from hallalg.errors import EnumerationCapError
from hallalg.reps import RepMorphism


def homs_by_addition(x, y, cap=reps.DEFAULT_CAP):
    """Every element of Hom(x, y), lexicographically by basis coefficients;
    the cap is checked when this is called."""
    basis = reps.hom_basis(x, y)
    d = len(basis)
    if x.p ** d > cap:
        raise EnumerationCapError(
            f"enumerate_homs(dims {x.dims} -> {y.dims}): |Hom| = {x.p}**{d} "
            f"exceeds cap {cap}"
        )
    zero = RepMorphism.zero(x, y)
    scaled = [[b.scale(c) for c in range(x.p)] for b in basis]

    def rec(level, acc):
        if level == d:
            yield acc
            return
        for c in range(x.p):
            nxt = acc if c == 0 else acc + scaled[level][c]
            yield from rec(level + 1, nxt)

    return rec(0, zero)


def count_exact_sequences_per_triple(ctx, x, y, z):
    """Pairs (i: x -> z injective, p: z -> y surjective) with im i = ker p,
    enumerated afresh for the one triple."""
    cat = ctx.catalog
    xr, yr, zr = cat.rep(x), cat.rep(y), cat.rep(z)
    if tuple(a + b for a, b in zip(xr.dims, yr.dims)) != zr.dims:
        return 0
    inj_by_image = {}
    for f in homs_by_addition(xr, zr, cap=ctx.caps.candidates):
        if f.is_injective():
            key = f.image_key()
            inj_by_image[key] = inj_by_image.get(key, 0) + 1
    if not inj_by_image:
        return 0
    total = 0
    for g in homs_by_addition(zr, yr, cap=ctx.caps.candidates):
        if g.is_surjective():
            total += inj_by_image.get(g.kernel_key(), 0)
    return total
