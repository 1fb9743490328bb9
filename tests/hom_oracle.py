"""Hom enumeration and the exact-sequence count by whole RepMorphisms, kept
as test oracles.

This is the slow path that reps.hom_keys and the histograms of
hall.count_exact_sequences replaced: every element of Hom(x, y) is a
RepMorphism built by adding scaled basis morphisms, and each triple
enumerates both of its Hom spaces again.
"""

from functools import lru_cache

from hallalg import reps
from hallalg.errors import EnumerationCapError
from hallalg.reps import RepMorphism


def homs_by_addition(x, y, cap=reps.DEFAULT_CAP):
    """Every element of Hom(x, y), lexicographically by basis coefficients;
    the cap is checked when this is called."""
    basis = [reps.morphism_from_flat(x, y, b) for b in reps.hom_basis(x, y)]
    d = len(basis)
    if x.p ** d > cap:
        raise EnumerationCapError(
            f"hom_keys(dims {x.dims} -> {y.dims}): |Hom| = {x.p}**{d} "
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
    for f in homs_by_addition(xr, zr, cap=ctx.cap):
        if f.is_injective():
            key = f.image_key()
            inj_by_image[key] = inj_by_image.get(key, 0) + 1
    if not inj_by_image:
        return 0
    total = 0
    for g in homs_by_addition(zr, yr, cap=ctx.cap):
        if g.is_surjective():
            total += inj_by_image.get(g.kernel_key(), 0)
    return total


def greedy_aut_generators(x):
    """The greedy generating set of Aut(x) over the whole element list of
    reps.aut_elements, the closure recomputed from the identity after each
    generator: the oracle of reps.aut_generators, which walks the keys of
    End(x) and grows the closure by each new generator alone."""
    elements = reps.aut_elements(x)
    ident = RepMorphism.identity(x).key()
    gens = []
    closure = {ident}
    for g in elements:
        if g.key() in closure:
            continue
        gens.append(g)
        closure = reps.orbit(ident, reps.composition_moves(gens, (), x.dims, x.dims), x.p)
        if len(closure) == len(elements):
            break
    return tuple(gens)


def aut_element_images(x, z, key):
    """The images f g of the key f of a map x -> z under every element g of
    reps.aut_elements(x), in that order, each g turned into its move by
    reps.composition_moves; a g whose move changes no entry fixes f.  The
    oracle of the orbit check, which sweeps the moves of reps.aut_generators
    with reps.orbit."""
    return [reps.act(key, move, x.p) if move else key
            for move in _element_moves(x, z.dims)]


@lru_cache(maxsize=None)
def _element_moves(x, dims):
    """The move of each element of reps.aut_elements(x) on the keys of maps
    from x to a representation of dims, None where nothing changes."""
    return tuple(next(iter(reps.composition_moves((), [g], x.dims, dims)), None)
                 for g in reps.aut_elements(x))
