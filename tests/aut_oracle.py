"""The derived orbit check's action by chain maps, kept as the oracle of the
block action (derived.precompositions on ConeBlocks coordinates).

derived_aut_lifts lifts every derived automorphism of x to a chain map
P(x) -> P(x) through a whole HomotopyClasses(P(x), P(x)), and
chain_map_images composes the chain map of a class x -> z with each lift
and reads the result in the whole-table solve hom_class_table(x, z).
"""

from collections import Counter

from hallalg.derived import (
    DerivedClass,
    HomotopyClasses,
    augmentation_map,
    combinations,
    hom_class_table,
)
from hallalg.errors import InvariantError
from hallalg.hall import cone_table, derived_aut_order


def derived_aut_lifts(ctx, x: DerivedClass) -> list:
    """One chain map P(x) -> P(x) per derived automorphism class of x;
    cached on the context's catalog (a HallContext has fixed slots), which
    holds the derived caches, and the lifts depend on nothing else.

    Composing with the augmentation eps is a bijection [P(x), P(x)] ->
    [P(x), C(x)] (see hallalg.derived) and linear, so each class of
    HomotopyClasses(P(x), P(x)) maps to the same combination of the images
    of its complement, and the classes whose image has a zero cone are
    lifted.  The bijection and the count |Aut x| are checked.
    """
    cache = vars(ctx.catalog).setdefault("_aut_lifts", {})
    if x in cache:
        return cache[x]
    cat = ctx.catalog
    table = hom_class_table(cat, x, x, cap=ctx.cap)
    pp = HomotopyClasses(table.X, table.X)
    eps = augmentation_map(cat, x)
    cones = {table.canon(vec): cone for vec, cone in cone_table(ctx, x, x)}
    basis = [table.canon(table.vector_of(eps.compose(pp.lift(b))))
             for b in pp.complement]
    images, lifts = set(), []
    for vec, image in zip(pp.class_vectors(),
                          combinations(cat.p, basis, table.space.total)):
        images.add(image)
        if cones.get(image) == DerivedClass.zero():
            lifts.append(pp.lift(vec))
    if len(images) != pp.count or images != cones.keys():
        raise InvariantError(
            f"derived automorphisms of {x.name(cat)}: the {pp.count} classes "
            f"P -> P reach {len(images)} classes P -> C, not the table's "
            f"{len(cones)}: composing with the augmentation is not a bijection"
        )
    order = derived_aut_order(ctx, x)
    if len(lifts) != order:
        raise InvariantError(
            f"derived automorphisms of {x.name(cat)}: {len(lifts)} lifts "
            f"with a zero cone != derived_aut_order {order}"
        )
    cache[x] = lifts
    return lifts


def chain_map_images(ctx, x: DerivedClass, z: DerivedClass, vec) -> Counter:
    """{canon(f g): count} over the lifts g of derived_aut_lifts(x), for the
    class vector vec of f: x -> z in hom_class_table(x, z)."""
    table = hom_class_table(ctx.catalog, x, z, cap=ctx.cap)
    f = table.lift(vec)
    return Counter(table.canon(table.vector_of(f.compose(g)))
                   for g in derived_aut_lifts(ctx, x))
