"""The groupoid span realization of the Hall product.

For the abelian (1-type) case the three spaces are nerves of finite
groupoids, so everything is computable by orbit enumeration:

* X0 has one component per catalog class, with pi_1 = its automorphism
  group (orders stored as [|Aut|]);
* X1 is Waldhausen's S_2: one component per isomorphism class of
  monomorphisms f: a -> b, i.e. per orbit of the injective part of
  Hom(a, b) under the two-sided action (g, h) . f = h f g^-1 of
  Aut(a) x Aut(b), with pi_1 the stabilizer of the arrow;
* the target leg t: X1 -> X0 carries, over each class z, the groupoid of
  subobjects of z: components are the image classes of the injective maps
  a -> z, which are their orbits under Aut(a), and Aut(a) acts freely.

The other leg sends [f: a -> b] to (class of a, class of coker f) in
X0 x X0, which for a monomorphism is its cone exactly.  The product
mu = t_! o (s x c)^* then reproduces the classical Hall numbers through
homotopy cardinality alone, with no subobject counting anywhere on the
path.

The monos a -> b come from hall.mono_keys, the one record of them, grouped
by image, that the exact-sequence count and the orbit check read too; its
image groups are already the Aut(a)-orbits.  So each arrow class is swept
by reps.orbit, the package's orbit search on Hom keys, over Aut(b) alone
and on images, not keys: the generators of Aut(b) become moves f |-> h f
on the entry tuples of RepMorphism.key() (reps.composition_moves), and
since im(h f) = h . im(f), the search labels each key by its image and
expands one key per image, returning the image groups of the class.  A
morphism is built only for the least key of each arrow class, and its
cokernel is classified by the key reps.quotient_key reads off its image.
"""

from __future__ import annotations

from typing import Dict

from .errors import InputError, InvariantError
from .hall import HallContext, HallElement, check_walk_caps, mono_keys
from .lf import Fiber, FiniteSupportFn, LFType, ProperMapData, lf_product, pullback, pushforward
from . import reps
from .reps import RepMorphism, orbit as _orbit


class ArrowClass:
    """One isomorphism class of monomorphisms a -> b with its groupoid data."""

    __slots__ = ("comp_id", "source_class", "target_class", "rep", "orbit_size",
                 "stabilizer_order", "cokernel_class")

    def __init__(self, comp_id: tuple, source_class: int, target_class: int,
                 rep: RepMorphism, orbit_size: int, stabilizer_order: int,
                 cokernel_class: int):
        self.comp_id = comp_id
        self.source_class = source_class
        self.target_class = target_class
        self.rep = rep                            # lexicographically least orbit member
        self.orbit_size = orbit_size
        self.stabilizer_order = stabilizer_order  # |{(g, h) : h f = f g}|
        self.cokernel_class = cokernel_class


class SpanModel:
    __slots__ = ("context", "x0", "x00", "x1", "t", "sc", "arrow_classes")

    def __init__(self, context: HallContext, x0: LFType, x00: LFType, x1: LFType,
                 t: ProperMapData, sc: ProperMapData,
                 arrow_classes: Dict[tuple, ArrowClass]):
        self.context = context
        self.x0 = x0
        self.x00 = x00    # X0 x X0, components are (class, class) pairs
        self.x1 = x1
        self.t = t        # target leg with subobject-groupoid fibers
        self.sc = sc      # (source, cokernel) leg: pullback only
        self.arrow_classes = arrow_classes


def _stabilizer_order(group_order: int, size: int, what: str) -> int:
    """|Stab| = |group| / size for an orbit of that size, which must divide."""
    stab, rem = divmod(group_order, size)
    if rem:
        raise InvariantError(
            f"build_span_model({what}): orbit of size {size} does not "
            f"divide the group order {group_order}"
        )
    return stab


def build_span_model(ctx: HallContext) -> SpanModel:
    """Assemble X0, X1 and both legs over the catalog universe."""
    if ctx.mode != "classical":
        raise InputError("the span model is built for classical contexts")
    cat = ctx.catalog
    n = len(cat)

    x0 = LFType(
        tuple(range(n)),
        tuple((cat.aut_order(i),) for i in range(n)),
    )
    x00 = lf_product(x0, x0)

    # every End(i) and Hom(a, b) walked below is held to the cap first
    check_walk_caps(ctx, [*((i, i) for i in range(n)),
                          *((a, b) for a in range(n) for b in range(n))])
    auts = {i: cat.aut_order(i) for i in range(n)}
    gens = {i: reps.aut_generators(cat.rep(i), auts[i], ctx.cap) for i in range(n)}

    # The Aut(a)-orbits of the monos a -> b are their image groups in
    # mono_keys, since f, f' have one image iff f' = f g for some g in
    # Aut(a), and Aut(a) acts freely; they are the fiber components over b.
    # An arrow class, an Aut(a) x Aut(b)-orbit, is then the union of the
    # groups of one Aut(b)-orbit of images, swept from any one key.  The
    # record lists its images in the order of their first key, so each
    # class starts at its least key and ranks follow orbit minima: the
    # enumeration order never reaches an id.
    arrow_classes: Dict[tuple, ArrowClass] = {}
    x1_pairs = []
    fiber_parts = {z: [] for z in range(n)}   # (comp, orders, arrow class)
    for a in range(n):
        for b in range(n):
            monos = mono_keys(ctx, a, b)
            if not monos:
                continue
            ra, rb = cat.rep(a), cat.rep(b)
            left = reps.composition_moves(gens[b], (), ra.dims, rb.dims)
            image_of = {k: im for im, ks in monos.items() for k in ks}
            fibers = {}   # image -> ((|Stab| in Aut(a),), arrow class)
            rank = 0
            for image, keys in monos.items():
                if image in fibers or not keys:
                    continue
                comp = ("m", a, b, rank)
                rank += 1
                images = _orbit(keys[0], left, cat.p, image_of.__getitem__)
                size = sum(len(monos[im]) for im in images)
                stab = _stabilizer_order(
                    auts[a] * auts[b], size,
                    f"arrows {cat.name(a)} -> {cat.name(b)}, Aut x Aut",
                )
                arrow_classes[comp] = ArrowClass(
                    comp_id=comp,
                    source_class=a,
                    target_class=b,
                    rep=reps.morphism_from_key(ra, rb, keys[0]),
                    orbit_size=size,
                    stabilizer_order=stab,
                    cokernel_class=cat.classify_key(reps.quotient_key(rb, image)),
                )
                x1_pairs.append((comp, (stab,)))
                for im in images:
                    fstab = _stabilizer_order(
                        auts[a], len(monos[im]), f"maps {cat.name(a)} -> {cat.name(b)}, Aut"
                    )
                    fibers[im] = ((fstab,), comp)
            for rank, im in enumerate(im for im in monos if im in fibers):
                fiber_parts[b].append((("f", b, a, rank), *fibers[im]))

    x1 = LFType.from_pairs(x1_pairs)

    # target leg with subobject-groupoid fibers
    t_map = tuple(arrow_classes[c].target_class for c in x1.components)
    t_fibers = tuple(
        Fiber(LFType.from_pairs([part[:2] for part in fiber_parts[z]]),
              tuple(part[2] for part in fiber_parts[z]))
        for z in range(n)
    )
    t = ProperMapData(x1, x0, t_map, t_fibers)

    # (source, cokernel) leg: component map only; its homotopy fibers are
    # never consumed (the product needs pullback here, push-forward along t)
    sc_map = tuple(
        (arrow_classes[c].source_class, arrow_classes[c].cokernel_class)
        for c in x1.components
    )
    sc = ProperMapData(x1, x00, sc_map, None)

    return SpanModel(ctx, x0, x00, x1, t, sc, arrow_classes)


def mu_span(a: HallElement, b: HallElement, span: SpanModel) -> HallElement:
    """t_! ((s x c)^* (a (x) b)): the span route to the Hall product.

    The tensor function is (x, y) |-> a(x) b(y) on X0 x X0; pulled back to
    X1 it weighs each monomorphism x -> z with cokernel y, and pushing
    forward along t sums those weights over the subobjects of each z.
    """
    ctx = span.context
    if a.context is not ctx or b.context is not ctx:
        raise InputError("elements do not belong to the span's context")
    tensor_vals = {}
    for x, cx in a.values.items():
        for y, cy in b.values.items():
            tensor_vals[(x, y)] = cx * cy
    tensor = FiniteSupportFn(span.x00, tensor_vals)
    pushed = pushforward(span.t, pullback(span.sc, tensor))
    return HallElement(ctx, dict(pushed.values))
