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
  subobjects of z: components are precomposition orbits of the injective
  maps a -> z under Aut(a), with pi_1 the stabilizer of the map.

The other leg sends [f: a -> b] to (class of a, class of coker f) in
X0 x X0, which for a monomorphism is its cone exactly.  The product
mu = t_! o (s x c)^* then reproduces the classical Hall numbers through
homotopy cardinality alone, with no subobject counting anywhere on the
path.

Every orbit is swept by reps.orbit, the package's one orbit search, which
acts on the entry tuples of RepMorphism.key(): the generators of Aut(a) and
Aut(b) become moves on the keys of Hom(a, b) (reps.composition_moves), and
a morphism is built only for the least key of each arrow class.  The orbit
code is mode-neutral; only build_span_model drops the non-injective
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .errors import InputError, InvariantError
from .hall import HallContext, HallElement
from .lf import Fiber, FiniteSupportFn, LFType, ProperMapData, lf_product, pullback, pushforward
from . import reps
from .reps import RepMorphism, orbit as _orbit


@dataclass
class ArrowClass:
    """One isomorphism class of monomorphisms a -> b with its groupoid data."""

    comp_id: tuple
    source_class: int
    target_class: int
    rep: RepMorphism          # lexicographically least orbit member
    orbit_size: int
    stabilizer_order: int     # |{(g, h) : h f = f g}|
    cokernel_class: int


@dataclass
class SpanModel:
    context: HallContext
    x0: LFType
    x00: LFType               # X0 x X0, components are (class, class) pairs
    x1: LFType
    t: ProperMapData          # target leg with subobject-groupoid fibers
    sc: ProperMapData         # (source, cokernel) leg: pullback only
    arrow_classes: Dict[tuple, ArrowClass]


def _orbits(keys, moves, p: int) -> list:
    """The orbits of the moves meeting keys, as (least key, orbit) sorted by
    least key."""
    seen: set = set()
    orbits = []
    for k in keys:
        if k not in seen:
            orbit = _orbit(k, moves, p)
            seen |= orbit
            orbits.append((min(orbit), orbit))
    return sorted(orbits, key=lambda o: o[0])


def _stabilizer_order(group_order: int, orbit: set, what: str) -> int:
    """|Stab| = |group| / |orbit|, which must divide exactly."""
    stab, rem = divmod(group_order, len(orbit))
    if rem:
        raise InvariantError(
            f"build_span_model({what}): orbit of size {len(orbit)} does not "
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

    gens = {i: reps.aut_generators(cat.rep(i)) for i in range(n)}
    auts = {i: cat.aut_order(i) for i in range(n)}

    # An Aut(a) x Aut(b)-orbit of injective maps a -> b is an arrow class;
    # its Aut(a)-orbits are the fiber components over b that include it.
    # Ranks follow orbit minima, so the enumeration order never reaches an
    # id.  Injectivity is constant on an orbit, so its least key decides.
    arrow_classes: Dict[tuple, ArrowClass] = {}
    x1_pairs = []
    fiber_parts = {z: [] for z in range(n)}   # (comp, orders, arrow class)
    for a in range(n):
        for b in range(n):
            ra, rb = cat.rep(a), cat.rep(b)
            if any(da > db for da, db in zip(ra.dims, rb.dims)):
                continue    # no monomorphism a -> b
            homs = (f.key() for f in reps.enumerate_homs(ra, rb, cap=ctx.caps.candidates))
            both = reps.composition_moves(gens[b], gens[a], ra.dims, rb.dims)
            pre = reps.composition_moves((), gens[a], ra.dims, rb.dims)
            comma = []
            rank = 0
            for canon_key, orbit in _orbits(homs, both, cat.p):
                canon = reps.morphism_from_flat(
                    ra, rb, [v for data in canon_key for v in data])
                if not canon.is_injective():
                    continue
                comp = ("m", a, b, rank)
                rank += 1
                stab = _stabilizer_order(
                    auts[a] * auts[b], orbit,
                    f"arrows {cat.name(a)} -> {cat.name(b)}, Aut x Aut",
                )
                arrow_classes[comp] = ArrowClass(
                    comp_id=comp,
                    source_class=a,
                    target_class=b,
                    rep=canon,
                    orbit_size=len(orbit),
                    stabilizer_order=stab,
                    cokernel_class=cat.classify(reps.kernel_cokernel(canon).cokernel),
                )
                x1_pairs.append((comp, (stab,)))
                for sub_key, sub in _orbits(orbit, pre, cat.p):
                    fstab = _stabilizer_order(
                        auts[a], sub, f"maps {cat.name(a)} -> {cat.name(b)}, Aut"
                    )
                    comma.append((sub_key, fstab, comp))
            comma.sort(key=lambda o: o[0])
            for rank, (_, fstab, comp) in enumerate(comma):
                fiber_parts[b].append((("f", b, a, rank), (fstab,), comp))

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
