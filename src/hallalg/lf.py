"""Finite-support function calculus on locally finite homotopy types.

A locally finite type is stored as its component set together with, per
component, the finite list [|pi_1|, |pi_2|, ..., |pi_N|] of homotopy group
orders (all higher groups trivial).  Only the orders ever enter any formula,
so no group structure is kept.

The push-forward of a function along a map with explicit fiber data weights
each fiber component by the alternating product of its homotopy group
orders: pi_1 inverted, pi_2 direct, and so on.  The pullback composes with
the component map; it needs the map to be proper (finite preimages) so that
finite support is preserved.  All arithmetic is exact Fraction arithmetic;
there is no floating point anywhere in this module.

Cost model: each map builds two indexes once, on first use (target ->
preimage, and source -> (image, summed fiber weight)).  After that,
push-forward and pullback take time proportional to the support of the
function they are given, not to the size of the map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, Hashable, Mapping, Optional, Sequence

from .errors import InputError

ComponentId = Hashable


def homotopy_weight(orders: Sequence[int]) -> Fraction:
    """prod |pi_i| ** ((-1)^i) over i >= 1: orders[0] is |pi_1| (inverted),
    orders[1] is |pi_2| (direct), alternating."""
    w = Fraction(1)
    for i, o in enumerate(orders, start=1):
        if o <= 0:
            raise InputError("homotopy group orders must be >= 1")
        w *= Fraction(1, o) if i % 2 else Fraction(o)
    return w


@dataclass(frozen=True)
class LFType:
    """components, and for each one its homotopy group orders."""

    components: tuple
    orders: tuple  # aligned with components: tuple of tuples of ints

    def __post_init__(self):
        if len(self.components) != len(self.orders):
            raise InputError("components/orders length mismatch")
        if len(self.component_set) != len(self.components):
            raise InputError("duplicate component ids")
        for os in self.orders:
            if any(o < 1 for o in os):
                raise InputError("orders must be positive")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "LFType":
        return cls(
            tuple(c for c, _ in pairs),
            tuple(tuple(o) for _, o in pairs),
        )

    @cached_property
    def component_set(self) -> frozenset:
        return frozenset(self.components)

    @classmethod
    def point(cls) -> "LFType":
        return cls(("pt",), ((),))

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "components": [
                {"id": str(c), "orders": list(o)}
                for c, o in zip(self.components, self.orders)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LFType":
        try:
            comps = [(c["id"], tuple(c.get("orders", ()))) for c in obj["components"]]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad LF type JSON: {exc}") from exc
        return cls.from_pairs(comps)


class FiniteSupportFn:
    """A finite-support exact-rational function on the components of a
    locally finite type.  Missing components take the value 0."""

    __slots__ = ("base", "values")

    def __init__(self, base: LFType, values: Optional[Mapping] = None):
        self.base = base
        self.values: Dict[ComponentId, Fraction] = {}
        comp_set = base.component_set
        for k, v in (values or {}).items():
            if k not in comp_set:
                raise InputError(f"value on unknown component {k!r}")
            v = Fraction(v)
            if v:
                self.values[k] = v

    @classmethod
    def characteristic(cls, base: LFType, comp: ComponentId) -> "FiniteSupportFn":
        return cls(base, {comp: Fraction(1)})

    def __call__(self, comp: ComponentId) -> Fraction:
        return self.values.get(comp, Fraction(0))

    def __add__(self, other: "FiniteSupportFn") -> "FiniteSupportFn":
        if other.base != self.base:
            raise InputError("mismatched base types")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, Fraction(0)) + v
        return FiniteSupportFn(self.base, out)

    def scale(self, c) -> "FiniteSupportFn":
        c = Fraction(c)
        return FiniteSupportFn(self.base, {k: c * v for k, v in self.values.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSupportFn)
            and self.base == other.base
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"FiniteSupportFn({self.values})"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "values": {
                str(k): f"{v.numerator}/{v.denominator}"
                for k, v in sorted(self.values.items(), key=lambda kv: str(kv[0]))
            },
        }

    @classmethod
    def from_json_dict(cls, base: LFType, obj: dict) -> "FiniteSupportFn":
        vals = {}
        for k, v in obj.get("values", {}).items():
            if isinstance(v, str):
                num, _, den = v.partition("/")
                vals[k] = Fraction(int(num), int(den) if den else 1)
            else:
                vals[k] = Fraction(v)
        return cls(base, vals)


@dataclass(frozen=True)
class Fiber:
    """Explicit homotopy fiber over one target component: a locally finite
    type plus the map of its components into the source's components."""

    lftype: LFType
    incl: tuple  # aligned with lftype.components: source component per fiber comp

    def __post_init__(self):
        if len(self.incl) != len(self.lftype.components):
            raise InputError("fiber incl length mismatch")


@dataclass(frozen=True)
class ProperMapData:
    """A map of locally finite types with explicit per-component fiber data.

    Fibers cannot be recovered from (source, target, component_map) alone, so
    producers supply the fibers they can justify; the invariants here are the
    only soundness checks possible at this level.  fibers may be None for
    maps used exclusively for pullback, which consumes only component_map.
    """

    source: LFType
    target: LFType
    component_map: tuple  # aligned with source.components: target component
    fibers: Optional[tuple] = None  # aligned with target.components, or None

    def __post_init__(self):
        if len(self.component_map) != len(self.source.components):
            raise InputError("component_map length mismatch")
        tset = self.target.component_set
        for t in self.component_map:
            if t not in tset:
                raise InputError(f"component_map hits unknown target {t!r}")
        if self.fibers is not None:
            if len(self.fibers) != len(self.target.components):
                raise InputError("need one fiber per target component")
            for tcomp, fib in zip(self.target.components, self.fibers):
                preimage = set(self.preimages.get(tcomp, ()))
                hit = set(fib.incl)
                if not hit <= preimage:
                    raise InputError(
                        f"fiber over {tcomp!r} includes components outside the preimage"
                    )
                if hit != preimage:
                    raise InputError(
                        f"fiber over {tcomp!r} misses part of the preimage"
                    )

    @cached_property
    def preimages(self) -> Dict[ComponentId, list]:
        """target component -> its source components, in source order."""
        out: Dict[ComponentId, list] = {}
        for c, t in zip(self.source.components, self.component_map):
            out.setdefault(t, []).append(c)
        return out

    @cached_property
    def fiber_weights(self) -> Dict[ComponentId, tuple]:
        """source component -> (its image, the summed homotopy weight of the
        fiber components that include it); validation puts each source only
        in the fiber over its own image."""
        if self.fibers is None:
            raise InputError("pushforward needs fiber data")
        out: Dict[ComponentId, tuple] = {}
        for tcomp, fib in zip(self.target.components, self.fibers):
            for fo, src in zip(fib.lftype.orders, fib.incl):
                _, w = out.get(src, (tcomp, 0))
                out[src] = (tcomp, w + homotopy_weight(fo))
        return out

    def preimage(self, tcomp: ComponentId) -> list:
        return list(self.preimages.get(tcomp, ()))

    @classmethod
    def identity(cls, x: LFType) -> "ProperMapData":
        fibers = tuple(
            Fiber(LFType((c,), ((),)), (c,)) for c in x.components
        )
        return cls(x, x, tuple(x.components), fibers)

    def to_json_dict(self) -> dict:
        doc = {
            "schema": 1,
            "source": self.source.to_json_dict(),
            "target": self.target.to_json_dict(),
            "component_map": {
                str(c): str(t)
                for c, t in zip(self.source.components, self.component_map)
            },
        }
        if self.fibers is not None:
            doc["fibers"] = {
                str(t): [
                    {
                        "id": str(fc),
                        "orders": list(fo),
                        "maps_to": str(src),
                    }
                    for fc, fo, src in zip(
                        fib.lftype.components, fib.lftype.orders, fib.incl
                    )
                ]
                for t, fib in zip(self.target.components, self.fibers)
            }
        return doc

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ProperMapData":
        try:
            source = LFType.from_json_dict(obj["source"])
            target = LFType.from_json_dict(obj["target"])
            cmap = obj["component_map"]
            component_map = tuple(cmap[str(c)] for c in source.components)
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad map JSON: {exc}") from exc
        fibers = None
        if "fibers" in obj:
            fibers = []
            for t in target.components:
                entries = obj["fibers"].get(str(t), [])
                lft = LFType.from_pairs(
                    [(e["id"], tuple(e.get("orders", ()))) for e in entries]
                )
                incl = tuple(e["maps_to"] for e in entries)
                fibers.append(Fiber(lft, incl))
            fibers = tuple(fibers)
        return cls(source, target, component_map, fibers)


def pushforward(f: ProperMapData, alpha: FiniteSupportFn) -> FiniteSupportFn:
    """Integrate alpha along the fibers of f: the value at a target component
    y is the sum over fiber components z of alpha(incl(z)) times the
    alternating product of the fiber's homotopy group orders at z.  Reads
    only the support of alpha."""
    if alpha.base != f.source:
        raise InputError("function is not based on the map's source")
    weights = f.fiber_weights
    out = {}
    for src, val in alpha.values.items():
        tcomp, w = weights[src]
        out[tcomp] = out.get(tcomp, 0) + val * w
    return FiniteSupportFn(f.target, out)


def pullback(f: ProperMapData, beta: FiniteSupportFn) -> FiniteSupportFn:
    """Compose with the component map; properness keeps the support finite.
    Reads only the support of beta."""
    if beta.base != f.target:
        raise InputError("function is not based on the map's target")
    preimages = f.preimages
    out = {}
    for tcomp, val in beta.values.items():
        for c in preimages.get(tcomp, ()):
            out[c] = val
    return FiniteSupportFn(f.source, out)


def lf_product(x: LFType, y: LFType) -> LFType:
    """Componentwise product type: components are pairs, orders multiply
    degreewise (shorter lists padded with trivial groups)."""
    comps = []
    orders = []
    for cx, ox in zip(x.components, x.orders):
        for cy, oy in zip(y.components, y.orders):
            comps.append((cx, cy))
            n = max(len(ox), len(oy))
            prod = tuple(
                (ox[i] if i < len(ox) else 1) * (oy[i] if i < len(oy) else 1)
                for i in range(n)
            )
            while prod and prod[-1] == 1:
                prod = prod[:-1]
            orders.append(prod)
    return LFType(tuple(comps), tuple(orders))


@dataclass(frozen=True)
class BaseChangeSquare:
    """A homotopy pullback square

        X' --v--> X
        |g        |f
        Y' --u--> Y

    with u proper; the fiber data of g must be the transported fiber data of
    f (componentwise equal orders, with incl matching through v)."""

    f: ProperMapData
    u: ProperMapData
    v: ProperMapData
    g: ProperMapData

    def __post_init__(self):
        if self.f.source != self.v.target:
            raise InputError("square corners disagree at X")
        if self.f.target != self.u.target:
            raise InputError("square corners disagree at Y")
        if self.u.source != self.g.target:
            raise InputError("square corners disagree at Y'")
        if self.g.source != self.v.source:
            raise InputError("square corners disagree at X'")


@dataclass
class BaseChangeReport:
    equal: bool
    max_deviation: Fraction
    failures: list


def check_base_change(square: BaseChangeSquare) -> BaseChangeReport:
    """Evaluate u* o f_! and g_! o v* on the characteristic function of every
    component of X and compare exactly.  The deviation of a valid homotopy
    pullback square is exactly 0."""
    f, u, v, g = square.f, square.u, square.v, square.g
    max_dev = Fraction(0)
    failures = []
    for xcomp in f.source.components:
        chi = FiniteSupportFn.characteristic(f.source, xcomp)
        lhs = pullback(u, pushforward(f, chi))
        rhs = pushforward(g, pullback(v, chi))
        for ycomp in u.source.components:
            dev = abs(lhs(ycomp) - rhs(ycomp))
            if dev:
                failures.append(
                    {
                        "x_component": xcomp,
                        "y_prime_component": ycomp,
                        "lhs": lhs(ycomp),
                        "rhs": rhs(ycomp),
                    }
                )
                if dev > max_dev:
                    max_dev = dev
    return BaseChangeReport(not failures, max_dev, failures)


def random_base_change_square(rng: random.Random, max_components: int = 5,
                              max_order: int = 8) -> BaseChangeSquare:
    """A randomized compatible square: f's fibers are drawn freely, then
    transported along a random u to build g, v and the pullback corner X'.
    Orders and component counts stay within the given limits."""

    def rand_orders() -> tuple:
        return tuple(
            rng.randint(1, max_order) for _ in range(rng.randint(0, 3))
        )

    ny = rng.randint(1, max_components)
    y = LFType.from_pairs([(f"y{i}", rand_orders()) for i in range(ny)])

    fiber_plan = {}
    x_pairs = []
    for yc in y.components:
        n_fib = rng.randint(0, 3)
        comps = []
        for k in range(n_fib):
            xid = f"x.{yc}.{k}"
            comps.append((f"w.{yc}.{k}", rand_orders(), xid))
            x_pairs.append((xid, rand_orders()))
        fiber_plan[yc] = comps
    x = LFType.from_pairs([(c, o) for c, o in x_pairs])
    f_map = tuple(
        next(yc for yc in y.components if c.startswith(f"x.{yc}."))
        for c in x.components
    )
    f_fibers = tuple(
        Fiber(
            LFType.from_pairs([(fc, fo) for fc, fo, _ in fiber_plan[yc]]),
            tuple(src for _, _, src in fiber_plan[yc]),
        )
        for yc in y.components
    )
    f = ProperMapData(x, y, f_map, f_fibers)

    nyp = rng.randint(1, max_components)
    yp = LFType.from_pairs([(f"y'{i}", rand_orders()) for i in range(nyp)])
    u_map = tuple(rng.choice(y.components) for _ in yp.components)
    u_fibers = tuple(
        Fiber(
            LFType.from_pairs(
                [(f"uf.{yc}.{j}", ()) for j, src in enumerate(pre)]
            ),
            tuple(pre),
        )
        for yc, pre in (
            (yc, [s for s, t in zip(yp.components, u_map) if t == yc])
            for yc in y.components
        )
    )
    u = ProperMapData(yp, y, u_map, u_fibers)

    # X' = pullback: one component per (y', fiber component of f over u(y'))
    xp_pairs = []
    v_map = []
    g_map = []
    g_fibers = []
    for ypc, target in zip(yp.components, u_map):
        plan = fiber_plan[target]
        fib_comps = []
        fib_incl = []
        for fc, fo, src in plan:
            xp_id = f"x'.{ypc}.{fc}"
            xp_pairs.append((xp_id, rand_orders()))
            v_map.append(src)
            g_map.append(ypc)
            fib_comps.append((f"w'.{ypc}.{fc}", fo))
            fib_incl.append(xp_id)
        g_fibers.append(Fiber(LFType.from_pairs(fib_comps), tuple(fib_incl)))
    xp = LFType.from_pairs(xp_pairs)
    v_fibers = []
    for xc in x.components:
        pre = [c for c, t in zip(xp.components, v_map) if t == xc]
        v_fibers.append(
            Fiber(
                LFType.from_pairs([(f"vf.{xc}.{j}", ()) for j in range(len(pre))]),
                tuple(pre),
            )
        )
    v = ProperMapData(xp, x, tuple(v_map), tuple(v_fibers))
    g = ProperMapData(xp, yp, tuple(g_map), tuple(g_fibers))
    return BaseChangeSquare(f, u, v, g)
