"""Hall numbers and the Hall algebra, classical and derived.

Classical structure constants count subrepresentations: g(x, y; z) is the
number of subrepresentations U <= z with U isomorphic to x and z/U
isomorphic to y.  The equivalent exact-sequence count divided by
|Aut x| |Aut y| is computed independently (count_exact_sequences) and tied
to the subobject count by a tested identity, not assumed.

Derived structure constants follow the cone-counting formula

    g(x, y; z) = |[x,z]_y| prod_(i>0) |Ext^-i(x,z)|^((-1)^i)
                 / ( |Aut x| prod_(i>0) |Ext^-i(x,x)|^((-1)^i) )

where [x,z]_y is the set of derived Hom classes x -> z whose mapping cone
is quasi-isomorphic to y, enumerated exhaustively.  |Aut x| is the number
of Hom classes x -> x with vanishing cone, which for module stalks equals
the module automorphism count.

Product support is determined exactly by triangle rotation: z can occur in
x * y iff z is the cone of some map y[-1] -> x.  A support class whose
homology leaves the catalog bound raises OutOfUniverseError rather than
being silently dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Union

from .catalog import Catalog
from .derived import (
    ChainMap,
    ConeClassifier,
    DerivedClass,
    HomotopyClasses,
    augmentation_map,
    ext_dim,
    hom_class_table,
)
from .errors import InputError, InvariantError, OutOfUniverseError
from .fq import FqMatrix, solve
from . import reps

BasisKey = Union[int, DerivedClass]


@dataclass
class EnumerationCaps:
    candidates: int = 10_000_000
    hom_exponent: int = 20


@dataclass
class HallContext:
    """A fixed algebra universe: catalog plus mode (and shift window for the
    derived mode).  Products that would leave the universe raise; they are
    never truncated."""

    mode: str
    catalog: Catalog
    window: Optional[tuple] = None
    caps: EnumerationCaps = field(default_factory=EnumerationCaps)

    def __post_init__(self):
        if self.mode not in ("classical", "derived"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.mode == "derived":
            if self.window is None:
                self.window = (-2, 2)
            lo, hi = self.window
            if lo > hi:
                raise InputError("empty shift window")
            if not self.catalog.quiver.is_acyclic():
                raise InputError("derived mode needs an acyclic quiver")
        self._subrep_hist: dict = {}
        self._cone_hist: dict = {}     # (x, z) -> (cone_table rows, histogram)
        self._product_cache: dict = {}
        self._aut_lifts: dict = {}     # x -> derived_aut_lifts(x)

    # -- basis bookkeeping -------------------------------------------------

    def zero_key(self) -> BasisKey:
        if self.mode == "classical":
            return self.catalog.zero_index
        return DerivedClass.zero()

    def basis_keys(self) -> list:
        if self.mode == "classical":
            return list(range(len(self.catalog)))
        lo, hi = self.window
        nonzero = [
            e.index for e in self.catalog.entries if not e.rep.is_zero()
        ]
        keys = []
        for combo in itertools.product(*([None] + nonzero,) * (hi - lo + 1)):
            entries = tuple(
                (lo + off, idx)
                for off, idx in enumerate(combo)
                if idx is not None
            )
            keys.append(DerivedClass(entries))
        return sorted(keys)

    def key_name(self, key: BasisKey) -> str:
        if self.mode == "classical":
            return self.catalog.name(key)
        return key.name(self.catalog)

    def key_dims(self, key: BasisKey) -> tuple:
        """Per-degree dimension vectors: {degree: dims} (degree 0 only for
        classical keys)."""
        if self.mode == "classical":
            return ((0, self.catalog.dims(key)),)
        return tuple((d, self.catalog.dims(i)) for d, i in key.entries)

    def keys_in_bound(self, keys: Iterable[BasisKey]) -> bool:
        """True when the per-degree componentwise dimension sums stay within
        the catalog bound, which guarantees every intermediate product is
        representable."""
        totals: Dict[int, list] = {}
        n = self.catalog.quiver.vertex_count
        for key in keys:
            for deg, dims in self.key_dims(key):
                acc = totals.setdefault(deg, [0] * n)
                for v, d in enumerate(dims):
                    acc[v] += d
        return all(
            all(d <= b for d, b in zip(dims, self.catalog.bound))
            for dims in totals.values()
        )

    def chi(self, key: BasisKey) -> "HallElement":
        return HallElement(self, {key: Fraction(1)})


class HallElement:
    """Finite-support exact-rational combination of basis classes."""

    __slots__ = ("context", "values")

    def __init__(self, context: HallContext, values: Optional[dict] = None):
        self.context = context
        self.values: Dict[BasisKey, Fraction] = {}
        for k, v in (values or {}).items():
            v = Fraction(v)
            if v:
                self.values[k] = v

    def __add__(self, other: "HallElement") -> "HallElement":
        self._check(other)
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, Fraction(0)) + v
        return HallElement(self.context, out)

    def __sub__(self, other: "HallElement") -> "HallElement":
        return self + other.scale(-1)

    def scale(self, c) -> "HallElement":
        c = Fraction(c)
        return HallElement(self.context, {k: c * v for k, v in self.values.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HallElement)
            and self.context is other.context
            and self.values == other.values
        )

    def __call__(self, key: BasisKey) -> Fraction:
        return self.values.get(key, Fraction(0))

    def sorted_items(self) -> list:
        return sorted(self.values.items(), key=lambda kv: kv[0])

    def _check(self, other: "HallElement") -> None:
        if other.context is not self.context:
            raise InputError("elements live in different Hall contexts")

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{v}*{self.context.key_name(k)}" for k, v in self.sorted_items()
        )
        return f"HallElement({terms or '0'})"


# -- classical engine --------------------------------------------------------


def subrep_histogram(ctx: HallContext, z: int) -> dict:
    """{(sub class, quotient class): count} over all subrepresentations of
    the canonical representative of z."""
    hist = ctx._subrep_hist.get(z)
    if hist is None:
        hist = {}
        cat = ctx.catalog
        for sr in reps.enumerate_subreps(cat.rep(z), cap=ctx.caps.candidates):
            key = (cat.classify(sr.sub), cat.classify(sr.quot))
            hist[key] = hist.get(key, 0) + 1
        ctx._subrep_hist[z] = hist
    return hist


def hall_number_classical(ctx: HallContext, x: int, y: int, z: int) -> int:
    """#{U <= z : U = x, z/U = y} (isomorphism classes); zero unless
    dim z = dim x + dim y."""
    cat = ctx.catalog
    for idx in (x, y, z):
        if not 0 <= idx < len(cat):
            raise InputError(f"unknown catalog class {idx}")
    return subrep_histogram(ctx, z).get((x, y), 0)


def count_exact_sequences(ctx: HallContext, x: int, y: int, z: int) -> int:
    """Number of pairs (i: x -> z injective, p: z -> y surjective) with
    im i = ker p; the short-exact-sequence oracle behind the
    |Aut x| |Aut y| factor identity."""
    cat = ctx.catalog
    xr, yr, zr = cat.rep(x), cat.rep(y), cat.rep(z)
    if tuple(a + b for a, b in zip(xr.dims, yr.dims)) != zr.dims:
        return 0
    inj_by_image: Dict[tuple, int] = {}
    for f in reps.enumerate_homs(xr, zr, cap=ctx.caps.candidates):
        if f.is_injective():
            key = f.image_key()
            inj_by_image[key] = inj_by_image.get(key, 0) + 1
    if not inj_by_image:
        return 0
    total = 0
    for g in reps.enumerate_homs(zr, yr, cap=ctx.caps.candidates):
        if g.is_surjective():
            # canonical RREF bases make image/kernel subspaces comparable
            total += inj_by_image.get(g.kernel_key(), 0)
    return total


def classical_product(ctx: HallContext, x: int, y: int) -> dict:
    """{z: g(x, y; z)} with every structure constant computed; raises when
    dim x + dim y leaves the catalog bound."""
    cat = ctx.catalog
    dims = tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y)))
    if any(d > b for d, b in zip(dims, cat.bound)):
        raise OutOfUniverseError(
            f"product dims {dims} exceed catalog bound {cat.bound}"
        )
    out = {}
    for z in cat.classes_with_dims(dims):
        g = hall_number_classical(ctx, x, y, z)
        if g:
            out[z] = Fraction(g)
    return out


# -- derived engine ------------------------------------------------------------


def cone_table(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> list:
    """[(class vector, derived class of its cone)] over all Hom classes
    f: x -> z.  Cones whose homology leaves the catalog bound get None.
    The rows are cached on the context together with their histogram.

    The class count is cross-checked against p^ext_dim(x, z, 0) on every
    computation.  Both read the per-summand blocks of derived.hom_block,
    each of which checks its dim against the module route when it is
    built, so the check ties the enumeration of the assembled table to the
    module Hom and Ext^1 dimensions.  Cones are classified by
    ConeClassifier, without building a Complex per class.
    """
    key = (x, z)
    got = ctx._cone_hist.get(key)
    if got is None:
        cat = ctx.catalog
        table = hom_class_table(
            cat, x, z, cap=ctx.caps.candidates, max_exponent=ctx.caps.hom_exponent
        )
        classify = ConeClassifier(table, cat)
        rows = [(vec, classify(vec)) for vec in table.class_vectors()]
        expected = cat.p ** ext_dim(x, z, 0, cat, cap=ctx.caps.candidates)
        if len(rows) != expected:
            raise InvariantError(
                f"cone_table({x.name(cat)} -> {z.name(cat)}): hom class count "
                f"{len(rows)} != p^ext_dim = {expected}: enumeration "
                f"routes disagree"
            )
        hist: dict = {}
        for _, dc in rows:
            hist[dc] = hist.get(dc, 0) + 1
        got = ctx._cone_hist[key] = (rows, hist)
    return got[0]


def cone_histogram(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> dict:
    """{derived class of cone(f): count} over all Hom classes f: x -> z:
    the dict cone_table caches next to its rows, shared by every caller."""
    cone_table(ctx, x, z)
    return ctx._cone_hist[(x, z)][1]


def derived_aut_order(ctx: HallContext, x: DerivedClass) -> int:
    """|Aut(x)| in the derived sense: Hom classes x -> x with zero cone."""
    return cone_histogram(ctx, x, x).get(DerivedClass.zero(), 0)


def derived_aut_lifts(ctx: HallContext, x: DerivedClass) -> list:
    """One endomorphism lift per derived automorphism class of x.

    The automorphism classes live in the table of maps P(x) -> C(x); acting
    on other Hom sets needs genuine chain maps P(x) -> P(x), so each class
    is lifted through the augmentation quasi-isomorphism by solving a linear
    system over the chain-map space of (P(x), P(x)).  Cached on the
    context; the orbit check of hallalg.verify acts by these lifts.
    """
    cache = ctx._aut_lifts
    if x in cache:
        return cache[x]
    cat = ctx.catalog
    table = hom_class_table(cat, x, x, cap=ctx.caps.candidates,
                            max_exponent=ctx.caps.hom_exponent)
    P = table.X
    pp = HomotopyClasses(P, P, cap=ctx.caps.candidates,
                         max_exponent=ctx.caps.hom_exponent)
    eps = augmentation_map(cat, x)

    pp_maps = [pp.lift(b) for b in pp.cycle_basis]
    eps_cols = [table.vector_of(eps.compose(g)) for g in pp_maps]
    null_cols = list(table.null.basis())
    cols = eps_cols + null_cols
    p = cat.p

    lifts = []
    for vec, cone in cone_table(ctx, x, x):
        if cone != DerivedClass.zero():
            continue
        if not cols:
            # only the empty complex: the identity of the zero object
            lifts.append(ChainMap(P, P, {}, validate=False))
            continue
        res = solve(FqMatrix.from_cols(p, len(vec), cols), vec)
        if res is None:
            raise InvariantError(
                f"derived automorphisms of {x.name(cat)}: class {tuple(vec)} "
                f"does not lift to a chain map P -> P"
            )
        coeffs = res[0][: len(eps_cols)]
        g = ChainMap(P, P, {}, validate=False)
        for c, base in zip(coeffs, pp_maps):
            if c:
                scaled = ChainMap(
                    P, P, {n: m.scale(c) for n, m in base.mats.items()},
                    validate=False,
                )
                g = g + scaled
        if table.canon(table.vector_of(eps.compose(g))) != table.canon(vec):
            raise InvariantError(
                f"derived automorphisms of {x.name(cat)}: the lift of class "
                f"{tuple(vec)} lies in another class"
            )
        lifts.append(g)
    cache[x] = lifts
    return lifts


def ext_alternating_product(ctx: HallContext, x: DerivedClass,
                            z: DerivedClass) -> Fraction:
    """prod_(i>0) |Ext^-i(x, z)|^((-1)^i), exact."""
    cat = ctx.catalog
    if not x.entries or not z.entries:
        return Fraction(1)
    # Ext^-i(x, z) can only be nonzero for i <= max deg(x) - min deg(z) + 1
    imax = max(d for d, _ in x.entries) - min(d for d, _ in z.entries) + 1
    out = Fraction(1)
    for i in range(1, imax + 1):
        d = ext_dim(x, z, -i, cat, cap=ctx.caps.candidates)
        if d:
            q = Fraction(cat.p**d)
            out *= (1 / q) if i % 2 else q
    return out


def derived_hall_number(ctx: HallContext, x: DerivedClass, y: DerivedClass,
                        z: DerivedClass) -> Fraction:
    """The cone-counting structure constant; an exact nonnegative rational."""
    count = cone_histogram(ctx, x, z).get(y, 0)
    if not count:
        return Fraction(0)
    aut_x = derived_aut_order(ctx, x)
    num = Fraction(count) * ext_alternating_product(ctx, x, z)
    den = Fraction(aut_x) * ext_alternating_product(ctx, x, x)
    return num / den


def derived_support(ctx: HallContext, x: DerivedClass, y: DerivedClass) -> list:
    """The exact support of chi_x * chi_y: z occurs iff z is the cone of
    some Hom class y[-1] -> x (triangle rotation).  Any unrepresentable cone
    means the product truly leaves the universe: raise, never truncate."""
    hist = cone_histogram(ctx, y.shift(-1), x)
    if None in hist:
        raise OutOfUniverseError(
            f"product {ctx.key_name(x)} * {ctx.key_name(y)} has support "
            f"outside the catalog bound"
        )
    lo, hi = ctx.window
    support = sorted(hist)
    for z in support:
        if z.entries and not (lo <= z.entries[0][0] and z.entries[-1][0] <= hi):
            raise OutOfUniverseError(
                f"product support {ctx.key_name(z)} leaves the shift window"
            )
    return support


def derived_product(ctx: HallContext, x: DerivedClass, y: DerivedClass) -> dict:
    out = {}
    for z in derived_support(ctx, x, y):
        g = derived_hall_number(ctx, x, y, z)
        if g:
            out[z] = g
    return out


# -- the bilinear product -------------------------------------------------------


def basis_product(ctx: HallContext, x: BasisKey, y: BasisKey) -> dict:
    key = (x, y)
    got = ctx._product_cache.get(key)
    if got is None:
        if ctx.mode == "classical":
            got = classical_product(ctx, x, y)
        else:
            got = derived_product(ctx, x, y)
        ctx._product_cache[key] = got
    return got


def multiply(a: HallElement, b: HallElement) -> HallElement:
    """Bilinear extension of the mode's structure constants."""
    if a.context is not b.context:
        raise InputError("elements live in different Hall contexts")
    ctx = a.context
    out: Dict[BasisKey, Fraction] = {}
    for x, cx in a.values.items():
        for y, cy in b.values.items():
            for z, g in basis_product(ctx, x, y).items():
                out[z] = out.get(z, Fraction(0)) + cx * cy * g
    return HallElement(ctx, out)
