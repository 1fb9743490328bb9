"""Hall numbers and the Hall algebra, classical and derived.

Classical structure constants count subrepresentations: g(x, y; z) is the
number of subrepresentations U <= z with U isomorphic to x and z/U
isomorphic to y.  The equivalent exact-sequence count divided by
|Aut x| |Aut y| is computed independently (count_exact_sequences) and tied
to the subobject count by a tested identity, not assumed.

Derived structure constants are Toën's cone counts,

    g(x, y; z) = |[x,z]_y| prod_(i>0) |Ext^-i(x,z)|^((-1)^i)
                 / ( |Aut x| prod_(i>0) |Ext^-i(x,x)|^((-1)^i) )

where [x,z]_y is the set of derived Hom classes x -> z whose mapping cone
is quasi-isomorphic to y, enumerated exhaustively.  |Aut x| is the number
of Hom classes x -> x with vanishing cone (derived_aut_order), which for
module stalks equals the module automorphism count.

Triangles rotate: x -> z -> y -> x[1] is y[-1] -> x -> z -> y, so the same
constant is also a count over the Hom classes y[-1] -> x,

    g(x, y; z) = N * |Aut z| / (|Aut x| |Aut y|)
                 * p^(E(y[-1], x) + E(z, z) - E(x, x) - E(y, y))

with N the number of those classes whose cone is z and E = ext_exponent.
One histogram over Hom(y[-1], x) therefore gives both the exact support of
chi_x * chi_y (z occurs iff it is the cone of some y[-1] -> x) and every
structure constant of the product: derived_product, the production route,
builds it once per product and keeps it nowhere.  derived_hall_number, the
direct count over Hom(x, z), stays as the oracle (verify's stalk check and
the differential tests).  A support class whose homology leaves the
catalog bound raises OutOfUniverseError rather than being silently dropped.

The path algebra is hereditary, so |Aut x| also has a closed form
(derived_aut_formula).  An entry (n, a) of a DerivedClass is the stalk
a[-n], and Hom(a[-m], b[-n]) = Ext^(m-n)(a, b) vanishes unless m - n is 0
or 1.  So End(x) is the product of the End(x_n) plus the square-zero ideal
of the Ext^1(x_(n+1), x_n) (a product of two of them lands in Ext^2 = 0),
and an endomorphism is invertible iff its diagonal part is:

    |Aut x| = prod_n |Aut x_n| * p^(sum_n dim Ext^1(x_(n+1), x_n))

(Toën, math/0501343; Xiao-Xu, math/0608144).  derived_product reads the
closed form; derived_hall_number and the automorphism lifts of the orbit
check read the count, so the two routes share no value.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Union

from .catalog import Catalog
from .derived import (
    ConeBlocks,
    DerivedClass,
    HomotopyClasses,
    augmentation_map,
    combinations,
    ext_dim,
    hom_class_table,
)
from .errors import InputError, InvariantError, OutOfUniverseError
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
        self._monos: dict = {}         # (a, b) -> mono_keys(a, b)
        self._mono_images: dict = {}   # (x, z) -> {image key: #monos}
        self._epi_kernels: dict = {}   # (z, y) -> {kernel key: #epis}
        self._subspaces: dict = {}     # image/kernel key -> the one copy kept
        self._cone_hist: dict = {}     # (x, z) -> cone_histogram(x, z)
        self._aut_orders: dict = {}    # x -> derived_aut_order(x), the count
        self._aut_formula: dict = {}   # x -> derived_aut_formula(x)
        self._cone_rows: dict = {}     # (x, z) -> cone_table rows
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
    the canonical representative of z.

    One closure search (reps.subobjects) over the per-vertex subspace
    tables; each closed tuple is classified by two key lookups, of
    reps.sub_key and reps.quotient_key, with no Representation or
    morphism built."""
    hist = ctx._subrep_hist.get(z)
    if hist is None:
        hist = {}
        cat = ctx.catalog
        rep = cat.rep(z)
        for bases, sub in reps.subobjects(rep, cap=ctx.caps.candidates):
            key = (cat.classify_key(sub),
                   cat.classify_key(reps.quotient_key(rep, bases)))
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
    |Aut x| |Aut y| factor identity.

    Reads two histograms that the context caches, {image: #monos x -> z}
    over mono_keys (the monos the span model and the orbit check read) and
    {kernel: #epis z -> y} over its own sweep of reps.hom_keys; the count
    is the sum of their products over equal subspaces of z.  Never reads
    subreps.
    """
    cat = ctx.catalog
    if tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y))) != cat.dims(z):
        return 0
    if (x, z) not in ctx._mono_images:
        ctx._mono_images[(x, z)] = Counter(im for _, im in mono_keys(ctx, x, z))
    monos = ctx._mono_images[(x, z)]
    if not monos:
        return 0
    epis = _subspace_histogram(ctx, z, y)
    # canonical RREF bases make image/kernel subspaces comparable
    return sum(n * monos.get(k, 0) for k, n in epis.items())


def mono_keys(ctx: HallContext, a: int, b: int) -> tuple:
    """((key, image key), ...) over the injective keys of Hom(a, b) on the
    catalog representatives, in the order of reps.hom_keys; cached per
    (a, b), the images interned in ctx._subspaces.  Empty, with no
    enumeration, when some dim of a exceeds that of b."""
    got = ctx._monos.get((a, b))
    if got is None:
        ra, rb = ctx.catalog.rep(a), ctx.catalog.rep(b)
        keys = ()
        if all(da <= db for da, db in zip(ra.dims, rb.dims)):
            keys = reps.hom_keys(ra, rb, cap=ctx.caps.candidates)
        got = ctx._monos[(a, b)] = tuple(
            (k, ctx._subspaces.setdefault(im, im)) for k in keys
            if (im := reps.mono_image_key(ra, rb, k)) is not None)
    return got


def _subspace_histogram(ctx: HallContext, z: int, y: int) -> dict:
    """{epi kernel key: count} over the surjective keys of Hom(z, y) on the
    catalog representatives, cached per (z, y) in ctx._epi_kernels; the
    kernels are interned in ctx._subspaces, as mono_keys interns images."""
    hist = ctx._epi_kernels.get((z, y))
    if hist is None:
        rz, ry = ctx.catalog.rep(z), ctx.catalog.rep(y)
        hist = ctx._epi_kernels[(z, y)] = Counter(
            ctx._subspaces.setdefault(ker, ker)
            for k in reps.hom_keys(rz, ry, cap=ctx.caps.candidates)
            if (ker := reps.epi_kernel_key(rz, ry, k)) is not None)
    return hist


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


def cone_counts(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> dict:
    """{derived class of cone(f): count} over all Hom classes f: x -> z;
    cones whose homology leaves the catalog bound count under None.  Not
    cached: derived_product reads each histogram once.

    The Hom classes are enumerated in summand-block coordinates
    (derived.ConeBlocks) and each cone is classified through the
    cone-homology memo the catalog shares, so no (x, z) table and no rows
    are built.  The class count is capped as hom_class_table caps it, and
    the enumerated total is cross-checked against p^ext_dim(x, z, 0).  Both
    read the per-summand blocks of derived.hom_block, each of which checks
    its dim against the module route when it is built, so the check ties
    the enumeration to the module Hom and Ext^1 dimensions.
    """
    cones = ConeBlocks(ctx.catalog, x, z, cap=ctx.caps.candidates,
                       max_exponent=ctx.caps.hom_exponent)
    hist = {}
    for coords in cones.coordinates():
        dc = cones.cone_class(coords)
        hist[dc] = hist.get(dc, 0) + 1
    _check_class_total(ctx, "cone_histogram", x, z, sum(hist.values()))
    return hist


def cone_histogram(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> dict:
    """cone_counts(ctx, x, z), cached on the context for derived_hall_number,
    whose callers (verify's stalk check, the tests) read the (x, z) and
    (x, x) histograms again."""
    hist = ctx._cone_hist.get((x, z))
    if hist is None:
        hist = ctx._cone_hist[(x, z)] = cone_counts(ctx, x, z)
    return hist


def cone_table(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> list:
    """[(class vector, derived class of its cone)] over all Hom classes
    f: x -> z, in the order of hom_class_table's class_vectors; cones whose
    homology leaves the catalog bound get None.  Cached on the context;
    only verify and derived_aut_lifts read rows.

    Each complement vector of the table is one coefficient on one summand
    block (SummandHomClasses.origin), so each row is classified through the
    same memo as cone_histogram, and its count is cross-checked the same way.
    """
    rows = ctx._cone_rows.get((x, z))
    if rows is None:
        cat = ctx.catalog
        caps = dict(cap=ctx.caps.candidates, max_exponent=ctx.caps.hom_exponent)
        table = hom_class_table(cat, x, z, **caps)
        cones = ConeBlocks(cat, x, z, **caps)
        slot = {key: s for s, key in enumerate(cones.keys)}
        origin = [(slot[key], i) for key, i in table.origin]
        rows = []
        for coeffs, vec in zip(itertools.product(range(cat.p), repeat=table.dim),
                               table.class_vectors()):
            coords = [[0] * d for d in cones.dims]
            for c, (s, i) in zip(coeffs, origin):
                coords[s][i] = c
            rows.append((vec, cones.cone_class(tuple(map(tuple, coords)))))
        _check_class_total(ctx, "cone_table", x, z, len(rows))
        ctx._cone_rows[(x, z)] = rows
    return rows


def _check_class_total(ctx: HallContext, layer: str, x: DerivedClass,
                       z: DerivedClass, count: int) -> None:
    cat = ctx.catalog
    expected = cat.p ** ext_dim(x, z, 0, cat, cap=ctx.caps.candidates)
    if count != expected:
        raise InvariantError(
            f"{layer}({x.name(cat)} -> {z.name(cat)}): hom class count "
            f"{count} != p^ext_dim = {expected}: enumeration routes disagree"
        )


def derived_aut_order(ctx: HallContext, x: DerivedClass) -> int:
    """|Aut(x)| in the derived sense: Hom classes x -> x with zero cone.
    Cached on the context as one int per key; the histogram is dropped."""
    order = ctx._aut_orders.get(x)
    if order is None:
        order = cone_counts(ctx, x, x).get(DerivedClass.zero(), 0)
        if not order:
            raise InvariantError(
                f"derived_aut_order({x.name(ctx.catalog)}): no Hom class "
                f"x -> x has a zero cone, not even the identity"
            )
        ctx._aut_orders[x] = order
    return order


def derived_aut_formula(ctx: HallContext, x: DerivedClass) -> int:
    """|Aut(x)| in closed form, prod_n |Aut x_n| * p^(sum_n dim
    Ext^1(x_(n+1), x_n)) over the degrees n of x (see the module
    docstring); cached on the context as one int per key.  derived_product
    reads this; derived_aut_order, the zero-cone count, is its oracle."""
    order = ctx._aut_formula.get(x)
    if order is None:
        cat = ctx.catalog
        e = sum(cat.ext1_dim(b, a)
                for (m, a), (n, b) in zip(x.entries, x.entries[1:]) if n == m + 1)
        order = ctx._aut_formula[x] = (
            math.prod(cat.aut_order(a) for _, a in x.entries) * cat.p ** e)
    return order


def derived_aut_lifts(ctx: HallContext, x: DerivedClass) -> list:
    """One chain map P(x) -> P(x) per derived automorphism class of x, by
    which the orbit check of hallalg.verify acts; cached on the context.

    Composing with the augmentation eps is a bijection [P(x), P(x)] ->
    [P(x), C(x)] (see hallalg.derived) and linear, so each class of
    HomotopyClasses(P(x), P(x)) maps to the same combination of the images
    of its complement, and the classes whose image has a zero cone are
    lifted.  The bijection and the count |Aut x| are checked.
    """
    cache = ctx._aut_lifts
    if x in cache:
        return cache[x]
    cat = ctx.catalog
    caps = dict(cap=ctx.caps.candidates, max_exponent=ctx.caps.hom_exponent)
    table = hom_class_table(cat, x, x, **caps)
    pp = HomotopyClasses(table.X, table.X, **caps)
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


def ext_exponent(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> int:
    """sum_(i>0) (-1)^i dim Ext^-i(x, z): over F_p every |Ext^-i(x, z)| is a
    power of p, so prod_(i>0) |Ext^-i(x, z)|^((-1)^i) = p^ext_exponent.
    ext_dim is additive over summand pairs, so this is the sum over the
    pairs (x_a at degree a, z_b at degree b) of the exponent of
    E(x_a[-a], z_b[-b]), which depends only on (x_a, z_b, a - b) and is
    cached on the catalog."""
    factors = ctx.catalog.derived_ext_factors
    total = 0
    for a_deg, a in x.entries:
        for b_deg, b in z.entries:
            e = factors.get((a, b, a_deg - b_deg))
            total += _ext_factor(ctx, a, b, a_deg - b_deg) if e is None else e
    return total


def _ext_factor(ctx: HallContext, a: int, b: int, k: int) -> int:
    """The exponent e of E(a[-k], b) = p^e for catalog module classes a, b,
    cached on the catalog per (a, b, k)."""
    cat = ctx.catalog
    x, z = DerivedClass.from_module(a, k), DerivedClass.from_module(b)
    # Ext^-i(x, z) can only be nonzero for i <= deg x - deg z + 1
    got = cat.derived_ext_factors[(a, b, k)] = sum(
        (-1) ** i * ext_dim(x, z, -i, cat, cap=ctx.caps.candidates)
        for i in range(1, k + 2))
    return got


def derived_hall_number(ctx: HallContext, x: DerivedClass, y: DerivedClass,
                        z: DerivedClass) -> Fraction:
    """Toën's direct count over Hom(x, z), count * p^e / |Aut x| with
    e = ext_exponent(x, z) - ext_exponent(x, x); an exact nonnegative
    rational.  The oracle of derived_product, which counts over
    Hom(y[-1], x) instead (see the module docstring)."""
    count = cone_histogram(ctx, x, z).get(y, 0)
    if not count:
        return Fraction(0)
    e = ext_exponent(ctx, x, z) - ext_exponent(ctx, x, x)
    return _times_p_power(ctx, count, derived_aut_order(ctx, x), e)


def _times_p_power(ctx: HallContext, num: int, den: int, e: int) -> Fraction:
    """num / den * p^e, exactly."""
    if e < 0:
        return Fraction(num, den * ctx.catalog.p ** -e)
    return Fraction(num * ctx.catalog.p ** e, den)


def _support(ctx: HallContext, x: DerivedClass, y: DerivedClass,
             hist: dict) -> list:
    """The sorted classes of hist, the cone histogram of y[-1] -> x.  Any
    unrepresentable cone means the product truly leaves the universe:
    raise, never truncate."""
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


def derived_support(ctx: HallContext, x: DerivedClass, y: DerivedClass) -> list:
    """The exact support of chi_x * chi_y: z occurs iff z is the cone of
    some Hom class y[-1] -> x (triangle rotation)."""
    return _support(ctx, x, y, cone_counts(ctx, y.shift(-1), x))


def derived_product(ctx: HallContext, x: DerivedClass, y: DerivedClass) -> dict:
    """{z: g(x, y; z)} from the one histogram N over Hom(y[-1], x), by the
    rotation identity of the module docstring, with every |Aut| in closed
    form, prod_n |Aut x_n| * p^(sum_n dim Ext^1(x_(n+1), x_n))
    (derived_aut_formula: End(x) of a hereditary algebra is the product of
    the End(x_n) plus a square-zero ideal of Ext^1s), so no End space is
    enumerated.  A cap error can name a Hom space the direct count would
    not have read first; the exit code and the empty stdout of a table are
    the same."""
    y1 = y.shift(-1)
    hist = cone_counts(ctx, y1, x)
    support = _support(ctx, x, y, hist)
    den = derived_aut_formula(ctx, x) * derived_aut_formula(ctx, y)
    e = ext_exponent(ctx, y1, x) - ext_exponent(ctx, x, x) - ext_exponent(ctx, y, y)
    return {
        z: _times_p_power(ctx, hist[z] * derived_aut_formula(ctx, z), den,
                          e + ext_exponent(ctx, z, z))
        for z in support
    }


# -- the bilinear product -------------------------------------------------------


def compute_product(ctx: HallContext, x: BasisKey, y: BasisKey) -> dict:
    """{z: g(x, y; z)} by the context's mode, not cached: the tables
    compute each cell once."""
    if ctx.mode == "classical":
        return classical_product(ctx, x, y)
    return derived_product(ctx, x, y)


def basis_product(ctx: HallContext, x: BasisKey, y: BasisKey) -> dict:
    """compute_product, cached on the context per (x, y) for multiply."""
    got = ctx._product_cache.get((x, y))
    if got is None:
        got = ctx._product_cache[(x, y)] = compute_product(ctx, x, y)
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
