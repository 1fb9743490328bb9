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
builds it once per product and keeps it nowhere, and its keys are the
support (verify's orbit check reads them).  derived_hall_number, the
direct count over Hom(x, z), stays as the oracle (verify's stalk check and
the differential tests), with derived_aut_order reading the zero cones of
the cached (x, x) histogram.  A support class whose homology leaves the
catalog bound raises OutOfUniverseError rather than being silently dropped.

The path algebra is hereditary, so |Aut x| also has a closed form
(derived_aut_formula).  An entry (n, a) of a DerivedClass is the stalk
a[-n], and Hom(a[-m], b[-n]) = Ext^(m-n)(a, b) vanishes unless m - n is 0
or 1.  So End(x) is the product of the End(x_n) plus the square-zero ideal
of the Ext^1(x_(n+1), x_n) (a product of two of them lands in Ext^2 = 0),
and an endomorphism is invertible iff its diagonal part is:

    |Aut x| = prod_n |Aut x_n| * p^(sum_n dim Ext^1(x_(n+1), x_n))

(Toën, math/0501343; Xiao-Xu, math/0608144).  derived_product reads the
closed form and derived_hall_number the count, so the two routes share no
value; the orbit check acts by the zero-cone classes themselves
(derived_automorphisms), whose number is checked against the closed form.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Optional, Union

from .catalog import Catalog
from .derived import (
    ConeBlocks,
    DerivedClass,
    SummandHomClasses,
    hom_block,
)
from .errors import InputError, InvariantError, OutOfUniverseError
from . import reps

BasisKey = Union[int, DerivedClass]


class HallContext:
    """A fixed algebra universe: catalog plus mode (and shift window for the
    derived mode, (-2, 2) unless given).  Products that would leave the
    universe raise; they are never truncated, and no enumeration runs past
    `cap` candidates.  The context owns the caches of its products."""

    __slots__ = ("mode", "catalog", "window", "cap", "_subrep_hist", "_monos",
                 "_epi_kernels", "_cone_hist", "_aut_formula", "_self_ext",
                 "_product_cache", "_automorphisms")

    def __init__(self, mode: str, catalog: Catalog, window: Optional[tuple] = None,
                 cap: int = reps.DEFAULT_CAP):
        if mode not in ("classical", "derived"):
            raise InputError(f"unknown mode {mode!r}")
        if mode == "derived":
            if window is None:
                window = (-2, 2)
            lo, hi = window
            if lo > hi:
                raise InputError("empty shift window")
            if not catalog.quiver.is_acyclic():
                raise InputError("derived mode needs an acyclic quiver")
        self.mode = mode
        self.catalog = catalog
        self.window = window
        self.cap = cap
        self._subrep_hist: dict = {}
        self._monos: dict = {}         # (a, b) -> {image key: [mono keys]}
        self._epi_kernels: dict = {}   # (z, y) -> {kernel key: #epis}
        self._cone_hist: dict = {}     # (x, z) -> cone_histogram(x, z)
        self._aut_formula: dict = {}   # x -> derived_aut_formula(x)
        self._self_ext: dict = {}      # x -> ext_exponent(x, x)
        self._product_cache: dict = {}
        self._automorphisms: dict = {}  # x -> derived_automorphisms(x)

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
        return HallElement(self, {key: 1})


class HallElement:
    """Finite-support exact-rational combination of basis classes.

    A coefficient is an int when it is integral, else a Fraction: an int
    or a proper Fraction is kept as it is, a Fraction with denominator 1
    becomes its numerator, and only any other number goes through
    Fraction, so no float is ever stored.
    Classical structure constants count subobjects, so classical elements
    hold ints only; the span route and the derived constants bring in
    proper fractions."""

    __slots__ = ("context", "values")

    def __init__(self, context: HallContext, values: Optional[dict] = None):
        self.context = context
        self.values: Dict[BasisKey, Union[int, Fraction]] = {}
        for k, v in (values or {}).items():
            if type(v) is not int:
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v.denominator == 1:
                    v = v.numerator
            if v:
                self.values[k] = v

    def __add__(self, other: "HallElement") -> "HallElement":
        self._check(other)
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, 0) + v
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

    def __call__(self, key: BasisKey) -> Union[int, Fraction]:
        return self.values.get(key, 0)

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
    morphism built.  The search keeps the arrow images of subspace rows
    for its sweep of z; both keys read reductions modulo a subspace from
    the memo of reps._reduce, which outlives the sweep; the histogram
    itself is cached on the context."""
    hist = ctx._subrep_hist.get(z)
    if hist is None:
        hist = {}
        cat = ctx.catalog
        rep = cat.rep(z)
        for bases, sub in reps.subobjects(rep, cap=ctx.cap):
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

    Reads mono_keys(x, z), the monos grouped by image that the span model
    and the orbit check read, and {kernel: #epis z -> y}, the context's
    cached walk of Hom(z, y) by reps.hom_keys with row_kernel; the count is
    the sum over the epi kernels of #epis times #monos with that image.
    Never reads subreps.
    """
    cat = ctx.catalog
    if tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y))) != cat.dims(z):
        return 0
    monos = mono_keys(ctx, x, z)
    if not monos:
        return 0
    epis = _subspace_histogram(ctx, z, y)
    # canonical RREF bases make image/kernel subspaces comparable
    return sum(n * len(monos.get(k, ())) for k, n in epis.items())


def mono_keys(ctx: HallContext, a: int, b: int) -> dict:
    """{image key: [mono keys]} over the injective keys of Hom(a, b) on the
    catalog representatives: the subobject of b that each mono a -> b
    spans, with the monos spanning it in ascending key order, and the
    images in the order of their first key.  One walk of reps.hom_keys
    with column_space, which drops every key below a vertex block of rank
    less than its width and values each mono by its image key.  Cached per
    (a, b); empty, with no walk, when some dim of a exceeds that of b."""
    got = ctx._monos.get((a, b))
    if got is None:
        got = ctx._monos[(a, b)] = {}
        ra, rb = ctx.catalog.rep(a), ctx.catalog.rep(b)
        if all(da <= db for da, db in zip(ra.dims, rb.dims)):
            for k, image in reps.hom_keys(ra, rb, reps.column_space, cap=ctx.cap):
                got.setdefault(image, []).append(k)
    return got


def _subspace_histogram(ctx: HallContext, z: int, y: int) -> dict:
    """{epi kernel key: count} over the surjective keys of Hom(z, y) on the
    catalog representatives: one walk of reps.hom_keys with row_kernel,
    which drops every key below a vertex block of rank less than its height
    and values each epi by its kernel key.  Cached per (z, y) in
    ctx._epi_kernels."""
    hist = ctx._epi_kernels.get((z, y))
    if hist is None:
        rz, ry = ctx.catalog.rep(z), ctx.catalog.rep(y)
        hist = ctx._epi_kernels[(z, y)] = Counter(
            kernel for _, kernel in reps.hom_keys(rz, ry, reps.row_kernel, cap=ctx.cap))
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
            out[z] = g
    return out


# -- derived engine ------------------------------------------------------------


def cone_counts(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> dict:
    """{derived class of cone(f): count} over all Hom classes f: x -> z;
    cones whose homology leaves the catalog bound count under None.  Not
    cached: derived_product reads each histogram once.

    The Hom classes are enumerated in summand-block coordinates
    (derived.ConeBlocks) and each cone is classified through the
    cone-homology memo the catalog shares, so no (x, z) table and no rows
    are built.  ConeBlocks caps the class count as hom_class_table caps
    it and checks it against p^ext_dim(x, z, 0) when it is built.
    """
    cones = ConeBlocks(ctx.catalog, x, z, cap=ctx.cap)
    return Counter(map(cones.cone_class, cones.coordinates()))


def cone_histogram(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> dict:
    """cone_counts(ctx, x, z), cached on the context for derived_hall_number
    and derived_aut_order, whose callers (verify's stalk check, the tests)
    read the (x, z) and (x, x) histograms again."""
    hist = ctx._cone_hist.get((x, z))
    if hist is None:
        hist = ctx._cone_hist[(x, z)] = cone_counts(ctx, x, z)
    return hist


def cone_table(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> list:
    """[(class vector in hom_class_table, derived class of its cone or
    None)] over all Hom classes f: x -> z, in the order of
    ConeBlocks.coordinates, classified as cone_histogram classifies them;
    only the tests read rows, against the whole-table oracle."""
    cat = ctx.catalog
    table = SummandHomClasses(cat, x, z)
    cones = ConeBlocks(cat, x, z, cap=ctx.cap)
    return [(tuple(table.vector(dict(zip(cones.keys, coords)))), cones.cone_class(coords))
            for coords in cones.coordinates()]


def derived_aut_order(ctx: HallContext, x: DerivedClass) -> int:
    """|Aut(x)| in the derived sense: Hom classes x -> x with zero cone,
    read off cone_histogram(x, x), which the context caches.  Reads no
    value of derived_aut_formula, whose oracle it is."""
    order = cone_histogram(ctx, x, x).get(DerivedClass.zero(), 0)
    if not order:
        raise InvariantError(
            f"derived_aut_order({x.name(ctx.catalog)}): no Hom class "
            f"x -> x has a zero cone, not even the identity"
        )
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


def derived_automorphisms(ctx: HallContext, x: DerivedClass) -> list:
    """The derived automorphisms of x, the Hom classes x -> x with a zero
    cone, as ConeBlocks(x, x) coordinates: what the orbit check of
    hallalg.verify acts by.  Cached on the context per key; their number is
    checked against derived_aut_formula, and the End(x) sweep's count
    against p^ext_dim(x, x, 0) by ConeBlocks."""
    auts = ctx._automorphisms.get(x)
    if auts is None:
        cones = ConeBlocks(ctx.catalog, x, x, cap=ctx.cap)
        auts = [g for g in cones.coordinates()
                if cones.cone_class(g) == DerivedClass.zero()]
        order = derived_aut_formula(ctx, x)
        if len(auts) != order:
            raise InvariantError(
                f"derived automorphisms of {x.name(ctx.catalog)}: {len(auts)} Hom "
                f"classes x -> x with a zero cone != derived_aut_formula {order}"
            )
        ctx._automorphisms[x] = auts
    return auts


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


def self_ext_exponent(ctx: HallContext, x: DerivedClass) -> int:
    """ext_exponent(ctx, x, x), cached on the context as one int per key:
    derived_product reads E(x, x), E(y, y) and E(z, z) for every cell.
    derived_hall_number, its oracle, calls ext_exponent uncached."""
    e = ctx._self_ext.get(x)
    if e is None:
        e = ctx._self_ext[x] = ext_exponent(ctx, x, x)
    return e


def _ext_factor(ctx: HallContext, a: int, b: int, k: int) -> int:
    """The exponent e of E(a[-k], b) = p^e for catalog module classes a, b,
    cached on the catalog per (a, b, k).  Ext^-i(a[-k], b) is
    hom_block(a, b, k - i), read by its dim alone: no class of it is
    enumerated, so no class-count cap applies."""
    cat = ctx.catalog
    # Ext^-i(a[-k], b) can only be nonzero for i <= k + 1
    got = cat.derived_ext_factors[(a, b, k)] = sum(
        (-1) ** i * hom_block(cat, a, b, k - i).dim for i in range(1, k + 2))
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


def derived_product(ctx: HallContext, x: DerivedClass, y: DerivedClass) -> dict:
    """{z: g(x, y; z)} from the one histogram N over Hom(y[-1], x), by the
    rotation identity of the module docstring, with every |Aut| in closed
    form, prod_n |Aut x_n| * p^(sum_n dim Ext^1(x_(n+1), x_n))
    (derived_aut_formula: End(x) of a hereditary algebra is the product of
    the End(x_n) plus a square-zero ideal of Ext^1s), so no End space is
    enumerated, and each E(x, x) is read once per key
    (self_ext_exponent).  A cap error can name a Hom space the direct count
    would not have read first; the exit code and the empty stdout of a
    table are the same."""
    y1 = y.shift(-1)
    hist = cone_counts(ctx, y1, x)
    support = _support(ctx, x, y, hist)
    den = derived_aut_formula(ctx, x) * derived_aut_formula(ctx, y)
    e = (ext_exponent(ctx, y1, x) - self_ext_exponent(ctx, x)
         - self_ext_exponent(ctx, y))
    return {
        z: _times_p_power(ctx, hist[z] * derived_aut_formula(ctx, z), den,
                          e + self_ext_exponent(ctx, z))
        for z in support
    }


# -- the bilinear product -------------------------------------------------------


def compute_product(ctx: HallContext, x: BasisKey, y: BasisKey) -> dict:
    """{z: g(x, y; z)} by the context's mode, not cached: the tables
    compute each cell once.  The terms come in ascending key order, which
    the table writers rely on: classical_product walks classes_with_dims
    (ascending indices) and derived_product the sorted support."""
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
    out: Dict[BasisKey, Union[int, Fraction]] = {}
    for x, cx in a.values.items():
        for y, cy in b.values.items():
            for z, g in basis_product(ctx, x, y).items():
                out[z] = out.get(z, 0) + cx * cy * g
    return HallElement(ctx, out)
