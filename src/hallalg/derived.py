"""Bounded complexes, mapping cones and derived Hom for hereditary quivers.

Shift convention (fixed once): complexes are cohomological, the differential
raises degree, and (x[1])^n = x^(n+1), so a module stalk in degree 0 shifted
by [1] sits in degree -1.  The triangle of a chain map f: x -> z is
x -> z -> cone(f) -> x[1].

Because the path algebra of an acyclic quiver is hereditary, every bounded
complex is quasi-isomorphic to its homology; a DerivedClass records exactly
that normal form: the catalog class of H^n for each degree n.

Derived Hom is computed on the nose as chain maps out of a projective
realization (each summand replaced by its two-term projective resolution),
modulo null-homotopic maps.  All of it is exact F_p linear algebra.

Both inputs of the cone count are local, and each local piece is computed
once per catalog.  Hom(x, z) is a direct sum over pairs of summands, one
solved block per (summand class, summand class, shift) (hom_block), so a
Hom class is a tuple of coefficient tuples over the block complements
(ConeBlocks).  H^n of its cone reads three of those blocks, so its class is
memoized per signature (x_n, x_(n+1), z_n, z_(n+1)) and the three
coefficient tuples.  A miss of the zero class is read off the signature
(the cone of 0 is x[1] (+) z), and any other miss is computed on one local
two-degree table per signature, of which only the ConeDegree of H^0 and
the blocks' positions and complements are kept: counting cones builds no
(x, z) table.

P(A) is K-projective, so composing with the augmentation P(B[k]) ->
C(B[k]) is a bijection [P(A), P(B[k])] -> [P(A), C(B[k])] on Hom classes.
Through it, composition_table composes block complements once per catalog
triple, and precompositions acts on the block coordinates by them.
hom_class_table, the whole-table solve, is the oracle of the block
coordinates, and derived_class_of(mapping_cone(...)) the cone oracle.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Dict, Iterator, Optional, Sequence

from .errors import (
    EnumerationCapError,
    Frozen,
    InputError,
    InvariantError,
    OutOfUniverseError,
)
from .fq import FqMatrix, RowSpace, complement_basis, intertwining_rows, kernel_rows
from .catalog import Catalog, _direct_sum_key
from . import reps
from .reps import Representation, RepMorphism


@functools.total_ordering
class DerivedClass(Frozen):
    """Quasi-isomorphism class: ((degree, catalog class index), ...) sorted
    by degree, at most one entry per degree, zero classes omitted.

    An immutable value (errors.Frozen) ordered, compared and hashed by its
    entries, with the hash of the tuple (entries,); the hash is computed
    once, and equality and order are written out, since every cell of a
    derived table hashes and sorts its keys and cone classes."""

    _fields = ("entries",)
    __slots__ = (*_fields, "_hash")

    def __init__(self, entries: tuple):
        if any(a[0] >= b[0] for a, b in zip(entries, entries[1:])):
            raise InputError("derived class entries must be sorted, one per degree")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash((entries,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not DerivedClass:
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self.entries == other.entries)

    def __lt__(self, other):
        return (self.entries < other.entries if other.__class__ is DerivedClass
                else NotImplemented)

    @classmethod
    def from_module(cls, class_index: int, degree: int = 0) -> "DerivedClass":
        return cls(((degree, class_index),))

    @classmethod
    def zero(cls) -> "DerivedClass":
        return cls(())

    def is_zero(self) -> bool:
        return not self.entries

    def shift(self, k: int) -> "DerivedClass":
        return DerivedClass(tuple((d - k, i) for d, i in self.entries))

    def degrees(self) -> tuple:
        return tuple(d for d, _ in self.entries)

    def class_at(self, degree: int) -> Optional[int]:
        for d, i in self.entries:
            if d == degree:
                return i
        return None

    def name(self, cat: Catalog) -> str:
        if not self.entries:
            return "0"
        return "+".join(
            f"{cat.name(i)}[{-d}]" if d else cat.name(i) for d, i in self.entries
        )


class Complex:
    """A bounded cochain complex of representations; d(n): rep(n) -> rep(n+1),
    with d o d = 0 enforced on construction."""

    __slots__ = ("quiver", "p", "lo", "reps", "diffs", "_zero")

    def __init__(self, quiver, p: int, lo: int, reps_: Sequence[Representation],
                 diffs: Sequence[RepMorphism]):
        if reps_ and len(diffs) != len(reps_) - 1:
            raise InputError("need one differential per consecutive degree pair")
        if not reps_ and diffs:
            raise InputError("empty complex cannot carry differentials")
        self.quiver = quiver
        self.p = p
        self.lo = lo
        self.reps = tuple(reps_)
        self.diffs = tuple(diffs)
        self._zero = Representation.zero(quiver, p)
        for n, d in enumerate(self.diffs):
            if d.source != self.reps[n] or d.target != self.reps[n + 1]:
                raise InputError("differential endpoints mismatch")
        for n in range(len(self.diffs) - 1):
            if not self.diffs[n + 1].compose(self.diffs[n]).is_zero():
                raise InputError("d o d != 0")

    @property
    def hi(self) -> int:
        return self.lo + len(self.reps) - 1

    def rep(self, n: int) -> Representation:
        if self.lo <= n <= self.hi:
            return self.reps[n - self.lo]
        return self._zero

    def diff(self, n: int) -> RepMorphism:
        if self.lo <= n < self.hi:
            return self.diffs[n - self.lo]
        return RepMorphism.zero(self.rep(n), self.rep(n + 1))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def total_dim(self) -> int:
        return sum(r.total_dim for r in self.reps)

    def shift(self, k: int) -> "Complex":
        """x[k]: degree n holds x^(n+k); differentials pick up (-1)^k."""
        diffs = self.diffs if k % 2 == 0 else tuple(-d for d in self.diffs)
        return Complex(self.quiver, self.p, self.lo - k, self.reps, diffs)

    @classmethod
    def empty(cls, quiver, p: int) -> "Complex":
        return cls(quiver, p, 0, (), ())

    @classmethod
    def stalk(cls, rep: Representation, degree: int = 0) -> "Complex":
        return cls(rep.quiver, rep.p, degree, (rep,), ())


def homology(c: Complex) -> list:
    """[(degree, H^n as a Representation with induced arrow maps)] for every
    degree with nonzero homology; dim H^n = dim ker d^n - rank d^(n-1)."""
    out = []
    q, p = c.quiver, c.p
    for n in c.degrees():
        d_out = c.diff(n)
        d_in = c.diff(n - 1)
        rep_n = c.rep(n)

        comp_bases = []   # per vertex: ambient vectors spanning ker/im
        coord_mats = []   # per vertex: stacked (complement; image) basis rows
        for v in range(q.vertex_count):
            amb = rep_n.dims[v]
            im = RowSpace(p, amb)
            for j in range(d_in.mats[v].cols):
                im.add(d_in.mats[v].col(j))
            ker_rows = d_out.mats[v].kernel_basis().row_list()
            comp = complement_basis(im, ker_rows)
            if len(comp) != len(ker_rows) - im.dim:
                raise InvariantError(
                    f"homology: H^{n} at vertex {v}: complement of the "
                    f"{im.dim}-dim image in the {len(ker_rows)}-dim kernel has "
                    f"{len(comp)} vectors (d o d != 0)"
                )
            comp_bases.append(comp)
            rows = [list(w) for w in comp] + [list(r) for r in im.basis()]
            coord_mats.append(FqMatrix.from_rows(p, rows, amb))

        dims = tuple(len(cb) for cb in comp_bases)
        if not any(dims):
            continue

        def quot_coords(v: int, vec) -> tuple:
            res = _solve_matrix(coord_mats[v].transpose(), vec)
            return res[: len(comp_bases[v])]

        mats = [
            FqMatrix.from_cols(p, dims[t], [
                quot_coords(t, rep_n.mats[idx].mul_vec(w)) for w in comp_bases[s]
            ])
            for idx, (s, t) in enumerate(q.arrows)
        ]
        out.append((n, Representation(q, p, dims, mats)))
    return out


def _solve_matrix(a: FqMatrix, b) -> tuple:
    from .fq import solve
    res = solve(a, b)
    if res is None:
        raise InvariantError(
            "homology: coordinate solve left the span of the complement and "
            "image bases"
        )
    return res[0]


def derived_class_of(c: Complex, cat: Catalog, strict: bool = True) -> Optional[DerivedClass]:
    """Classify a complex up to quasi-isomorphism: the catalog class of each
    homology representation, by degree.  Requires an acyclic quiver (the
    hereditary decomposition is what makes homology a complete invariant).

    strict=True raises OutOfUniverseError when some homology leaves the
    catalog bound; strict=False returns None instead.
    """
    if not cat.quiver.is_acyclic():
        raise InputError("derived classification needs an acyclic quiver")
    entries = []
    for n, h in homology(c):
        try:
            idx = cat.classify(h)
        except OutOfUniverseError:
            if strict:
                raise
            return None
        if not cat.rep(idx).is_zero():
            entries.append((n, idx))
    return DerivedClass(tuple(entries))


def stalk_realization(cat: Catalog, dc: DerivedClass) -> Complex:
    """The split realization: class reps placed at their degrees, zero
    differentials."""
    cache = cat.derived_stalks
    if dc not in cache:
        cache[dc] = _stalk_realization(cat, dc)
    return cache[dc]


def _stalk_realization(cat: Catalog, dc: DerivedClass) -> Complex:
    if dc.is_zero():
        return Complex.empty(cat.quiver, cat.p)
    lo = dc.entries[0][0]
    hi = dc.entries[-1][0]
    reps_ = []
    for n in range(lo, hi + 1):
        i = dc.class_at(n)
        reps_.append(cat.rep(i) if i is not None else Representation.zero(cat.quiver, cat.p))
    diffs = [RepMorphism.zero(reps_[k], reps_[k + 1]) for k in range(len(reps_) - 1)]
    return Complex(cat.quiver, cat.p, lo, reps_, diffs)


def projective_realization(cat: Catalog, dc: DerivedClass) -> Complex:
    """Quasi-isomorphic complex of projectives: the summand at degree a is
    replaced by its standard resolution placed in degrees a-1, a.

    Degree n holds p0(summand at n) (+) p1(summand at n+1); the only nonzero
    differential blocks are the resolution maps delta.
    """
    cache = cat.derived_projectives
    if dc not in cache:
        cache[dc] = _projective_realization(cat, dc)
    return cache[dc]


def _projective_realization(cat: Catalog, dc: DerivedClass) -> Complex:
    if dc.is_zero():
        return Complex.empty(cat.quiver, cat.p)
    q, p = cat.quiver, cat.p
    res = {d: reps.standard_resolution(cat.rep(i)) for d, i in dc.entries}
    lo = dc.entries[0][0] - 1
    hi = dc.entries[-1][0]

    def part0(n):
        r = res.get(n)
        return r.p0 if r else Representation.zero(q, p)

    def part1(n):
        r = res.get(n)
        return r.p1 if r else Representation.zero(q, p)

    reps_ = [reps.direct_sum(part0(n), part1(n + 1)) for n in range(lo, hi + 1)]

    diffs = []
    for n in range(lo, hi):
        r_next = res.get(n + 1)
        # the one block p1(summand n+1) -> p0(summand n+1) is its delta
        mats = [
            FqMatrix.blocks(
                p, (part0(n + 1).dims[v], part1(n + 2).dims[v]),
                (part0(n).dims[v], part1(n + 1).dims[v]),
                {(0, 1): r_next.delta.mats[v]} if r_next else {},
            )
            for v in range(q.vertex_count)
        ]
        diffs.append(RepMorphism(reps_[n - lo], reps_[n - lo + 1], mats, validate=True))
    return Complex(q, p, lo, reps_, diffs)


def augmentation_map(cat: Catalog, dc: DerivedClass) -> "ChainMap":
    """The canonical quasi-isomorphism projective_realization -> stalk
    realization: aug on each p0 block, zero on p1 blocks."""
    P = projective_realization(cat, dc)
    C = stalk_realization(cat, dc)
    res = {d: reps.standard_resolution(cat.rep(i)) for d, i in dc.entries}
    q, p = cat.quiver, cat.p
    mats = {}
    for n in P.degrees():
        src, dst, r = P.rep(n), C.rep(n), res.get(n)
        if r is None:
            mats[n] = RepMorphism.zero(src, dst)
            continue
        # P^n = p0(summand n) (+) p1(summand n+1)
        mats[n] = RepMorphism(src, dst, [
            FqMatrix.blocks(p, (dst.dims[v],), (r.p0.dims[v], src.dims[v] - r.p0.dims[v]),
                            {(0, 0): r.aug.mats[v]})
            for v in range(q.vertex_count)
        ], validate=False)
    return ChainMap(P, C, mats)


class ChainMap:
    """A degreewise intertwiner commuting with the differentials."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Complex, target: Complex, mats: Dict[int, RepMorphism],
                 validate: bool = True):
        self.source = source
        self.target = target
        self.mats = {
            n: m for n, m in sorted(mats.items())
            if not (m.source.is_zero() and m.target.is_zero())
        }
        if validate:
            for n, m in self.mats.items():
                if m.source != source.rep(n) or m.target != target.rep(n):
                    raise InputError(f"chain map block at degree {n} has bad endpoints")
                if not m.is_intertwiner():
                    raise InputError(f"block at degree {n} is not a morphism")
            if not self.commutes():
                raise InputError("chain map does not commute with differentials")

    def mat(self, n: int) -> RepMorphism:
        got = self.mats.get(n)
        if got is not None:
            return got
        return RepMorphism.zero(self.source.rep(n), self.target.rep(n))

    def commutes(self) -> bool:
        degs = set(self.source.degrees()) | set(self.target.degrees())
        for n in degs:
            lhs = self.target.diff(n).compose(self.mat(n))
            rhs = self.mat(n + 1).compose(self.source.diff(n))
            if not (lhs - rhs).is_zero():
                return False
        return True

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        degs = set(self.mats) | set(other.mats)
        mats = {n: self.mat(n).compose(other.mat(n)) for n in degs}
        return ChainMap(other.source, self.target, mats, validate=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())


def mapping_cone(f: ChainMap) -> Complex:
    """cone(f)^n = x^(n+1) (+) z^n with differential
    [[-d_x, 0], [f, d_z]]; completes f to the triangle x -> z -> cone -> x[1]."""
    X, Z = f.source, f.target
    q, p = X.quiver, X.p
    degs = [n for n in range(min(X.lo - 1, Z.lo) if X.reps or Z.reps else 0,
                             (max(X.hi - 1, Z.hi) if X.reps or Z.reps else -1) + 1)
            if X.rep(n + 1).total_dim or Z.rep(n).total_dim]
    if not degs:
        return Complex.empty(q, p)
    lo, hi = min(degs), max(degs)
    cone_reps = [reps.direct_sum(X.rep(n + 1), Z.rep(n)) for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi):
        src, dst = cone_reps[n - lo], cone_reps[n - lo + 1]
        dx = X.diff(n + 1)
        dz = Z.diff(n)
        fb = f.mat(n + 1)
        mats = [
            FqMatrix.blocks(
                p, (X.rep(n + 2).dims[v], Z.rep(n + 1).dims[v]),
                (X.rep(n + 1).dims[v], Z.rep(n).dims[v]),
                {(0, 0): -dx.mats[v], (1, 0): fb.mats[v], (1, 1): dz.mats[v]},
            )
            for v in range(q.vertex_count)
        ]
        diffs.append(RepMorphism(src, dst, mats, validate=True))
    return Complex(q, p, lo, cone_reps, diffs)


class GradedMapSpace:
    """Coordinate bookkeeping for graded collections g^n: X^n -> Z^(n+shift)
    of vertexwise matrices; flattening order is (degree, vertex, row, col)."""

    def __init__(self, X: Complex, Z: Complex, shift: int = 0):
        self.X = X
        self.Z = Z
        self.shift = shift
        self.p = X.p
        degs = []
        if X.reps or Z.reps:
            los = []
            his = []
            if X.reps:
                los.append(X.lo)
                his.append(X.hi)
            if Z.reps:
                los.append(Z.lo - shift)
                his.append(Z.hi - shift)
            degs = list(range(min(los), max(his) + 1))
        self.degrees = [
            n for n in degs
            if X.rep(n).total_dim and Z.rep(n + shift).total_dim
        ]
        self.offsets: Dict[tuple, int] = {}
        total = 0
        q = X.quiver
        for n in self.degrees:
            for v in range(q.vertex_count):
                self.offsets[(n, v)] = total
                total += Z.rep(n + shift).dims[v] * X.rep(n).dims[v]
        self.total = total

    def morphism_rows(self) -> list:
        """Equations saying every g^n intertwines the arrow maps."""
        rows: list = []
        for n in self.degrees:
            xr, zr = self.X.rep(n), self.Z.rep(n + self.shift)
            for idx, (s, t) in enumerate(self.X.quiver.arrows):
                rows += intertwining_rows(self.total, self.offsets[(n, t)], xr.mats[idx],
                                          self.offsets[(n, s)], zr.mats[idx])
        return rows

    def unflatten(self, vec: Sequence[int]) -> Dict[int, RepMorphism]:
        q = self.X.quiver
        out = {}
        for n in self.degrees:
            mats = []
            for v in range(q.vertex_count):
                zr = self.Z.rep(n + self.shift).dims[v]
                xr = self.X.rep(n).dims[v]
                if zr * xr:
                    base = self.offsets[(n, v)]
                    mats.append(FqMatrix(self.p, zr, xr, vec[base : base + zr * xr]))
                else:
                    mats.append(FqMatrix.zeros(self.p, zr, xr))
            out[n] = RepMorphism(
                self.X.rep(n), self.Z.rep(n + self.shift), mats, validate=False
            )
        return out

    def flatten(self, mats: Dict[int, RepMorphism]) -> tuple:
        vec = [0] * self.total
        for n, m in mats.items():
            if n not in self.offsets and m.is_zero():
                continue
            for v in range(self.X.quiver.vertex_count):
                block = m.mats[v]
                if block.rows * block.cols == 0:
                    continue
                base = self.offsets[(n, v)]
                for i, val in enumerate(block.data):
                    vec[base + i] = val
        return tuple(vec)


def chain_map_space(X: Complex, Z: Complex) -> tuple:
    """(space, basis) where basis spans {chain maps X -> Z} as flat vectors."""
    gs = GradedMapSpace(X, Z, 0)
    if gs.total == 0:
        return gs, []
    rows = gs.morphism_rows()
    # commutation: f^(n+1) o d_X - d_Z o f^n = 0 at every degree and vertex
    for n in sorted(set(X.degrees()) | set(Z.degrees())):
        dx, dz = X.diff(n), Z.diff(n)
        for v in range(X.quiver.vertex_count):
            rows += intertwining_rows(gs.total, gs.offsets.get((n + 1, v)), dx.mats[v],
                                      gs.offsets.get((n, v)), dz.mats[v])
    return gs, kernel_rows(X.p, rows, gs.total)


def homotopy_boundaries(X: Complex, Z: Complex, gs: GradedMapSpace) -> list:
    """Flat vectors (in gs coordinates) spanning the null-homotopic chain
    maps: d_Z h + h d_X over all degree -1 graded morphisms h."""
    hs = GradedMapSpace(X, Z, -1)
    out = []
    for h in kernel_rows(X.p, hs.morphism_rows(), hs.total):
        hmats = hs.unflatten(h)

        def hmat(n: int) -> RepMorphism:
            got = hmats.get(n)
            if got is not None:
                return got
            return RepMorphism.zero(X.rep(n), Z.rep(n - 1))

        bmats = {}
        for n in gs.degrees:
            bmats[n] = Z.diff(n - 1).compose(hmat(n)) + hmat(n + 1).compose(X.diff(n))
        out.append(gs.flatten(bmats))
    return out


def _check_class_count(label: str, p: int, dim: int, cap: int) -> None:
    """Raise EnumerationCapError when p**dim Hom classes exceed the cap, the
    one enumeration limit (--cap)."""
    if p ** dim > cap:
        raise EnumerationCapError(
            f"{label}: {p}**{dim} homotopy classes exceed cap {cap}"
        )


def combinations(p: int, vectors: Sequence[Sequence[int]], total: int) -> Iterator[tuple]:
    """Every F_p-combination of vectors of length total, in the
    itertools.product order of the coefficient tuples."""
    zero = (0,) * total
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        vec = list(zero)
        for c, b in zip(coeffs, vectors):
            if c:
                for j, val in enumerate(b):
                    vec[j] = (vec[j] + c * val) % p
        yield tuple(vec)


class HomotopyClasses:
    """Hom in the derived category between two realized complexes, by
    solving the whole equation system of X -> Z: `space` (the
    GradedMapSpace of X -> Z), `null` (the null-homotopic maps, a RowSpace)
    and `complement` (chain maps spanning a complement of null), with a
    canonical coset key per class.  Solving enumerates no class, so no cap
    applies here; the callers that enumerate classes cap them.
    """

    def __init__(self, X: Complex, Z: Complex, label: str = "HomotopyClasses"):
        self.X = X
        self.Z = Z
        self.p = X.p
        self.label = label
        self.space, self.cycle_basis = chain_map_space(X, Z)
        self.null = RowSpace(self.p, self.space.total)
        for b in homotopy_boundaries(X, Z, self.space):
            self.null.add(b)
        self.complement = complement_basis(self.null, self.cycle_basis)
        self.dim = len(self.complement)

    @property
    def count(self) -> int:
        return self.p ** self.dim

    def class_vectors(self) -> Iterator[tuple]:
        return combinations(self.p, self.complement, self.space.total)

    def canon(self, vec: Sequence[int]) -> tuple:
        """Canonical coset representative: unique in vec + null-homotopics."""
        return self.null.reduce(vec)

    def lift(self, vec: Sequence[int]) -> ChainMap:
        return ChainMap(self.X, self.Z, self.space.unflatten(vec), validate=False)

    def vector_of(self, f: ChainMap) -> tuple:
        return self.space.flatten(f.mats)

    def coefficients(self) -> dict:
        """{canon(class vector): its coefficient tuple on the complement}
        over every class, in the order of class_vectors."""
        return {self.canon(vec): coeffs for coeffs, vec in zip(
            itertools.product(range(self.p), repeat=self.dim), self.class_vectors())}


def module_dim(cat: Catalog, a: int, b: int, k: int) -> int:
    """dim of derived Hom(A, B[k]) for catalog module classes A, B by the
    module route, which builds no complex: dim Hom(A, B) for k = 0, dim
    Ext^1(A, B) for k = 1 and 0 otherwise, since the path algebra of an
    acyclic quiver is hereditary.  The one statement of heredity: every
    derived Hom dim not read off a solved block comes from here."""
    return (cat.hom_dim(a, b) if k == 0
            else cat.ext1_dim(a, b) if k == 1 else 0)


def hom_block(cat: Catalog, a: int, b: int, k: int) -> HomotopyClasses:
    """Derived Hom(A, B[k]) for catalog module classes A, B: the
    whole-table solve of P(A) -> B[k], for the callers that read its class
    coordinates, cached on the catalog per (a, b, k) and checked against
    module_dim.  Built without the class count cap; its users apply theirs."""
    cache = cat.derived_hom_blocks
    key = (a, b, k)
    block = cache.get(key)
    if block is None:
        x = DerivedClass.from_module(a)
        z = DerivedClass.from_module(b).shift(k)
        label = f"hom_block({x.name(cat)} -> {z.name(cat)})"
        block = HomotopyClasses(projective_realization(cat, x),
                                stalk_realization(cat, z), label=label)
        module = module_dim(cat, a, b, k)
        if block.dim != module:
            raise InvariantError(
                f"{label}: the chain-map route gives dim {block.dim}, the "
                f"module route {module}"
            )
        cache[key] = block
    return block


def summand_blocks(cat: Catalog, x: DerivedClass, z: DerivedClass) -> dict:
    """{(a, b): hom_block(x_a, z_b, a - b)} over the summand pairs (x_a at
    degree a, z_b at degree b) with a - b in {0, 1} and a block of nonzero
    dim: the blocks whose direct sum is Hom(x, z) in the derived category.
    (n, n) is Hom(x_n, z_n) and (n + 1, n) is Ext^1(x_(n+1), z_n); each is
    solved, and so checked against module_dim, even when it is dropped."""
    blocks = (((a_deg, b_deg), hom_block(cat, a, b, a_deg - b_deg))
              for a_deg, a in x.entries for b_deg, b in z.entries
              if a_deg - b_deg in (0, 1))
    return {key: block for key, block in blocks if block.dim}


class SummandHomClasses:
    """The coordinates of Hom(x, z) in the derived category, laid out from
    the per-summand blocks.

    P(x)^n = p0(x_n) (+) p1(x_(n+1)) and C(z) has zero differentials, so
    the chain maps P(x) -> C(z) and the null-homotopic ones are the direct
    sums over the summand pairs of the same spaces of each block.  A block
    coordinate (vertex, row, col) of a pair (a, b) of summand_blocks(x, z)
    sits at (degree b, vertex, row, col + the width of p0(x_b) when a = b +
    1) of the table's GradedMapSpace (positions).  So `vector` turns
    ConeBlocks coordinates into a class vector of hom_class_table, and
    cone_homology lays out its local tables with it.
    """

    def __init__(self, cat: Catalog, x: DerivedClass, z: DerivedClass,
                 label: str = "SummandHomClasses"):
        self.X = projective_realization(cat, x)
        self.Z = stalk_realization(cat, z)
        self.p = cat.p
        self.label = label
        self.space = GradedMapSpace(self.X, self.Z, 0)
        self.blocks = summand_blocks(cat, x, z)
        self._positions: dict = {}

    def positions(self, key: tuple) -> list:
        """The table coordinate of each coordinate of the block of the
        summand pair key = (a, b)."""
        pos = self._positions.get(key)
        if pos is None:
            block, (a_deg, b_deg) = self.blocks[key], key
            pos = [0] * block.space.total
            P = self.X.rep(b_deg)
            for (n, v), off in block.space.offsets.items():
                rows, cols = block.Z.rep(n).dims[v], block.X.rep(n).dims[v]
                width = P.dims[v]
                base = (self.space.offsets[(b_deg, v)]
                        + (width - cols if a_deg > b_deg else 0))
                for r in range(rows):
                    pos[off + r * cols : off + (r + 1) * cols] = range(
                        base + r * width, base + r * width + cols)
            self._positions[key] = pos
        return pos

    def vector(self, coords: dict) -> list:
        """The table vector with coefficients coords[key] on the complement
        of the block of each summand pair key."""
        return _block_vector(self.p, self.space.total, (
            ((self.positions(key), self.blocks[key].complement), cs)
            for key, cs in coords.items() if any(cs)))


def _block_vector(p: int, total: int, parts) -> list:
    """The table vector of `total` coordinates that has coefficients cs on
    the complement vectors of a block whose coordinates sit at positions
    pos, summed over the ((pos, complement), cs) in parts; a part whose
    coefficients are all zero is skipped, and its block may be None."""
    vec = [0] * total
    for block, cs in parts:
        if not any(cs):
            continue
        pos, complement = block
        for c, b in zip(cs, complement):
            if c:
                for j, val in zip(pos, b):
                    vec[j] = (vec[j] + c * val) % p
    return vec


def _diff_rows(c: Complex, n: int, v: int, rows: int, cols: int) -> list:
    """c.diff(n) at vertex v as int rows, without building a zero morphism
    outside the complex's range."""
    if c.lo <= n < c.hi:
        m = c.diffs[n - c.lo].mats[v]
        return [list(m.row(r)) for r in range(m.rows)]
    return [[0] * cols for _ in range(rows)]


class ConeClassifier:
    """The derived class of cone(f) for the chain maps f: X -> Z of one Hom
    table, given as flat vectors in the table's coordinates: one ConeDegree
    per degree of the cone, each H^n computed afresh.  This is the route
    the memo of ConeBlocks is tested against; cone_homology keeps only the
    ConeDegree of H^0 of one local table per signature.  Both equal
    derived_class_of(mapping_cone(table.lift(vec)), cat, strict=False),
    which builds the objects and serves as the test oracle.
    """

    OUT_OF_BOUND = -1

    def __init__(self, table: SummandHomClasses, cat: Catalog):
        X, Z = table.X, table.Z
        cands = (range(min(X.lo - 1, Z.lo), max(X.hi - 1, Z.hi) + 1)
                 if X.reps or Z.reps else range(0))
        # cone^n = X^(n+1) (+) Z^n
        degs = [n for n in cands if X.rep(n + 1).total_dim or Z.rep(n).total_dim]
        self.degrees = list(range(degs[0], degs[-1] + 1)) if degs else []
        self.hn = [ConeDegree(table, cat, n) for n in self.degrees]

    def __call__(self, vec) -> Optional[DerivedClass]:
        """The derived class of cone(vec); None when some H^n leaves the
        catalog bound."""
        entries = []
        for n, hn in zip(self.degrees, self.hn):
            idx = hn(vec)
            if idx == self.OUT_OF_BOUND:
                return None
            if idx is not None:
                entries.append((n, idx))
        return DerivedClass(tuple(entries))


def _diff_layout(table: SummandHomClasses, p: int, n: int) -> list:
    """What d^n of a cone over the table does not take from f, per vertex:
    the -d_X rows, the d_Z rows, the offset of the f^(n+1) block in a table
    vector or None, and its width x1."""
    X, Z = table.X, table.Z
    layout = []
    for v in range(X.quiver.vertex_count):
        x1, z0 = X.rep(n + 1).dims[v], Z.rep(n).dims[v]
        x2, z1 = X.rep(n + 2).dims[v], Z.rep(n + 1).dims[v]
        top = [[-a % p for a in r] + [0] * z0 for r in _diff_rows(X, n + 1, v, x2, x1)]
        bottom = _diff_rows(Z, n, v, z1, z0)
        off = table.space.offsets.get((n + 1, v)) if x1 and z1 else None
        layout.append((top, bottom, off, x1))
    return layout


def _diff(layout: list, vec) -> list:
    """A differential laid out by _diff_layout, with the f blocks of vec
    written in, per vertex."""
    mats = []
    for top, bottom, off, x1 in layout:
        if off is None:
            mats.append(top + [[0] * x1 + r for r in bottom])
        else:
            mats.append(top + [list(vec[off + i * x1 : off + (i + 1) * x1]) + r
                               for i, r in enumerate(bottom)])
    return mats


class ConeDegree:
    """H^n of cone(f) at one degree n, for the chain maps f of one Hom table.

    H^n is the kernel of d^n modulo the image of d^(n-1).  What does not
    depend on f is laid out once from the table's complexes: the cone's dims
    at n - 1 and n, the -d_X and d_Z blocks of d^(n-1) and d^n
    (_diff_layout) and the block-diagonal arrow matrices of cone^n; the
    table itself is not kept.  A call writes the f blocks of vec into both
    differentials and computes H^n vertex by vertex on plain int lists: the
    image of d^(n-1) and, as the basis of H^n, the kernel vectors of d^n
    reduced modulo that image, each kept in reduced echelon form as an
    fq.RowSpace.  The induced arrow matrices give a Representation.key()
    that the catalog classifies; any basis of H^n does, since its label
    arrays cover all of Rep_d.
    """

    __slots__ = ("cat", "label", "n", "dims_in", "dims", "d_in", "d_out", "arrows")

    def __init__(self, table: SummandHomClasses, cat: Catalog, n: int):
        X, Z = table.X, table.Z
        if not X.quiver.is_acyclic():
            raise InputError("derived classification needs an acyclic quiver")
        self.cat, self.label, self.n = cat, table.label, n
        # cone^m = X^(m+1) (+) Z^m
        self.dims_in, self.dims = (
            [a + b for a, b in zip(X.rep(m + 1).dims, Z.rep(m).dims)] for m in (n - 1, n))
        self.d_in, self.d_out = (_diff_layout(table, cat.p, m) for m in (n - 1, n))
        xr, zr = X.rep(n + 1), Z.rep(n)
        self.arrows = []   # (arrow, source, target, block-diagonal rows)
        for idx, (s, t) in enumerate(xr.quiver.arrows):
            xa, za = xr.mats[idx], zr.mats[idx]
            rows = [list(xa.row(r)) + [0] * za.cols for r in range(xa.rows)]
            rows += [[0] * xa.cols + list(za.row(r)) for r in range(za.rows)]
            self.arrows.append((idx, s, t, rows))

    def __call__(self, vec) -> Optional[int]:
        """Catalog class of H^n of cone(vec); None when it is zero,
        ConeClassifier.OUT_OF_BOUND when it leaves the catalog bound."""
        p, n = self.cat.p, self.n
        d_in, d_out = _diff(self.d_in, vec), _diff(self.d_out, vec)
        bases = []   # per vertex: (image, complement), both reduced echelon
        for v, dim in enumerate(self.dims):
            im = RowSpace(p, dim)
            for c in range(self.dims_in[v]):
                im.add([row[c] for row in d_in[v]])
            ker = kernel_rows(p, d_out[v], dim)
            comp = RowSpace(p, dim)
            for u in ker:
                comp.add(im.reduce(u))
            if comp.dim != len(ker) - im.dim:
                raise InvariantError(
                    f"{self.label}: cone H^{n} at vertex {v}: complement of "
                    f"the {im.dim}-dim image in the {len(ker)}-dim kernel "
                    f"has {comp.dim} vectors (d o d != 0)"
                )
            bases.append((im, comp))
        hdims = tuple(comp.dim for _, comp in bases)
        if not any(hdims):
            return None
        if any(d > b for d, b in zip(hdims, self.cat.bound)):
            return ConeClassifier.OUT_OF_BOUND
        data = []
        for idx, s, t, rows in self.arrows:
            im, comp = bases[t]
            cols = []
            for w in bases[s][1].rows:
                u = im.reduce([sum(a * b for a, b in zip(r, w)) % p for r in rows])
                if any(comp.reduce(u)):
                    raise InvariantError(
                        f"{self.label}: cone H^{n}, arrow {idx}: image of a "
                        f"cycle is not a cycle"
                    )
                cols.append([u[pc] for pc in comp.pivots])
            data.append(tuple(c[r] for r in range(hdims[t]) for c in cols))
        return self.cat.classify_key((hdims, tuple(data)))


def _hn_blocks(n: int) -> tuple:
    """The summand pairs of the blocks that H^n of a cone reads, in the
    order of a memo key: Hom(x_n, z_n), Ext^1(x_(n+1), z_n) and
    Hom(x_(n+1), z_(n+1))."""
    return ((n, n), (n + 1, n), (n + 1, n + 1))


def cone_homology(cat: Catalog, sig: tuple, coords: tuple) -> Optional[int]:
    """The catalog class of H^n of a cone from its memo key in ConeBlocks:
    the signature sig = (x_n, x_(n+1), z_n, z_(n+1)) and the coefficient
    tuples on Hom(x_n, z_n), Ext^1(x_(n+1), z_n) and Hom(x_(n+1), z_(n+1)).
    None when H^n is zero, ConeClassifier.OUT_OF_BOUND when it leaves the
    catalog bound.

    It is H^0 of the cone over the local table of x_n, x_(n+1) and z_n,
    z_(n+1) placed in degrees 0 and 1, whose blocks are exactly those three.
    cat.derived_cone_tables keeps per signature only what a miss reads: the
    local table's length, each block's positions in it and complement, and
    the ConeDegree of H^0; the table and its complexes are dropped."""
    local = cat.derived_cone_tables.get(sig)
    if local is None:
        x_n, x_n1, z_n, z_n1 = sig
        x = DerivedClass(tuple((d, i) for d, i in ((0, x_n), (1, x_n1)) if i is not None))
        z = DerivedClass(tuple((d, i) for d, i in ((0, z_n), (1, z_n1)) if i is not None))
        table = SummandHomClasses(
            cat, x, z, label=f"cone_homology({x.name(cat)} -> {z.name(cat)})")
        embeds = tuple((table.positions(key), table.blocks[key].complement)
                       if key in table.blocks else None for key in _hn_blocks(0))
        local = cat.derived_cone_tables[sig] = (
            table.space.total, embeds, ConeDegree(table, cat, 0))
    total, embeds, degree = local
    return degree(_block_vector(cat.p, total, zip(embeds, coords)))


def zero_cone_homology(cat: Catalog, sig: tuple) -> Optional[int]:
    """cone_homology(cat, sig, coords) for the zero Hom class, read off the
    signature alone: the cone of the zero map x -> z is x[1] (+) z, so H^n
    is x_(n+1) (+) z_n, classified by its direct-sum key.  None when both
    are absent, ConeClassifier.OUT_OF_BOUND when their dims sum past the
    catalog bound.  Builds no local table; cone_homology is its oracle."""
    _, x_n1, z_n, _ = sig
    if x_n1 is None or z_n is None:
        return z_n if x_n1 is None else x_n1
    a, b = cat.rep(x_n1), cat.rep(z_n)
    if any(da + db > c for da, db, c in zip(a.dims, b.dims, cat.bound)):
        return ConeClassifier.OUT_OF_BOUND
    return cat.classify_key(_direct_sum_key(a, b))


_MISS = object()


class ConeBlocks:
    """The Hom classes x -> z in summand-block coordinates, and the derived
    classes of their cones through one memo that every (x, z) shares.

    A Hom class is one coefficient tuple per block of summand_blocks(x, z)
    (`keys`, with `dims`), over that block's complement; the whole-table
    class vector has those coefficients on the embedded block complements
    (SummandHomClasses.vector).  The class count, which coordinates()
    enumerates exactly, is p^sum(dims); its module-route value
    p^ext_dim(x, z, 0) is capped, with hom_class_table's message, before any
    block is solved, and checked against it after, so every sweep is too.

    cone(f)^n = p0(x_(n+1)) (+) p1(x_(n+2)) (+) z_n.  The kernel of d^n
    vanishes on p1(x_(n+2)), because the resolution map delta of x_(n+2) is
    injective, so H^n is the homology of p0(x_n) (+) p1(x_(n+1)) ->
    p0(x_(n+1)) (+) z_n -> z_(n+1): it is zero unless x_(n+1) or z_n is
    nonzero, and it reads f only on the blocks Hom(x_n, z_n),
    Ext^1(x_(n+1), z_n) and Hom(x_(n+1), z_(n+1)).  So its class is
    memoized in cat.derived_cone_homology[(x_n, x_(n+1), z_n, z_(n+1))]
    [the three coefficient tuples], a miss is computed by cone_homology,
    or by zero_cone_homology when all three are zero, and equal cone
    classes are shared through cat.derived_cone_classes.
    """

    def __init__(self, cat: Catalog, x: DerivedClass, z: DerivedClass,
                 cap: int = reps.DEFAULT_CAP):
        self.cat = cat
        expected = ext_dim(x, z, 0, cat)
        if cat.p ** expected > cap:   # name the table only to raise
            _check_class_count(_table_label(cat, x, z), cat.p, expected, cap)
        blocks = summand_blocks(cat, x, z)
        self.keys = list(blocks)
        self.dims = [block.dim for block in blocks.values()]
        if (dim := sum(self.dims)) != expected:
            raise InvariantError(
                f"{_table_label(cat, x, z)}: hom class count p^{dim} != "
                f"p^ext_dim = p^{expected}: enumeration routes disagree")
        slot = {key: i for i, key in enumerate(self.keys)}.get
        absent = len(self.keys)
        xs, zs = dict(x.entries), dict(z.entries)
        memo = cat.derived_cone_homology
        # per degree n with H^n possibly nonzero: (n, signature, its memo,
        # the getter of the memo key: the coordinates of the three blocks
        # H^n reads (_hn_blocks), () for an absent one, from coords + ((),))
        self.reads = []
        for n in sorted({d - 1 for d in xs} | zs.keys()):
            sig = (xs.get(n), xs.get(n + 1), zs.get(n), zs.get(n + 1))
            self.reads.append((n, sig, memo.setdefault(sig, {}), operator.itemgetter(
                slot((n, n), absent), slot((n + 1, n), absent),
                slot((n + 1, n + 1), absent))))

    def coordinates(self) -> Iterator[tuple]:
        """Every Hom class x -> z as its tuple of block coefficient tuples."""
        p = self.cat.p
        return itertools.product(
            *(itertools.product(range(p), repeat=d) for d in self.dims))

    def cone_class(self, coords: Sequence[tuple]) -> Optional[DerivedClass]:
        """The derived class of the cone over the Hom class coords; None
        when some H^n leaves the catalog bound."""
        entries = []
        coords = (*coords, ())
        for n, sig, memo, key_of in self.reads:
            key = key_of(coords)
            idx = memo.get(key, _MISS)
            if idx is _MISS:
                idx = memo[key] = (cone_homology(self.cat, sig, key) if any(map(any, key))
                                   else zero_cone_homology(self.cat, sig))
            if idx == ConeClassifier.OUT_OF_BOUND:
                return None
            if idx is not None:
                entries.append((n, idx))
        entries = tuple(entries)
        dc = self.cat.derived_cone_classes.get(entries)
        if dc is None:
            dc = self.cat.derived_cone_classes[entries] = DerivedClass(entries)
        return dc


def _table_label(cat: Catalog, x: DerivedClass, z: DerivedClass) -> str:
    return f"hom_class_table({x.name(cat)} -> {z.name(cat)})"


def hom_class_table(cat: Catalog, x: DerivedClass, z: DerivedClass,
                    cap: int = reps.DEFAULT_CAP) -> HomotopyClasses:
    """Hom classes x -> z in the derived category: the whole-table solve
    HomotopyClasses(P(x), C(z)), cached on the catalog per (x, z) and
    capped on every call.  The oracle of the block coordinates
    (SummandHomClasses.vector); no production path reads it."""
    table = cat.derived_hom_tables.get((x, z))
    if table is None:
        table = cat.derived_hom_tables[(x, z)] = HomotopyClasses(
            projective_realization(cat, x), stalk_realization(cat, z),
            label=_table_label(cat, x, z))
    _check_class_count(table.label, cat.p, table.dim, cap)
    return table


def _block_lifts(cat: Catalog, a: int, b: int, k: int) -> list:
    """One chain map P(A) -> P(B[k]) per complement vector g_j of
    hom_block(a, b, k), whose composite with the augmentation is in the
    class of g_j; cached on the catalog per (a, b, k).  Composing with the
    augmentation is linear and, checked here, a bijection on classes."""
    key = (a, b, k)
    lifts = cat.derived_block_lifts.get(key)
    if lifts is None:
        block = hom_block(cat, a, b, k)
        target = DerivedClass.from_module(b).shift(k)
        pp = HomotopyClasses(block.X, projective_realization(cat, target))
        eps = augmentation_map(cat, target)
        coeffs = block.coefficients()
        basis = [coeffs[block.canon(block.vector_of(eps.compose(pp.lift(v))))]
                 for v in pp.complement]
        preimage = dict(zip(combinations(cat.p, basis, block.dim), pp.class_vectors()))
        if not len(preimage) == pp.count == block.count:
            raise InvariantError(
                f"lifts of {DerivedClass.from_module(a).name(cat)} -> "
                f"{target.name(cat)}: the {pp.count} classes P -> P reach "
                f"{len(preimage)} classes P -> C, not the block's {block.count}: "
                f"composing with the augmentation is not a bijection"
            )
        lifts = cat.derived_block_lifts[key] = [
            pp.lift(preimage[tuple(int(i == j) for i in range(block.dim))])
            for j in range(block.dim)]
    return lifts


def composition_table(cat: Catalog, a: int, b: int, c: int, k1: int,
                      k2: int) -> tuple:
    """Hom(B, C[k2]) x Hom(A, B[k1]) -> Hom(A, C[k1 + k2]) for catalog
    module classes A, B, C, cached on the catalog: row j, column i holds the
    coefficients, on hom_block(a, c, k1 + k2), of f_i o g_j for the
    complement vectors g_j of hom_block(a, b, k1) and f_i of hom_block(b,
    c, k2).  g_j is lifted to P(A) -> P(B[k1]) (_block_lifts), and f_i is
    re-indexed by k1; C is a stalk, so no sign enters."""
    key = (a, b, c, k1, k2)
    table = cat.derived_compositions.get(key)
    if table is None:
        first, target = hom_block(cat, b, c, k2), hom_block(cat, a, c, k1 + k2)
        P = projective_realization(cat, DerivedClass.from_module(b).shift(k1))
        C = stalk_realization(cat, DerivedClass.from_module(c).shift(k1 + k2))
        fs = [ChainMap(P, C, {n - k1: m for n, m in first.lift(v).mats.items()},
                       validate=False) for v in first.complement]
        coeffs = target.coefficients()
        table = cat.derived_compositions[key] = tuple(
            tuple(coeffs[target.canon(target.vector_of(f.compose(g)))] for f in fs)
            for g in _block_lifts(cat, a, b, k1))
    return table


def precompositions(cat: Catalog, x: DerivedClass, z: DerivedClass, gs) -> list:
    """For each Hom class g: x -> x of gs, in ConeBlocks(x, x) coordinates,
    the matrix of f |-> f g on the Hom classes f: x -> z, flattened from
    ConeBlocks(x, z) block after block, as its columns: coordinate k of f g
    is the dot product of f with column k.

    The path algebra is hereditary, so the block (a, b) of f g is the sum
    over c in {a, a - 1} of f_(c, b) g_(a, c): Hom o Hom for a = b, and for
    a = b + 1 the Yoneda products Ext^1 o Hom (c = a) and Hom o Ext^1
    (c = b); Ext^1 o Ext^1 lands in Ext^2 = 0."""
    # the blocks in the order of ConeBlocks.keys
    hom = {key: block.dim for key, block in summand_blocks(cat, x, z).items()}
    end = list(summand_blocks(cat, x, x))
    total = sum(hom.values())
    offset = dict(zip(hom, itertools.accumulate(hom.values(), initial=0)))
    slot = {key: s for s, key in enumerate(end)}
    xs, zs = dict(x.entries), dict(z.entries)
    # (offset of f_(c, b), slot of g_(a, c), offset of (a, b), their products)
    terms = [(offset[(c, b)], slot[(a, c)], offset[(a, b)],
              composition_table(cat, xs[a], xs[c], zs[b], a - c, c - b))
             for a, b in hom for c in (a, a - 1)
             if (c, b) in offset and (a, c) in slot]
    out = []
    for g in gs:
        rows = [[0] * total for _ in range(total)]
        for f_off, g_slot, t_off, table in terms:
            for gj, products in zip(g[g_slot], table):
                for i, coeffs in enumerate(products if gj else ()):
                    for k, val in enumerate(coeffs):
                        rows[f_off + i][t_off + k] += gj * val
        out.append([tuple(v % cat.p for v in col) for col in zip(*rows)])
    return out


def ext_dim(x: DerivedClass, z: DerivedClass, i: int, cat: Catalog) -> int:
    """dim of derived Hom(x, z[i]); additive over the hereditary summand
    decomposition, each summand pair read by module_dim, so no chain map
    is solved and no class enumerated, and no cap applies.  ConeBlocks caps
    p**ext_dim(x, z, 0) and compares its class count with it."""
    return sum(module_dim(cat, a, b, i + a_deg - b_deg)
               for a_deg, a in x.entries for b_deg, b in z.entries)
