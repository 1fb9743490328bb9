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
once per catalog.  Hom(x, z) is a direct sum over pairs of summands, so
hom_class_table assembles each table from one solved block per (summand
class, summand class, shift) (hom_block); the whole-table solve
HomotopyClasses stays as its oracle.  H^n of a cone reads only the blocks
next to degree n, so ConeClassifier memoizes its class per summand
signature and f blocks in one memo that every table shares.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence

from .errors import EnumerationCapError, InputError, InvariantError, OutOfUniverseError
from .fq import FqMatrix, RowSpace, complement_basis, intertwining_rows, kernel_rows
from .catalog import Catalog
from . import reps
from .reps import Representation, RepMorphism


@dataclass(frozen=True, order=True)
class DerivedClass:
    """Quasi-isomorphism class: ((degree, catalog class index), ...) sorted
    by degree, at most one entry per degree, zero classes omitted."""

    entries: tuple

    def __post_init__(self):
        degs = [d for d, _ in self.entries]
        if sorted(degs) != degs or len(set(degs)) != len(degs):
            raise InputError("derived class entries must be sorted, one per degree")

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

    def __add__(self, other: "ChainMap") -> "ChainMap":
        degs = set(self.mats) | set(other.mats)
        mats = {n: self.mat(n) + other.mat(n) for n in degs}
        return ChainMap(self.source, self.target, mats, validate=False)

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


def _check_class_count(label: str, p: int, dim: int, cap: int,
                       max_exponent: int) -> None:
    """Raise EnumerationCapError when p**dim Hom classes exceed the caps."""
    if dim > max_exponent or p ** dim > cap:
        limit = (f"cap {cap}" if p ** dim > cap
                 else f"hom exponent cap {max_exponent}")
        raise EnumerationCapError(
            f"{label}: {p}**{dim} homotopy classes exceed {limit}"
        )


class _ClassTable:
    """Hom classes x -> z once their coordinates are known: `space` (the
    GradedMapSpace of X -> Z), `null` (the null-homotopic maps, a RowSpace)
    and `complement` (chain maps spanning a complement of null)."""

    @property
    def count(self) -> int:
        return self.p ** self.dim

    def class_vectors(self) -> Iterator[tuple]:
        zero = (0,) * self.space.total
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            vec = list(zero)
            for c, b in zip(coeffs, self.complement):
                if c:
                    for j, val in enumerate(b):
                        vec[j] = (vec[j] + c * val) % self.p
            yield tuple(vec)

    def canon(self, vec: Sequence[int]) -> tuple:
        """Canonical coset representative: unique in vec + null-homotopics."""
        return self.null.reduce(vec)

    def lift(self, vec: Sequence[int]) -> ChainMap:
        return ChainMap(self.X, self.Z, self.space.unflatten(vec), validate=False)

    def vector_of(self, f: ChainMap) -> tuple:
        return self.space.flatten(f.mats)


class HomotopyClasses(_ClassTable):
    """Hom in the derived category between two realized complexes: the chain
    map space modulo null-homotopics, with one lifted representative per
    class and a canonical coset key for classifying arbitrary chain maps.

    Solves the whole equation system of X -> Z.  hom_class_table assembles
    the same table from per-summand blocks built here; this whole-table
    build is its test oracle.  cap=None skips the class count caps.
    """

    def __init__(self, X: Complex, Z: Complex, cap: Optional[int] = reps.DEFAULT_CAP,
                 max_exponent: int = 20, label: str = "HomotopyClasses"):
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
        if cap is not None:
            _check_class_count(label, self.p, self.dim, cap, max_exponent)


def hom_block(cat: Catalog, a: int, b: int, k: int) -> HomotopyClasses:
    """Derived Hom(A, B[k]) for catalog module classes A, B: the
    whole-table solve of P(A) -> B[k], built once per (a, b, k) and cached
    on the catalog.  Its dim is checked against the module route, which
    builds no complex: dim Hom(A, B) for k = 0 (reps.hom_dim), dim
    Ext^1(A, B) for k = 1 (reps.ext1_dim, the cokernel of Hom(p0, B) ->
    Hom(p1, B)) and 0 otherwise, since the path algebra of an acyclic
    quiver is hereditary.  Built without the class count caps; its users
    apply their own."""
    cache = cat.derived_hom_blocks
    key = (a, b, k)
    block = cache.get(key)
    if block is None:
        x = DerivedClass.from_module(a)
        z = DerivedClass.from_module(b).shift(k)
        label = f"stalk_hom_dim({x.name(cat)} -> {z.name(cat)})"
        block = HomotopyClasses(projective_realization(cat, x),
                                stalk_realization(cat, z), cap=None, label=label)
        module = (cat.hom_dim(a, b) if k == 0
                  else cat.ext1_dim(a, b) if k == 1 else 0)
        if block.dim != module:
            raise InvariantError(
                f"{label}: the chain-map route gives dim {block.dim}, the "
                f"module route {module}"
            )
        cache[key] = block
    return block


def _first_nonzero(vec: Sequence[int]) -> int:
    return next(j for j, val in enumerate(vec) if val)


def _last_nonzero(vec: Sequence[int]) -> int:
    return max(j for j, val in enumerate(vec) if val)


class SummandHomClasses(_ClassTable):
    """Hom(x, z) in the derived category, assembled from per-summand blocks.

    P(x)^n = p0(x_n) (+) p1(x_(n+1)) and C(z) has zero differentials, so
    the chain maps P(x) -> C(z), the null-homotopic ones and their
    complement are the direct sums over the summand pairs (x_a at degree a,
    z_b at degree b) with a - b in {0, 1} of the same spaces of hom_block(x_a,
    z_b, a - b): the chain condition f^a o delta = 0 and the boundaries
    h o delta each touch one pair.  A block coordinate (vertex, row, col)
    maps to (degree b, vertex, row, col + the width of p0(x_b) when
    a = b + 1) of the table's GradedMapSpace, which keeps the order of the
    coordinates inside a block.

    So the canonical kernel basis of the whole system is the union of the
    block bases ordered by their last nonzero coordinate (the free column),
    the reduced echelon rows of the null space are the union of the block
    rows ordered by pivot, and the complement picked by complement_basis is
    the union of the block complements in kernel basis order: the same
    vectors, in the same order, as the whole-table solve HomotopyClasses(
    P(x), C(z)).  cycle_basis and null are assembled on first use.
    """

    def __init__(self, cat: Catalog, x: DerivedClass, z: DerivedClass,
                 cap: int = reps.DEFAULT_CAP, max_exponent: int = 20,
                 label: str = "SummandHomClasses"):
        self.x = x
        self.z = z
        self.X = projective_realization(cat, x)
        self.Z = stalk_realization(cat, z)
        self.p = cat.p
        self.label = label
        self.space = GradedMapSpace(self.X, self.Z, 0)
        # (block, degree b of z_b, a - b) per summand pair
        self._blocks = []
        for a_deg, a in x.entries:
            for b_deg, b in z.entries:
                k = a_deg - b_deg
                if k in (0, 1):
                    block = hom_block(cat, a, b, k)
                    if block.space.total:
                        self._blocks.append((block, b_deg, k))
        self.complement = [tuple(v) for v in self._embed("complement", _last_nonzero)]
        self.dim = len(self.complement)
        _check_class_count(label, self.p, self.dim, cap, max_exponent)

    def _positions(self, block: HomotopyClasses, b_deg: int, k: int) -> list:
        """The table coordinate of each coordinate of the block."""
        pos = [0] * block.space.total
        P = self.X.rep(b_deg)
        for (n, v), off in block.space.offsets.items():
            rows, cols = block.Z.rep(n).dims[v], block.X.rep(n).dims[v]
            width = P.dims[v]
            base = self.space.offsets[(b_deg, v)] + (width - cols if k else 0)
            for r in range(rows):
                pos[off + r * cols : off + (r + 1) * cols] = range(
                    base + r * width, base + r * width + cols)
        return pos

    def _embed(self, attr: str, order) -> list:
        """The block vectors at attrgetter(attr)(block) in table
        coordinates, sorted by order."""
        out = []
        for block, b_deg, k in self._blocks:
            pos = self._positions(block, b_deg, k)
            for b in operator.attrgetter(attr)(block):
                vec = [0] * self.space.total
                for j, val in zip(pos, b):
                    vec[j] = val
                out.append(vec)
        out.sort(key=order)
        return out

    @functools.cached_property
    def cycle_basis(self) -> list:
        return self._embed("cycle_basis", _last_nonzero)

    @functools.cached_property
    def null(self) -> RowSpace:
        space = RowSpace(self.p, self.space.total)
        space.rows = self._embed("null.rows", _first_nonzero)
        space.pivots = [_first_nonzero(r) for r in space.rows]
        return space


def _diff_rows(c: Complex, n: int, v: int, rows: int, cols: int) -> list:
    """c.diff(n) at vertex v as int rows, without building a zero morphism
    outside the complex's range."""
    if c.lo <= n < c.hi:
        m = c.diffs[n - c.lo].mats[v]
        return [list(m.row(r)) for r in range(m.rows)]
    return [[0] * cols for _ in range(rows)]


_MISS = object()


class ConeClassifier:
    """The derived class of cone(f) for chain maps f: X -> Z of one Hom
    table of hom_class_table, given as flat vectors in the table's
    coordinates; None when some H^n leaves the catalog bound.

    H^n of cone(f) is the kernel of d^n modulo the image of d^(n-1).  Up to
    zero columns (from z_(n-1): C(z) has zero differentials) and zero rows
    (from p1(x_(n+3))), which change neither, these two differentials are
    fixed by the summand signature, the classes of x in degrees n..n+2 and
    of z in degrees n..n+1 (they fix the cone's dims, the -d_X blocks, the
    arrow blocks and where the f blocks sit), and by the entries of the f^n
    and f^(n+1) blocks, which lie next to each other in vec.  So the class
    of H^n is memoized on the catalog, in
    cat.derived_cone_homology[signature][f entries], and shared by every
    table.  Per table only the degree range, the signatures and the slice
    of vec holding the f blocks are set up, and equal cone classes are
    shared through cat.derived_cone_classes.

    On a miss the blocks of the two differentials are laid out from the
    table's complexes, and H^n is computed vertex by vertex on plain int
    lists: the image of d^(n-1) and, as the basis of H^n, the kernel vectors
    of d^n reduced modulo that image, each kept in reduced echelon form as an
    fq.RowSpace.  The induced arrow matrices give a Representation.key()
    that the catalog's key table classifies; any basis of H^n does, since
    that table holds all of Rep_d.

    Equal to derived_class_of(mapping_cone(table.lift(vec)), cat,
    strict=False), which builds the objects and serves as its test oracle.
    """

    OUT_OF_BOUND = -1

    def __init__(self, table: SummandHomClasses, cat: Catalog):
        X, Z = table.X, table.Z
        q = X.quiver
        if not q.is_acyclic():
            raise InputError("derived classification needs an acyclic quiver")
        self.table = table
        self.label = table.label
        self.cat = cat
        self.p = X.p
        cands = (range(min(X.lo - 1, Z.lo), max(X.hi - 1, Z.hi) + 1)
                 if X.reps or Z.reps else range(0))
        # cone^n = X^(n+1) (+) Z^n
        degs = [n for n in cands if X.rep(n + 1).total_dim or Z.rep(n).total_dim]
        self.degrees = list(range(degs[0], degs[-1] + 1)) if degs else []
        # the f^n blocks of vec, per degree n of the table's space
        space = table.space
        ends = [space.offsets[(n, 0)] for n in space.degrees] + [space.total]
        blocks = {n: (ends[i], ends[i + 1]) for i, n in enumerate(space.degrees)}
        xs, zs = dict(table.x.entries), dict(table.z.entries)
        memo = cat.derived_cone_homology
        self.classes = cat.derived_cone_classes
        # per degree n: the memo of its signature and the slice of vec
        # holding f^n and f^(n+1)
        self.memos = []
        self.reads = []
        for n in self.degrees:
            sig = (xs.get(n), xs.get(n + 1), xs.get(n + 2), zs.get(n), zs.get(n + 1))
            self.memos.append(memo.setdefault(sig, {}))
            parts = [blocks[m] for m in (n, n + 1) if m in blocks]
            self.reads.append(slice(parts[0][0], parts[-1][1]) if parts else slice(0))

    def __call__(self, vec) -> Optional[DerivedClass]:
        vec = tuple(vec)
        entries = []
        for k, n in enumerate(self.degrees):
            memo = self.memos[k]
            f = vec[self.reads[k]]
            idx = memo.get(f, _MISS)
            if idx is _MISS:
                idx = memo[f] = self._homology_class(k, vec)
            if idx == self.OUT_OF_BOUND:
                return None
            if idx is not None:
                entries.append((n, idx))
        entries = tuple(entries)
        dc = self.classes.get(entries)
        if dc is None:
            dc = self.classes[entries] = DerivedClass(entries)
        return dc

    @functools.cached_property
    def _layout(self) -> tuple:
        """What does not depend on f, laid out on the first miss: per degree
        n the cone dims and (arrow, source, target, block-diagonal rows);
        per differential d^n (n < hi) and vertex the -d_X rows, the d_Z
        rows, the offset of the f^(n+1) block in vec or None, and its width
        x1."""
        X, Z, p = self.table.X, self.table.Z, self.p
        q = X.quiver
        # X^(n+1) and Z^n, the two summands of cone^n, fetched once
        xr = {n: X.rep(n + 1) for n in self.degrees}
        zr = {n: Z.rep(n) for n in self.degrees}
        dims, arrows = [], []
        for n in self.degrees:
            dims.append([a + b for a, b in zip(xr[n].dims, zr[n].dims)])
            per_arrow = []
            for idx, (s, t) in enumerate(q.arrows):
                xa, za = xr[n].mats[idx], zr[n].mats[idx]
                rows = [list(xa.row(r)) + [0] * za.cols for r in range(xa.rows)]
                rows += [[0] * xa.cols + list(za.row(r)) for r in range(za.rows)]
                per_arrow.append((idx, s, t, rows))
            arrows.append(per_arrow)
        diffs = []
        for n in self.degrees[:-1]:
            per_vertex = []
            for v in range(q.vertex_count):
                x1, z0 = xr[n].dims[v], zr[n].dims[v]
                x2, z1 = xr[n + 1].dims[v], zr[n + 1].dims[v]
                top = [[-a % p for a in r] + [0] * z0
                       for r in _diff_rows(X, n + 1, v, x2, x1)]
                bottom = _diff_rows(Z, n, v, z1, z0)
                off = self.table.space.offsets.get((n + 1, v)) if x1 and z1 else None
                per_vertex.append((top, bottom, off, x1))
            diffs.append(per_vertex)
        return dims, arrows, diffs

    def _diff(self, j: int, vec) -> list:
        """d^(degrees[j]) with the f blocks of vec written in, per vertex."""
        mats = []
        for top, bottom, off, x1 in self._layout[2][j]:
            if off is None:
                mats.append(top + [[0] * x1 + r for r in bottom])
            else:
                mats.append(top + [
                    list(vec[off + i * x1 : off + (i + 1) * x1]) + r
                    for i, r in enumerate(bottom)
                ])
        return mats

    def _homology_class(self, k: int, vec) -> Optional[int]:
        """Catalog class of H^(degrees[k]) of cone(vec); None when it is
        zero, OUT_OF_BOUND when it leaves the catalog bound."""
        p, n = self.p, self.degrees[k]
        dims, arrows, _ = self._layout
        d_in = self._diff(k - 1, vec) if k else None
        d_out = self._diff(k, vec) if k < len(self.degrees) - 1 else None
        bases = []   # per vertex: (image, complement), both reduced echelon
        for v, dim in enumerate(dims[k]):
            im = RowSpace(p, dim)
            if d_in is not None:
                for c in range(dims[k - 1][v]):
                    im.add([row[c] for row in d_in[v]])
            ker = kernel_rows(p, d_out[v] if d_out is not None else [], dim)
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
            return self.OUT_OF_BOUND
        data = []
        for idx, s, t, rows in arrows[k]:
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


def hom_class_table(cat: Catalog, x: DerivedClass, z: DerivedClass,
                    cap: int = reps.DEFAULT_CAP, max_exponent: int = 20) -> SummandHomClasses:
    """Hom classes x -> z in the derived category, assembled from the
    per-summand blocks of hom_block and cached on the catalog per (x, z);
    raises EnumerationCapError when the p**dim classes exceed the caps."""
    cache = cat.derived_hom_tables
    key = (x, z)
    if key not in cache:
        cache[key] = SummandHomClasses(
            cat, x, z, cap=cap, max_exponent=max_exponent,
            label=f"hom_class_table({x.name(cat)} -> {z.name(cat)})",
        )
    return cache[key]


def stalk_hom_dim(cat: Catalog, a: int, b: int, k: int,
                  cap: int = reps.DEFAULT_CAP) -> int:
    """dim of derived Hom(A, B[k]) for catalog module classes A, B: the dim
    of hom_block(a, b, k), computed from the chain-map space of the
    projective realization (out-of-range shifts genuinely solve to zero)
    and checked there against the module route."""
    block = hom_block(cat, a, b, k)
    _check_class_count(block.label, cat.p, block.dim, cap, 64)
    return block.dim


def ext_dim(x: DerivedClass, z: DerivedClass, i: int, cat: Catalog,
            cap: int = reps.DEFAULT_CAP) -> int:
    """dim of derived Hom(x, z[i]); additive over the hereditary summand
    decomposition.  Each summand pair reads the dim of its hom_block, a
    chain-map solve that hom_block checks against the module Hom and Ext^1
    dimensions.  cone_table compares p**ext_dim(x, z, 0) with the number of
    classes it enumerates."""
    total = 0
    for a_deg, a_idx in x.entries:
        for b_deg, b_idx in z.entries:
            total += stalk_hom_dim(cat, a_idx, b_idx, i + a_deg - b_deg, cap=cap)
    return total
