"""Finite-dimensional quiver representations over F_p and their morphisms.

Conventions, fixed once and used everywhere:

* representations are covariant: an arrow a: i -> j carries a matrix of
  shape (dim_j x dim_i) acting on column vectors, source to target;
* a morphism f: x -> y is a per-vertex matrix tuple (dim y_i x dim x_i)
  intertwining every arrow exactly: f_j @ x_a == y_a @ f_i;
* all canonical forms (kernel bases, image bases) come from fq.py's
  deterministic elimination, so equal subspaces compare equal.

The category is finitary by construction: Hom and Ext^1 spaces are finite
F_p-vector spaces computed by exact elimination.
"""

from __future__ import annotations

import itertools
import random as _random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import EnumerationCapError, InputError, InvariantError
from .fq import (
    FqMatrix,
    RowSpace,
    check_prime,
    enumerate_subspaces,
    intertwining_rows,
    kernel_rows,
)
from .quivers import Quiver, path_target, paths_from

DEFAULT_CAP = 10_000_000


class Representation:
    """An assignment of F_p^(dims[i]) to each vertex and a matrix to each arrow."""

    __slots__ = ("quiver", "p", "dims", "mats", "_hash")

    def __init__(self, quiver: Quiver, p: int, dims: Sequence[int], mats: Sequence[FqMatrix]):
        check_prime(p)
        if len(dims) != quiver.vertex_count:
            raise InputError("dimension vector length mismatch")
        if len(mats) != quiver.arrow_count:
            raise InputError("arrow map count mismatch")
        if any(d < 0 for d in dims):
            raise InputError("negative dimension")
        for (s, t), m in zip(quiver.arrows, mats):
            if m.shape != (dims[t], dims[s]):
                raise InputError(
                    f"arrow map shape {m.shape} != ({dims[t]}, {dims[s]})"
                )
            if m.p != p:
                raise InputError("arrow map modulus mismatch")
        self.quiver = quiver
        self.p = p
        self.dims = tuple(dims)
        self.mats = tuple(mats)
        self._hash = None

    @classmethod
    def zero(cls, quiver: Quiver, p: int) -> "Representation":
        dims = (0,) * quiver.vertex_count
        mats = tuple(FqMatrix.zeros(p, 0, 0) for _ in quiver.arrows)
        return cls(quiver, p, dims, mats)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def key(self) -> tuple:
        """Lexicographic identity key: (dims, arrow matrix entries)."""
        return (self.dims, tuple(m.data for m in self.mats))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.p == other.p
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.quiver, self.p, self.dims, self.mats))
        return self._hash

    def __repr__(self) -> str:
        return f"Representation(p={self.p}, dims={self.dims})"


def direct_sum(first: Representation, *rest: Representation) -> Representation:
    """Block-diagonal sum of the summands; the coordinates of earlier
    summands come first at every vertex."""
    summands = (first,) + rest
    for y in rest:
        _check_compatible(first, y)
    q, p = first.quiver, first.p
    sizes = list(zip(*(r.dims for r in summands)))   # per vertex
    mats = [
        FqMatrix.blocks(p, sizes[t], sizes[s],
                        {(k, k): r.mats[idx] for k, r in enumerate(summands)})
        for idx, (s, t) in enumerate(q.arrows)
    ]
    return Representation(q, p, tuple(map(sum, sizes)), mats)


def _check_compatible(x: Representation, y: Representation) -> None:
    if x.quiver != y.quiver or x.p != y.p:
        raise InputError("representations live over different quivers or moduli")


def _unit(n: int, k: int) -> list:
    e = [0] * n
    e[k] = 1
    return e


def _unit_cols(p: int, rows: int, positions: Sequence[int]) -> FqMatrix:
    """The rows x len(positions) matrix whose column c is the unit vector
    at positions[c]."""
    return FqMatrix.from_cols(p, rows, [_unit(rows, k) for k in positions])


class RepMorphism:
    """An intertwiner between two representations of the same quiver."""

    __slots__ = ("source", "target", "mats", "_hash")

    def __init__(self, source: Representation, target: Representation,
                 mats: Sequence[FqMatrix], validate: bool = True):
        _check_compatible(source, target)
        if len(mats) != source.quiver.vertex_count:
            raise InputError("vertex map count mismatch")
        for v, m in enumerate(mats):
            if m.shape != (target.dims[v], source.dims[v]):
                raise InputError(
                    f"vertex {v} map shape {m.shape} != "
                    f"({target.dims[v]}, {source.dims[v]})"
                )
        self.source = source
        self.target = target
        self.mats = tuple(mats)
        self._hash = None
        if validate and not self.is_intertwiner():
            raise InputError("vertex maps do not intertwine the arrow maps")

    @classmethod
    def zero(cls, source: Representation, target: Representation) -> "RepMorphism":
        mats = tuple(
            FqMatrix.zeros(source.p, target.dims[v], source.dims[v])
            for v in range(source.quiver.vertex_count)
        )
        return cls(source, target, mats, validate=False)

    @classmethod
    def identity(cls, rep: Representation) -> "RepMorphism":
        mats = tuple(FqMatrix.identity(rep.p, d) for d in rep.dims)
        return cls(rep, rep, mats, validate=False)

    def is_intertwiner(self) -> bool:
        for idx, (s, t) in enumerate(self.source.quiver.arrows):
            left = self.mats[t] @ self.source.mats[idx]
            right = self.target.mats[idx] @ self.mats[s]
            if left != right:
                return False
        return True

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self after other (other: a -> b, self: b -> c)."""
        if other.target is not self.source and other.target != self.source:
            raise InputError("morphisms do not compose")
        mats = tuple(a @ b for a, b in zip(self.mats, other.mats))
        return RepMorphism(other.source, self.target, mats, validate=False)

    def __add__(self, other: "RepMorphism") -> "RepMorphism":
        mats = tuple(a + b for a, b in zip(self.mats, other.mats))
        return RepMorphism(self.source, self.target, mats, validate=False)

    def __sub__(self, other: "RepMorphism") -> "RepMorphism":
        mats = tuple(a - b for a, b in zip(self.mats, other.mats))
        return RepMorphism(self.source, self.target, mats, validate=False)

    def __neg__(self) -> "RepMorphism":
        return RepMorphism(self.source, self.target,
                           tuple(-m for m in self.mats), validate=False)

    def scale(self, c: int) -> "RepMorphism":
        return RepMorphism(self.source, self.target,
                           tuple(m.scale(c) for m in self.mats), validate=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def is_injective(self) -> bool:
        return all(m.rank() == m.cols for m in self.mats)

    def is_surjective(self) -> bool:
        return all(m.rank() == m.rows for m in self.mats)

    def is_invertible(self) -> bool:
        return self.source.dims == self.target.dims and all(
            m.is_invertible() for m in self.mats
        )

    def image_key(self) -> tuple:
        """Canonical per-vertex image (column space) bases, for exactness tests."""
        return tuple(m.column_space_basis().data for m in self.mats)

    def kernel_key(self) -> tuple:
        """Canonical per-vertex kernel bases (as row spaces)."""
        return tuple(m.kernel_basis().row_space_basis().data for m in self.mats)

    def key(self) -> tuple:
        return tuple(m.data for m in self.mats)

    def flat(self) -> tuple:
        """All vertex-matrix entries concatenated, for linear algebra on
        morphism spaces."""
        return tuple(v for m in self.mats for v in m.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RepMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.mats == other.mats
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.mats))
        return self._hash

    def __repr__(self) -> str:
        return f"RepMorphism({self.source.dims} -> {self.target.dims})"


def morphism_from_flat(x: Representation, y: Representation, flat: Sequence[int]) -> RepMorphism:
    mats = []
    pos = 0
    for v in range(x.quiver.vertex_count):
        size = y.dims[v] * x.dims[v]
        mats.append(FqMatrix(x.p, y.dims[v], x.dims[v], flat[pos : pos + size]))
        pos += size
    if pos != len(flat):
        raise InputError("flat morphism vector has wrong length")
    return RepMorphism(x, y, mats, validate=False)


@lru_cache(maxsize=None)
def hom_basis(x: Representation, y: Representation) -> tuple:
    """A deterministic basis of Hom(x, y), the solution space of the
    intertwining equations f_j @ x_a = y_a @ f_i over all arrows.

    |Hom(x, y)| = p ** len(result).
    """
    _check_compatible(x, y)
    q, p = x.quiver, x.p
    offsets = []
    total = 0
    for v in range(q.vertex_count):
        offsets.append(total)
        total += y.dims[v] * x.dims[v]

    rows = []
    for idx, (s, t) in enumerate(q.arrows):
        rows += intertwining_rows(total, offsets[t], x.mats[idx], offsets[s], y.mats[idx])
    return tuple(morphism_from_flat(x, y, v) for v in kernel_rows(p, rows, total))


def hom_dim(x: Representation, y: Representation) -> int:
    return len(hom_basis(x, y))


def enumerate_homs(x: Representation, y: Representation,
                   cap: int = DEFAULT_CAP) -> Iterator[RepMorphism]:
    """Every element of Hom(x, y), lexicographically by basis coefficients."""
    basis = hom_basis(x, y)
    d = len(basis)
    if x.p ** d > cap:
        raise EnumerationCapError(
            f"enumerate_homs(dims {x.dims} -> {y.dims}): |Hom| = {x.p}**{d} "
            f"exceeds cap {cap}"
        )
    zero = RepMorphism.zero(x, y)
    scaled = [[b.scale(c) for c in range(x.p)] for b in basis]

    def rec(level: int, acc: RepMorphism) -> Iterator[RepMorphism]:
        if level == d:
            yield acc
            return
        for c in range(x.p):
            nxt = acc if c == 0 else acc + scaled[level][c]
            yield from rec(level + 1, nxt)

    return rec(0, zero)


@lru_cache(maxsize=None)
def aut_order(x: Representation) -> int:
    """|Aut(x)|, counted by enumerating all p^(dim End) endomorphisms and
    keeping those with every vertex matrix invertible."""
    return len(aut_elements(x))


@lru_cache(maxsize=None)
def aut_elements(x: Representation) -> tuple:
    return tuple(f for f in enumerate_homs(x, x) if f.is_invertible())


@lru_cache(maxsize=None)
def aut_generators(x: Representation) -> tuple:
    """A small generating set of Aut(x), for orbit breadth-first searches.

    Greedy: walk the full element list, keeping each element not yet in the
    generated subgroup.  Deterministic because the element list is.
    """
    elements = aut_elements(x)
    ident = RepMorphism.identity(x).key()
    gens: list = []
    closure = {ident}
    for g in elements:
        if g.key() in closure:
            continue
        gens.append(g)
        closure = orbit(ident, composition_moves(gens, (), x.dims, x.dims), x.p)
        if len(closure) == len(elements):
            break
    return tuple(gens)


# -- the orbit search ----------------------------------------------------------


def act(state: tuple, move: tuple, p: int) -> tuple:
    """Apply one move to a tuple of entry tuples.

    A move is a tuple of (component, updates) steps, applied in order.  A
    step reads src = state[component] and writes a copy out of it, where each
    update (k, m, c) does out[k] += c * src[m] mod p; so every update of a
    step reads the step's input, and updates to one entry add up.  The
    catalog's transvections act on arrow-matrix entries this way, and
    composition_moves writes h f and f g on Hom-matrix entries this way.
    """
    mats = list(state)
    for a, updates in move:
        src = mats[a]
        out = list(src)
        for k, m, c in updates:
            out[k] = (out[k] + c * src[m]) % p
        mats[a] = tuple(out)
    return tuple(mats)


def orbit(start: tuple, moves: Sequence[tuple], p: int) -> set:
    """Every state reachable from start by moves (see act); an orbit when
    the moves generate a group action."""
    seen = {start}
    todo = [start]
    while todo:
        state = todo.pop()
        for move in moves:
            image = act(state, move, p)
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def composition_moves(left: Sequence[RepMorphism], right: Sequence[RepMorphism],
                      src_dims: Sequence[int], dst_dims: Sequence[int]) -> list:
    """Moves on the keys of Hom(a, b), a and b of dims src_dims and dst_dims:
    f |-> h f for each automorphism h of b in left, written as
    f_v += (h_v - I) f_v, and f |-> f g for each automorphism g of a in
    right, written as f_v += f_v (g_v - I).  Moves that change nothing are
    dropped."""
    moves = []
    for gens, on_left in ((left, True), (right, False)):
        for g in gens:
            move = []
            for v, m in enumerate(g.mats):
                rows, cols, n = dst_dims[v], src_dims[v], m.rows
                delta = [(i, k, (m.data[i * n + k] - (i == k)) % m.p)
                         for i in range(n) for k in range(n)]
                if on_left:   # (h f)[i, j] += sum_k (h - I)[i, k] f[k, j]
                    updates = tuple((i * cols + j, k * cols + j, c)
                                    for i, k, c in delta if c for j in range(cols))
                else:         # (f g)[i, j] += sum_k f[i, k] (g - I)[k, j]
                    updates = tuple((i * cols + j, i * cols + k, c)
                                    for k, j, c in delta if c for i in range(rows))
                if updates:
                    move.append((v, updates))
            if move:
                moves.append(tuple(move))
    return moves


@dataclass(frozen=True)
class KernelCokernel:
    kernel: Representation
    kernel_incl: RepMorphism    # kernel -> source
    cokernel: Representation
    cokernel_proj: RepMorphism  # target -> cokernel


def _rref_pivots(basis: FqMatrix) -> tuple:
    pivots = []
    for i in range(basis.rows):
        row = basis.row(i)
        pivots.append(next(j for j, a in enumerate(row) if a))
    return tuple(pivots)


def _restrict(x: Representation, bases: Sequence[FqMatrix]) -> tuple:
    """(sub, inclusion) for the subrepresentation of x on the per-vertex
    subspaces whose RREF bases are the rows of `bases`; the arrow maps must
    preserve them.  The coordinate of a vector along RREF row r is its
    entry at the pivot of r."""
    q, p = x.quiver, x.p
    pivots = [_rref_pivots(b) for b in bases]
    dims = tuple(b.rows for b in bases)
    mats = []
    for idx, (s, t) in enumerate(q.arrows):
        images = (x.mats[idx].mul_vec(w) for w in bases[s].row_list())
        mats.append(FqMatrix.from_cols(
            p, dims[t], [tuple(w[pc] for pc in pivots[t]) for w in images]
        ))
    sub = Representation(q, p, dims, mats)
    return sub, RepMorphism(sub, x, tuple(b.transpose() for b in bases), validate=False)


def kernel_cokernel(f: RepMorphism) -> KernelCokernel:
    """Vertexwise kernel and cokernel with their induced arrow maps.

    The kernel is arrow-closed because f intertwines; the cokernel carries
    the quotient maps in the canonical complement coordinates (non-pivot
    columns of the image RREF).
    """
    if not f.is_intertwiner():
        raise InputError("not a valid intertwiner")
    x, y = f.source, f.target
    q, p = x.quiver, x.p

    kernel, incl = _restrict(x, [m.kernel_basis().row_space_basis() for m in f.mats])

    im_spaces = []
    for v in range(q.vertex_count):
        rs = RowSpace(p, y.dims[v])
        for j in range(f.mats[v].cols):
            rs.add(f.mats[v].col(j))
        im_spaces.append(rs)
    coker_coords = [
        [j for j in range(y.dims[v]) if j not in set(im_spaces[v].pivots)]
        for v in range(q.vertex_count)
    ]
    coker_dims = tuple(len(c) for c in coker_coords)

    def project(v: int, vec: Sequence[int]) -> tuple:
        red = im_spaces[v].reduce(vec)
        return tuple(red[j] for j in coker_coords[v])

    proj_mats = [
        FqMatrix.from_cols(p, coker_dims[v], [
            project(v, _unit(y.dims[v], j)) for j in range(y.dims[v])
        ])
        for v in range(q.vertex_count)
    ]
    # column c: the image of the lift e_c of the c-th quotient basis vector
    coker_mats = [
        FqMatrix.from_cols(p, coker_dims[t], [
            project(t, y.mats[idx].mul_vec(_unit(y.dims[s], c)))
            for c in coker_coords[s]
        ])
        for idx, (s, t) in enumerate(q.arrows)
    ]
    cokernel = Representation(q, p, coker_dims, coker_mats)
    proj = RepMorphism(y, cokernel, tuple(proj_mats), validate=False)

    return KernelCokernel(kernel, incl, cokernel, proj)


@dataclass(frozen=True)
class Subrep:
    subspaces: tuple          # per-vertex FqSubspace
    sub: Representation
    incl: RepMorphism         # sub -> ambient
    quot: Representation
    proj: RepMorphism         # ambient -> quot


def enumerate_subreps(z: Representation, cap: int = DEFAULT_CAP) -> list:
    """Every subrepresentation of z: per-vertex subspace tuples closed under
    all arrow maps, each with its induced sub and quotient."""
    q, p = z.quiver, z.p
    per_vertex = []
    total = 1
    for v in range(q.vertex_count):
        spaces = []
        for k in range(z.dims[v] + 1):
            spaces.extend(enumerate_subspaces(p, z.dims[v], k, cap=cap))
        per_vertex.append(spaces)
        total *= len(spaces)
        if total > cap:
            raise EnumerationCapError(
                f"enumerate_subreps(dims {z.dims}): {total}+ subspace tuples "
                f"exceed cap {cap}"
            )

    checkers = []
    for v, spaces in enumerate(per_vertex):
        rows = []
        for sp in spaces:
            rs = RowSpace(p, z.dims[v])
            for i in range(sp.basis.rows):
                rs.add(sp.basis.row(i))
            rows.append(rs)
        checkers.append(rows)

    out = []
    index_ranges = [range(len(spaces)) for spaces in per_vertex]
    for choice in itertools.product(*index_ranges):
        closed = True
        for idx, (s, t) in enumerate(q.arrows):
            b = per_vertex[s][choice[s]].basis
            target_rs = checkers[t][choice[t]]
            for r in range(b.rows):
                if not target_rs.contains(z.mats[idx].mul_vec(b.row(r))):
                    closed = False
                    break
            if not closed:
                break
        if not closed:
            continue
        subspaces = tuple(per_vertex[v][choice[v]] for v in range(q.vertex_count))
        out.append(_induced_subrep(z, subspaces))
    return out


def _induced_subrep(z: Representation, subspaces: tuple) -> Subrep:
    sub, incl = _restrict(z, [sp.basis for sp in subspaces])
    kc = kernel_cokernel(incl)
    return Subrep(subspaces, sub, incl, kc.cokernel, kc.cokernel_proj)


_ISO_SAMPLE_ROUNDS = 200


def is_isomorphic(x: Representation, y: Representation,
                  cap: int = DEFAULT_CAP) -> bool:
    """Dimension-vector check, cheap Hom-dimension prefilters, then a search
    for an invertible intertwiner as the final arbiter.

    The search draws seeded-random Hom elements first (isomorphisms have
    positive density whenever they exist, so this resolves large Hom spaces
    in a few draws and can never return a false positive), then falls back
    to the exhaustive lexicographic scan, capped.
    """
    _check_compatible(x, y)
    if x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    if hom_dim(x, x) != hom_dim(y, y):
        return False
    if hom_dim(x, y) != hom_dim(x, x):
        return False
    basis = hom_basis(x, y)
    d = len(basis)
    if d:
        rng = _random.Random(0x15011 ^ (d << 8) ^ x.p)
        for _ in range(_ISO_SAMPLE_ROUNDS):
            f = RepMorphism.zero(x, y)
            for b in basis:
                c = rng.randrange(x.p)
                if c:
                    f = f + b.scale(c)
            if f.is_invertible():
                return True
    for f in enumerate_homs(x, y, cap=cap):
        if f.is_invertible():
            return True
    return False


def euler_form(q: Quiver, a: Sequence[int], b: Sequence[int]) -> int:
    """<a, b> = sum a_i b_i - sum over arrows a_src b_dst; equals
    dim Hom - dim Ext^1 for representations without relations."""
    val = sum(ai * bi for ai, bi in zip(a, b))
    for s, t in q.arrows:
        val -= a[s] * b[t]
    return val


@dataclass(frozen=True)
class ProjectiveData:
    rep: Representation
    paths_at: tuple  # per-vertex tuple of paths (arrow index tuples)


@lru_cache(maxsize=None)
def projective_rep(q: Quiver, p: int, vertex: int) -> ProjectiveData:
    """The indecomposable projective at a vertex: basis at j = paths
    vertex -> j, arrows acting by path extension."""
    all_paths = paths_from(q, vertex)
    paths_at = tuple(
        tuple(w for w in all_paths if path_target(q, vertex, w) == j)
        for j in range(q.vertex_count)
    )
    dims = tuple(len(ws) for ws in paths_at)
    mats = [
        _unit_cols(p, dims[t], [paths_at[t].index(w + (idx,)) for w in paths_at[s]])
        for idx, (s, t) in enumerate(q.arrows)
    ]
    return ProjectiveData(Representation(q, p, dims, mats), paths_at)


@dataclass(frozen=True)
class Resolution:
    """0 -> p1 -(delta)-> p0 -(aug)-> module -> 0, projective p0 and p1."""
    p1: Representation
    p0: Representation
    delta: RepMorphism
    aug: RepMorphism


def _apply_path(m: Representation, path: tuple, vec: Sequence[int]) -> tuple:
    v = tuple(vec)
    for idx in path:
        v = m.mats[idx].mul_vec(v)
    return v


@lru_cache(maxsize=None)
def standard_resolution(m: Representation) -> Resolution:
    """The two-term projective resolution of a representation of an acyclic
    quiver: p0 = (+)_i P_i^(d_i), p1 = (+)_(a: i->j) P_j^(d_i)."""
    q, p = m.quiver, m.p
    projs = [projective_rep(q, p, i) for i in range(q.vertex_count)]

    p0_blocks = [(i, c) for i in range(q.vertex_count) for c in range(m.dims[i])]
    p1_blocks = [
        (idx, c) for idx, (i, j) in enumerate(q.arrows) for c in range(m.dims[i])
    ]
    zero = Representation.zero(q, p)
    p0_rep = direct_sum(zero, *(projs[i].rep for i, _ in p0_blocks))
    p1_rep = direct_sum(zero, *(projs[q.arrows[a][1]].rep for a, _ in p1_blocks))

    # augmentation p0 -> m: block (i, c), basis path w: i -> v  |->  M_w(e_c)
    aug = RepMorphism(p0_rep, m, tuple(
        FqMatrix.from_cols(p, m.dims[v], [
            _apply_path(m, w, _unit(m.dims[i], c))
            for i, c in p0_blocks for w in projs[i].paths_at[v]
        ])
        for v in range(q.vertex_count)
    ), validate=False)

    # delta p1 -> p0 on block (a: i->j, c), basis path w: j -> v:
    #   + (path a then w) in block (i, c)
    #   - sum_c' (M_a e_c)_(c') * (path w) in block (j, c')
    # The two never share a block, since i != j on an acyclic quiver.
    p0_block_index = {blk: bi for bi, blk in enumerate(p0_blocks)}
    delta_mats = []
    for v in range(q.vertex_count):
        at = [pd.paths_at[v] for pd in projs]
        blocks = {}
        for col, (a, c) in enumerate(p1_blocks):
            i, j = q.arrows[a]
            blocks[p0_block_index[(i, c)], col] = _unit_cols(
                p, len(at[i]), [at[i].index((a,) + w) for w in at[j]]
            )
            for c2, coeff in enumerate(m.mats[a].col(c)):
                if coeff:
                    blocks[p0_block_index[(j, c2)], col] = (
                        FqMatrix.identity(p, len(at[j])).scale(-coeff)
                    )
        delta_mats.append(FqMatrix.blocks(
            p, [len(at[i]) for i, _ in p0_blocks],
            [len(at[q.arrows[a][1]]) for a, _ in p1_blocks], blocks,
        ))
    delta = RepMorphism(p1_rep, p0_rep, tuple(delta_mats), validate=False)

    for holds, what in (
        (aug.compose(delta).is_zero(), "aug o delta is not zero"),
        (delta.is_injective(), "delta is not injective"),
        (aug.is_surjective(), "aug is not surjective"),
        # exactness in the middle: rank(delta_v) == dim ker(aug_v)
        (all(aug.mats[v].kernel_basis().rows == delta.mats[v].rank()
             for v in range(q.vertex_count)), "not exact at p0"),
    ):
        if not holds:
            raise InvariantError(f"standard_resolution(dims {m.dims}): {what}")
    return Resolution(p1_rep, p0_rep, delta, aug)


def ext1_dim(x: Representation, y: Representation) -> int:
    """dim Ext^1(x, y) from the standard resolution of x: the cokernel
    dimension of Hom(p0, y) -> Hom(p1, y), g |-> g o delta.

    Cross-checked on every call against the Euler-form identity
    dim Hom - dim Ext^1 = <dim x, dim y>.
    """
    res = standard_resolution(x)
    b0 = hom_basis(res.p0, y)
    b1 = hom_basis(res.p1, y)
    if not b1:
        ext1 = 0
    else:
        rank = FqMatrix.from_rows(
            x.p, [list(g.compose(res.delta).flat()) for g in b0]
        ).rank() if b0 else 0
        ext1 = len(b1) - rank
    defect = hom_dim(x, y) - ext1 - euler_form(x.quiver, x.dims, y.dims)
    if defect:
        raise InvariantError(
            f"ext1_dim(dims {x.dims} -> {y.dims}): dim Hom - dim Ext^1 = "
            f"{hom_dim(x, y) - ext1} != Euler form "
            f"{euler_form(x.quiver, x.dims, y.dims)}"
        )
    return ext1
