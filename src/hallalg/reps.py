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
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import EnumerationCapError, InputError, InvariantError
from .fq import (
    FqMatrix,
    RowSpace,
    check_prime,
    enumerate_subspaces,
    gaussian_binomial,
    intertwining_rows,
    kernel_from_rref,
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
    """The basis of Hom(x, y), the solution space of the intertwining
    equations f_j @ x_a = y_a @ f_i over all arrows, as flat rows (each the
    entries of RepMorphism.flat(), so morphism_from_flat(x, y, row) is the
    basis morphism) in reduced echelon form with ascending pivots.

    The equations are solved with the columns reversed, so each vector of
    fq.kernel_from_rref, flipped back, has its own free column as its first
    nonzero.  An element's entries at the pivots are its coefficients:
    coefficient-lex order is ascending key order, and block v depends only
    on the rows that pivot in blocks <= v (what hom_keys walks by).

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
    flipped = kernel_rows(p, (row[::-1] for row in rows), total)
    return tuple(tuple(v[::-1]) for v in reversed(flipped))


def hom_dim(x: Representation, y: Representation) -> int:
    return len(hom_basis(x, y))


def morphism_from_key(x: Representation, y: Representation, key: tuple) -> RepMorphism:
    """The morphism x -> y whose key() is key."""
    return RepMorphism(x, y, tuple(
        FqMatrix(x.p, y.dims[v], x.dims[v], data) for v, data in enumerate(key)
    ), validate=False)


def check_hom_cap(x: Representation, y: Representation, cap: int) -> tuple:
    """hom_basis(x, y), after checking that |Hom(x, y)| = p^(dim Hom) is
    within cap: the cap test of hom_keys, which a caller about to walk
    several Hom spaces runs on all of them before it walks any."""
    basis = hom_basis(x, y)
    if x.p ** len(basis) > cap:
        raise EnumerationCapError(
            f"hom_keys(dims {x.dims} -> {y.dims}): |Hom| = {x.p}**{len(basis)} "
            f"exceeds cap {cap}"
        )
    return basis


def hom_keys(x: Representation, y: Representation, keep,
             cap: int = DEFAULT_CAP) -> Iterator[tuple]:
    """(key, values) for each element of Hom(x, y) whose vertex blocks all
    pass keep, in ascending key order (a key is RepMorphism.key()).

    keep(p, cols, rows, block) reads one rows x cols vertex block and
    returns None to reject it, else a value; values holds them vertex by
    vertex.  column_space keeps the monos, valued by image, row_kernel the
    epis, valued by kernel, and any_block every element, valued by itself.

    The walk fixes the key one vertex block at a time: by the echelon form
    of hom_basis, block v is the tail carried from earlier blocks plus a
    combination of the rows that pivot in block v, whose p^r sums are made
    once per call, in lex order.  A rejected block drops its whole subtree,
    and keys that share a prefix share its block tuples.  The cap bounds
    |Hom| = p^(dim Hom) and is checked when this is called, before the
    first key (check_hom_cap); the keys are then produced lazily.
    """
    basis = check_hom_cap(x, y, cap)
    p = x.p
    shapes = list(zip(x.dims, y.dims))
    ends = list(itertools.accumulate((c * r for c, r in shapes), initial=0))
    # the first nonzero of an echelon row is its pivot entry, a 1
    pivots = [row.index(1) for row in basis]
    levels = []
    for start, end in zip(ends, ends[1:]):
        combos = [(0,) * (ends[-1] - start)]
        for row, pivot in zip(reversed(basis), reversed(pivots)):
            if start <= pivot < end:
                row = row[start:]
                combos += [tuple([(c * a + b) % p for a, b in zip(row, rest)])
                           for c in range(1, p) for rest in combos]
        levels.append([(combo[:end - start], combo[end - start:]) for combo in combos])
    return _walk(p, keep, shapes, levels, 0, (0,) * ends[-1], (), ())


def _walk(p: int, keep, shapes: list, levels: list, v: int, tail: tuple,
          key: tuple, values: tuple) -> Iterator[tuple]:
    """The (key, values) of hom_keys below the first v blocks, key, with
    tail the sum of their rows on blocks v and later."""
    if v == len(levels):
        yield key, values
        return
    cols, rows = shapes[v]
    head, tail = tail[:cols * rows], tail[cols * rows:]
    add_head, add_tail = any(head), any(tail)
    for block, rest in levels[v]:
        if add_head:
            block = tuple([(a + b) % p for a, b in zip(head, block)])
        value = keep(p, cols, rows, block)
        if value is not None:
            if add_tail:
                rest = tuple([(a + b) % p for a, b in zip(tail, rest)])
            yield from _walk(p, keep, shapes, levels, v + 1, rest,
                             key + (block,), values + (value,))


def any_block(p: int, cols: int, rows: int, block: tuple) -> tuple:
    """The keep of hom_keys that passes every block, valued by the block."""
    return block


def enumerate_homs(x: Representation, y: Representation,
                   cap: int = DEFAULT_CAP) -> Iterator[RepMorphism]:
    """Every element of Hom(x, y) as a RepMorphism, in the order of
    hom_keys with any_block; the cap is checked when this is called."""
    return (morphism_from_key(x, y, k) for k, _ in hom_keys(x, y, any_block, cap))


@lru_cache(maxsize=None)
def column_space(p: int, cols: int, rows: int, entries: tuple):
    """Flat RREF data of the column space of the rows x cols matrix with
    row-major entries when its columns are independent, else None.  Keys
    read it per vertex block, and a universe has few distinct blocks."""
    space = RowSpace(p, rows)
    for j in range(cols):
        if not space.add(entries[j::cols]):
            return None
    return tuple(v for row in space.rows for v in row)


@lru_cache(maxsize=None)
def row_kernel(p: int, cols: int, rows: int, entries: tuple):
    """Flat RREF data of the kernel of the rows x cols matrix with row-major
    entries when its rows are independent, else None; memoized per block
    as column_space is."""
    space = RowSpace(p, cols)
    for i in range(rows):
        if not space.add(entries[i * cols : (i + 1) * cols]):
            return None
    kernel = RowSpace(p, cols)
    for v in kernel_from_rref(p, space.rows, space.pivots, cols):
        kernel.add(v)
    return tuple(v for row in kernel.rows for v in row)


@lru_cache(maxsize=None)
def aut_order(x: Representation) -> int:
    """|Aut(x)|, the length of aut_elements.  The test oracle only:
    production reads Catalog.aut_order."""
    return len(aut_elements(x))


@lru_cache(maxsize=None)
def aut_elements(x: Representation) -> tuple:
    """Every automorphism of x, in ascending key order: the walk of End(x)
    by hom_keys with column_space, which keeps exactly the automorphisms
    (an injective endomorphism is invertible).  The test oracle only:
    production acts by aut_generators."""
    return tuple(morphism_from_key(x, x, k) for k, _ in hom_keys(x, x, column_space))


@lru_cache(maxsize=None)
def aut_generators(x: Representation, order: int, cap: int = DEFAULT_CAP) -> tuple:
    """A small generating set of Aut(x), for orbit breadth-first searches.

    Greedy: walk the automorphisms of x in ascending key order (hom_keys of
    End(x) with column_space, which prunes the non-invertible blocks),
    keeping each one not yet in the generated subgroup, until that subgroup
    has `order` elements (|Aut x|, which the caller knows).  After each
    kept generator the subgroup is the orbit of the identity key under the
    moves of every generator kept; a RepMorphism is built only for those.
    Deterministic because the key order is.  The cap bounds |End(x)|, as
    in hom_keys.  Raises InvariantError when the walk ends short of
    `order`; an order below |Aut x| is left to the caller's orbit
    divisibility checks.
    """
    ident = RepMorphism.identity(x).key()
    closure = {ident}
    gens: list = []
    for k, _ in hom_keys(x, x, column_space, cap):
        if k in closure:
            continue
        gens.append(morphism_from_key(x, x, k))
        closure = orbit(ident, composition_moves(gens, (), x.dims, x.dims), x.p)
        if len(closure) >= order:
            break
    if len(closure) < order:
        raise InvariantError(
            f"aut_generators(dims {x.dims}): the invertible keys generate "
            f"{len(closure)} automorphisms, not |Aut| = {order}"
        )
    return tuple(gens)


# -- the orbit search ----------------------------------------------------------


def act(state: tuple, move: tuple, p: int) -> tuple:
    """Apply one move to a tuple of entry tuples.

    A move is a tuple of (component, updates) steps, applied in order.  A
    step reads src = state[component] and writes a copy out of it, where each
    update (k, m, c) does out[k] += c * src[m] mod p; so every update of a
    step reads the step's input, and updates to one entry add up.
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


def orbit(start: tuple, moves: Sequence[tuple], p: int, label=None) -> set:
    """Every state reachable from start by moves (see act); an orbit when
    the moves generate a group action.

    With label, a state is expanded only when its label is new, and the set
    of labels met is returned: the orbit of label(start) whenever
    label(s) fixes label(act(s, move)), as im(h f) = h . im(f) for a Hom
    key f and an automorphism h of its target."""
    label = label or (lambda state: state)
    seen = {label(start)}
    todo = [start]
    while todo:
        state = todo.pop()
        for move in moves:
            image = act(state, move, p)
            mark = label(image)
            if mark not in seen:
                seen.add(mark)
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


class KernelCokernel:
    __slots__ = ("kernel", "kernel_incl", "cokernel", "cokernel_proj")

    def __init__(self, kernel: Representation, kernel_incl: RepMorphism,
                 cokernel: Representation, cokernel_proj: RepMorphism):
        self.kernel = kernel
        self.kernel_incl = kernel_incl      # kernel -> source
        self.cokernel = cokernel
        self.cokernel_proj = cokernel_proj  # target -> cokernel


def _restrict(x: Representation, bases: Sequence[FqMatrix]) -> tuple:
    """(sub, inclusion) for the subrepresentation of x on the per-vertex
    subspaces whose RREF bases are the rows of `bases`; the arrow maps must
    preserve them.  The coordinate of a vector along RREF row r is its
    entry at the pivot of r."""
    q, p = x.quiver, x.p
    pivots = [_split_rref(b.data, b.cols)[1] for b in bases]
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
    columns of the image RREF).  The object-building reference for
    quotient_key, kept for the tests and the tracer: the span model, the
    orbit check and the subrep histograms classify cokernels by
    quotient_key and build no kernel.
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


class Subrep:
    __slots__ = ("bases", "sub", "quot")

    def __init__(self, bases: tuple, sub: Representation, quot: Representation):
        self.bases = bases  # per-vertex flat RREF data, as in subobjects
        self.sub = sub
        self.quot = quot


def enumerate_subreps(z: Representation, cap: int = DEFAULT_CAP) -> list:
    """Every subrepresentation of z, in the order of subobjects, each with
    its sub and quotient built as objects by _restrict and kernel_cokernel.

    The object-building reference for sub_key and quotient_key, kept for the
    tests and the tracer; the Hall numbers never build these objects."""
    p = z.p
    out = []
    for bases, _ in subobjects(z, cap):
        sub, incl = _restrict(z, [
            FqMatrix(p, len(_split_rref(b, n)[1]), n, b)
            for b, n in zip(bases, z.dims)
        ])
        out.append(Subrep(bases, sub, kernel_cokernel(incl).cokernel))
    return out


# -- subobjects as keys --------------------------------------------------------
#
# A subspace U of F_p^n is held as the flat row-major data of its RREF basis
# (the data of its fq.enumerate_subspaces matrix, the per-vertex values of
# column_space).  The coordinate of a vector of U along RREF row r is its
# entry at the pivot of r; the quotient F_p^n / U has the non-pivot columns
# as coordinates, read off a vector after reducing it modulo U, as
# kernel_cokernel does.
#
# Two computations repeat across the subspace tuples of a sweep, and each is
# done once and then only read.  The reduction of v modulo U is memoized in
# _REDUCTIONS, keyed by (p, n, U, v) like _split_rref and filled by _reduce
# only as vectors are asked for, never as a table over F_p^n; it is shared
# by every caller of sub_key and quotient_key (the subrep histograms, the
# span model's cokernel classes and the orbit check).  The images z_a w of
# the RREF rows w of U_s are kept by subobjects for its one sweep of z and
# handed to sub_key; nothing keeps them past the sweep.


@lru_cache(maxsize=None)
def _split_rref(data: tuple, n: int) -> tuple:
    """(rows, pivots, free columns) of the subspace of F_p^n with flat RREF
    data; a zero-dimensional ambient space has no rows."""
    rows = tuple(data[i : i + n] for i in range(0, len(data), n)) if n else ()
    pivots = tuple(next(j for j, a in enumerate(row) if a) for row in rows)
    free = tuple(j for j in range(n) if j not in pivots)
    return rows, pivots, free


_REDUCTIONS: dict = {}


def _reduce(p: int, n: int, data: tuple, v: tuple) -> tuple:
    """(v at the pivots of U, v modulo U at the free columns of U) for the
    subspace U of F_p^n with flat RREF data `data`: the coordinates of v
    along the RREF rows when v lies in U, and those of its class in
    F_p^n / U.  Read from _REDUCTIONS, which this fills on first ask."""
    key = (p, n, data, v)
    got = _REDUCTIONS.get(key)
    if got is None:
        rows, pivots, free = _split_rref(data, n)
        coords = tuple(v[j] for j in pivots)
        got = _REDUCTIONS[key] = coords, tuple(
            (v[j] - sum(c * r[j] for c, r in zip(coords, rows))) % p for j in free)
    return got


def _row_major(cols: list, rows: int) -> tuple:
    """Entries of the matrix with the given columns, row by row."""
    return tuple(col[i] for i in range(rows) for col in cols)


def sub_key(z: Representation, bases: Sequence[tuple], images: Sequence[dict] = ()):
    """Representation.key() of the subrepresentation of z on the per-vertex
    subspaces U with flat RREF data `bases`, or None when some arrow map
    leaves them: also the closure test of subobjects.  Column c of the
    arrow a: s -> t holds the coordinates of z_a applied to RREF row c of
    U_s, as _restrict builds it, read off its memoized reduction modulo U_t.

    `images` holds one dict per arrow a, {w: z_a w}, which this reads and
    fills: subobjects passes the dicts of its sweep of z, so each row is
    mapped once per sweep.  Without them each image is computed afresh."""
    p, dims = z.p, z.dims
    split = [_split_rref(b, n) for b, n in zip(bases, dims)]
    entries = []
    for idx, (s, t) in enumerate(z.quiver.arrows):
        m, seen = z.mats[idx], images[idx] if images else {}
        cols = []
        for w in split[s][0]:
            im = seen.get(w)
            if im is None:
                im = seen[w] = m.mul_vec(w)
            coords, rest = _reduce(p, dims[t], bases[t], im)
            if any(rest):
                return None
            cols.append(coords)
        entries.append(_row_major(cols, len(split[t][1])))
    return tuple(len(sp[1]) for sp in split), tuple(entries)


def quotient_key(z: Representation, bases: Sequence[tuple]) -> tuple:
    """Representation.key() of z / U for the subrepresentation U with
    per-vertex flat RREF data `bases`, in the coordinates of
    kernel_cokernel: column c of the arrow a: s -> t is z_a e_c, for each
    free column c of U_s, reduced modulo U_t (read from the memo of _reduce)
    and read at the free columns of U_t."""
    p, dims = z.p, z.dims
    split = [_split_rref(b, n) for b, n in zip(bases, dims)]
    entries = tuple(
        _row_major([_reduce(p, dims[t], bases[t], z.mats[idx].col(c))[1]
                    for c in split[s][2]], len(split[t][2]))
        for idx, (s, t) in enumerate(z.quiver.arrows)
    )
    return tuple(len(sp[2]) for sp in split), entries


@lru_cache(maxsize=None)
def _subspace_table(p: int, n: int) -> tuple:
    """Every subspace of F_p^n as flat RREF data, by dimension and then in
    the order of fq.enumerate_subspaces."""
    return tuple(sp.data for k in range(n + 1)
                 for sp in enumerate_subspaces(p, n, k, cap=gaussian_binomial(n, k, p)))


def subobjects(z: Representation, cap: int = DEFAULT_CAP) -> Iterator[tuple]:
    """(bases, sub_key(z, bases)) for every subrepresentation of z: the one
    closure search, over the per-vertex subspace tables with the last
    vertex fastest, sub_key deciding closure.  The arrow images of the
    subspace rows are kept for this one sweep and handed to sub_key.

    The cap bounds the number of subspace tuples searched and is checked
    when this is called, vertex by vertex from the Gaussian binomials,
    before any table is built; the tuples are then produced lazily."""
    total = 1
    for n in z.dims:
        total *= sum(gaussian_binomial(n, k, z.p) for k in range(n + 1))
        if total > cap:
            raise EnumerationCapError(
                f"subobjects(dims {z.dims}): {total}+ subspace tuples "
                f"exceed cap {cap}"
            )
    tables = [_subspace_table(z.p, n) for n in z.dims]
    images = tuple({} for _ in z.mats)
    return ((bases, key) for bases in itertools.product(*tables)
            if (key := sub_key(z, bases, images)) is not None)


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
            flat = [0] * len(basis[0])
            for b in basis:
                c = rng.randrange(x.p)
                if c:
                    flat = [(a + c * v) % x.p for a, v in zip(flat, b)]
            if morphism_from_flat(x, y, flat).is_invertible():
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


class ProjectiveData:
    __slots__ = ("rep", "paths_at")

    def __init__(self, rep: Representation, paths_at: tuple):
        self.rep = rep
        self.paths_at = paths_at  # per-vertex tuple of paths (arrow index tuples)


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


class Resolution:
    """0 -> p1 -(delta)-> p0 -(aug)-> module -> 0, projective p0 and p1."""

    __slots__ = ("p1", "p0", "delta", "aug")

    def __init__(self, p1: Representation, p0: Representation, delta: RepMorphism,
                 aug: RepMorphism):
        self.p1 = p1
        self.p0 = p0
        self.delta = delta
        self.aug = aug


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
            x.p, [list(morphism_from_flat(res.p0, y, g).compose(res.delta).flat())
                  for g in b0]
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
