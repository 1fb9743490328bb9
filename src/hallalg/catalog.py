"""The bounded universe of isomorphism classes of quiver representations.

A Catalog holds one canonical representative per isomorphism class with
dimension vector <= a componentwise bound.  The classes of dimension vector d
are the orbits of GL_d = prod_v GL_{d_v}(F_p) on Rep_d, the arrow-matrix
tuples of that shape, acting by g.(M_a) = (g_t M_a g_s^-1).

The build sweeps Rep_d on integer codes: a tuple is the code of its flat
entry tuple read as a big-endian base-p number (arrows in order, each matrix
row-major), so codes count up in the order itertools.product walks the entry
tuples.  The generators of GL_d (_generators) compile to moves on codes
(_compile_moves): every written row of an arrow matrix is one lookup in a
shared row table on at most two rows it reads.  One label array over Rep_d
is both the search's seen-set and the class table (_label_orbits).  The first
unlabelled code is the lexicographically least member of its orbit and
becomes the canonical representative.

The catalog keeps the label array of each dimension vector, so classifying
a key reads its code into the array, and orbit-stabilizer gives |Aut M| =
|GL_d| / |orbit| for free.  Orbit divisibility and the mass formula
sum_[M] |GL_d| / |Aut M| = |Rep_d| are checked at build time.  Hom and Ext^1
dimensions are cached lazily.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import EnumerationCapError, InputError, InvariantError, OutOfUniverseError
from .fq import FqMatrix, check_prime, inv_mod
from .quivers import Quiver
from . import reps
from .reps import Representation


def _gl_order(n: int, p: int) -> int:
    """|GL_n(F_p)| = prod_{i<n} (p^n - p^i)."""
    return math.prod(p ** n - p ** i for i in range(n))


def _primitive_root(p: int) -> int:
    return next(
        r for r in range(2, p) if len({pow(r, k, p) for k in range(1, p)}) == p - 1
    )


def _elementary(n: int, i: int, j: int, c: int, p: int) -> tuple:
    """I + c E_ij over F_p as a tuple of rows."""
    return tuple(tuple((int(r == k) + c * (r == i and k == j)) % p for k in range(n))
                 for r in range(n))


def _generators(quiver: Quiver, p: int, dims: tuple) -> list:
    """Generators of GL_d as per-vertex matrix pairs (v, g, g^-1), each
    matrix a tuple of rows.

    At a vertex v of dimension n >= 3 the generators are I + E_01, the
    n-cycle c (row i - 1 to row i) and, for p > 2, diag(r, 1, ..., 1) with r
    a primitive root.  The conjugates c^k (I + E_01) c^-k are the
    transvections I + E_(k,k+1) around the cycle, and their commutators give
    every I + E_ij, which generate SL_n(F_p); the determinants of c and of
    the diagonal one reach all of F_p^*, so together they generate
    GL_n(F_p).  At n = 2 the transvections I + E_01 and I + E_10 (which
    generate SL_2) take the place of I + E_01 and c; at n = 1 only the
    diagonal one is left.

    The build compiles each pair into moves on codes (_compile_moves): g
    acts on the arrows into v from the left and g^-1 on the arrows out of v
    from the right, so a loop at v gets both.  Each row of g may read at
    most one row besides its own.
    """
    r = _primitive_root(p) if p > 2 else 1
    gens = []
    for v, n in enumerate(dims):
        if n >= 3:
            cycle = tuple(tuple(int(k == (i - 1) % n) for k in range(n)) for i in range(n))
            gens.append((v, _elementary(n, 0, 1, 1, p), _elementary(n, 0, 1, p - 1, p)))
            gens.append((v, cycle, tuple(zip(*cycle))))
        elif n == 2:
            gens.extend((v, _elementary(n, i, j, 1, p), _elementary(n, i, j, p - 1, p))
                        for i, j in ((0, 1), (1, 0)))
        if r != 1 and n:
            gens.append((v, _elementary(n, 0, 0, r - 1, p),
                         _elementary(n, 0, 0, inv_mod(r, p) - 1, p)))
    return gens


def _row_code(entries, p: int) -> int:
    code = 0
    for e in entries:
        code = code * p + e % p
    return code


@lru_cache(maxsize=None)
def _left_table(p: int, cols: int, a: int, b: int) -> tuple:
    """The change of a row x under x |-> a x + b y, for rows x and y of
    `cols` entries: entry x p^cols + y, by their codes, or entry x if b = 0
    and y is not read."""
    rows = list(itertools.product(range(p), repeat=cols))
    return tuple(_row_code([a * e + b * f for e, f in zip(x, y)], p) - cx
                 for cx, x in enumerate(rows) for y in (rows if b else rows[:1]))


@lru_cache(maxsize=None)
def _right_table(p: int, h: tuple, two: bool) -> tuple:
    """The change of a row x of len(h) entries under x |-> x h, by the code
    of x; with `two`, of a block of two adjacent rows, by its code."""
    n = len(h)
    one = [_row_code([sum(x[m] * h[m][k] for m in range(n)) for k in range(n)], p) - cx
           for cx, x in enumerate(itertools.product(range(p), repeat=n))]
    return tuple(du * len(one) + dl for du in one for dl in one) if two else tuple(one)


def _compile_moves(quiver: Quiver, p: int, dims: tuple, gens: Sequence) -> list:
    """The generators (v, g, g^-1) as moves on the codes of Rep_d.

    A move is a tuple of steps, run in order.  A step (blocks, pairs) holds
    row writes that all read the step's input code x and add to its output.
    A block write (w, n, table) adds table[x // w % n] * w, where x // w % n
    is the code of one row, or of two adjacent rows, ending at weight w.  A
    pair write (w, w2, n, table) adds table[x // w % n * n + x // w2 % n] * w
    for a row at weight w that also reads the row at weight w2.  On an arrow
    into v, each row of g other than a unit row is a write (a pair write if
    it reads another row); on an arrow out of v, the rows go through the
    table of g^-1 two at a time.  A loop at v takes the left step before the
    right one; any other move is one step.  Moves that write nothing are
    dropped.
    """
    shapes = [(dims[t], dims[s]) for s, t in quiver.arrows]
    total = sum(r * c for r, c in shapes)
    weights, offset = [], 0
    for r, c in shapes:
        weights.append([p ** (total - offset - (i + 1) * c) for i in range(r)])
        offset += r * c
    moves = []
    for v, g, g_inv in gens:
        n = dims[v]
        left, right, loop = ([], []), ([], []), False
        for (s, t), (rows, cols), w in zip(quiver.arrows, shapes, weights):
            loop = loop or s == t == v
            if t == v and cols:
                size = p ** cols
                for i in range(n):
                    reads = [k for k in range(n) if k != i and g[i][k] % p]
                    if len(reads) > 1:
                        raise InvariantError(
                            f"catalog.build(dims {_fmt_dims(dims)}): row {i} of a "
                            f"generator at vertex {v} reads {len(reads)} other rows")
                    a = g[i][i] % p
                    if reads:
                        left[1].append((w[i], w[reads[0]], size,
                                        _left_table(p, cols, a, g[i][reads[0]] % p)))
                    elif a != 1:
                        left[0].append((w[i], size, _left_table(p, cols, a, 0)))
            if s == v and rows:
                size = p ** n
                if rows > 1:
                    two = _right_table(p, g_inv, True)
                    right[0].extend((w[k + 1], size * size, two)
                                    for k in range(0, rows - 1, 2))
                if rows % 2:
                    right[0].append((w[-1], size, _right_table(p, g_inv, False)))
        steps = (left, right) if loop else ((left[0] + right[0], left[1] + right[1]),)
        move = tuple((tuple(b), tuple(pr)) for b, pr in steps if b or pr)
        if move:
            moves.append(move)
    return moves


def _label_orbits(moves: Sequence, size: int, first: int) -> tuple:
    """Sweep the codes 0..size-1 into orbits under moves: the label array
    (labels[code] = first + the number of the orbit of code) and per orbit
    its first code and its size.  A code counts as unseen while its label is
    not the current orbit's, so if the moves are no group action,
    overlapping orbits are each counted in full and the mass formula fails.
    """
    labels = [-1] * size
    orbits = []
    for start in range(size):
        if labels[start] >= 0:
            continue
        index = first + len(orbits)
        labels[start] = index
        todo = [start]
        count = 1
        while todo:
            state = todo.pop()
            for move in moves:
                c = state
                for blocks, pairs in move:
                    x = c
                    for w, n, table in blocks:
                        c += table[x // w % n] * w
                    for w, w2, n, table in pairs:
                        c += table[x // w % n * n + x // w2 % n] * w
                if labels[c] != index:
                    labels[c] = index
                    todo.append(c)
                    count += 1
        orbits.append((start, count))
    return labels, orbits


def _representation(quiver: Quiver, p: int, dims: tuple, shapes: list,
                    code: int) -> Representation:
    """The representation whose arrow-matrix entries have this code."""
    total = sum(r * c for r, c in shapes)
    digits = [code // p ** k % p for k in reversed(range(total))]
    mats, offset = [], 0
    for r, c in shapes:
        mats.append(FqMatrix(p, r, c, digits[offset:offset + r * c]))
        offset += r * c
    return Representation(quiver, p, dims, mats)


def _direct_sum_key(a: Representation, b: Representation) -> tuple:
    """reps.direct_sum(a, b).key(), without building the representation:
    per arrow, the rows of a's matrix padded on the right and the rows of
    b's matrix padded on the left."""
    data = []
    for ma, mb in zip(a.mats, b.mats):
        pad_a, pad_b = (0,) * mb.cols, (0,) * ma.cols
        data.append(tuple(itertools.chain(
            *(ma.row(r) + pad_a for r in range(ma.rows)),
            *(pad_b + mb.row(r) for r in range(mb.rows)),
        )))
    return (tuple(x + y for x, y in zip(a.dims, b.dims)), tuple(data))


def _fmt_dims(dims: tuple) -> str:
    return "(" + ",".join(map(str, dims)) + ")"


class CatalogEntry:
    """One class of the catalog: its index, canonical representative and
    |Aut|; indecomposable is filled in once the catalog is built."""

    __slots__ = ("index", "rep", "aut_order", "indecomposable")

    def __init__(self, index: int, rep: Representation, aut_order: int,
                 indecomposable: bool = False):
        self.index = index
        self.rep = rep
        self.aut_order = aut_order
        self.indecomposable = indecomposable

    @property
    def dims(self) -> tuple:
        return self.rep.dims


class Catalog:
    """All iso classes with dim vector <= bound, with cached invariants.

    `labels` maps each dimension vector d in the bound to its label array:
    the class index of every tuple of Rep_d, by code.
    """

    def __init__(self, quiver: Quiver, p: int, bound: Sequence[int],
                 entries: Sequence[CatalogEntry], labels: dict):
        self.quiver = quiver
        self.p = p
        self.bound = tuple(bound)
        self.entries = list(entries)
        self._labels = labels
        self._by_dims: dict = {}
        for e in self.entries:
            self._by_dims.setdefault(e.dims, []).append(e.index)
        self._hom_dim: dict = {}
        self._ext1: dict = {}
        # derived-category caches, filled by hallalg.derived
        self.derived_stalks: dict = {}          # DerivedClass -> Complex
        self.derived_projectives: dict = {}     # DerivedClass -> Complex
        self.derived_hom_tables: dict = {}      # (x, z) -> HomotopyClasses, the oracle
        self.derived_hom_blocks: dict = {}      # (a, b, k) -> HomotopyClasses
        self.derived_block_lifts: dict = {}     # (a, b, k) -> chain maps P(A) -> P(B[k])
        self.derived_compositions: dict = {}    # (a, b, c, k1, k2) -> composition_table
        # (x_n, x_(n+1), z_n, z_(n+1)) -> {three block coefficient tuples:
        # class of cone H^n}, and what a miss of it reads (cone_homology)
        self.derived_cone_homology: dict = {}
        self.derived_cone_tables: dict = {}
        self.derived_cone_classes: dict = {}    # entries -> DerivedClass of a cone
        self._mark_indecomposables()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, quiver: Quiver, p: int, bound: Sequence[int],
              cap: int = reps.DEFAULT_CAP) -> "Catalog":
        check_prime(p)
        bound = tuple(bound)
        if len(bound) != quiver.vertex_count:
            raise InputError("bound length != vertex count")
        if any(b < 0 for b in bound):
            raise InputError("bound must be componentwise >= 0")

        entries: list = []
        labels_of: dict = {}
        dim_vectors = sorted(
            itertools.product(*(range(b + 1) for b in bound)),
            key=lambda d: (sum(d), d),
        )
        for dims in dim_vectors:
            shapes = [(dims[t], dims[s]) for s, t in quiver.arrows]
            exponent = sum(r * c for r, c in shapes)
            size = p ** exponent
            if size > cap:
                raise EnumerationCapError(
                    f"catalog.build(dims {_fmt_dims(dims)}): {p}^{exponent} = "
                    f"{size} arrow-matrix tuples exceed cap {cap}"
                )
            gl = math.prod(_gl_order(n, p) for n in dims)
            moves = _compile_moves(quiver, p, dims, _generators(quiver, p, dims))
            labels, orbits = _label_orbits(moves, size, len(entries))
            mass = Fraction(0)
            for start, orbit in orbits:
                if gl % orbit:
                    raise InvariantError(
                        f"catalog.build(dims {_fmt_dims(dims)}): orbit of size "
                        f"{orbit} does not divide |GL_d| = {gl}"
                    )
                aut = gl // orbit
                rep = _representation(quiver, p, dims, shapes, start)
                entries.append(CatalogEntry(len(entries), rep, aut))
                mass += Fraction(gl, aut)
            if mass != size:
                raise InvariantError(
                    f"catalog.build(dims {_fmt_dims(dims)}): mass formula "
                    f"sum |GL_d|/|Aut M| = {mass} != |Rep_d| = {p}^{exponent}"
                )
            labels_of[dims] = labels
        return cls(quiver, p, bound, entries, labels_of)

    def _mark_indecomposables(self) -> None:
        nonzero = [e.index for e in self.entries if not e.rep.is_zero()]
        for i in nonzero:
            self.entries[i].indecomposable = True
        for a, b in itertools.combinations_with_replacement(nonzero, 2):
            dims = tuple(x + y for x, y in zip(self.dims(a), self.dims(b)))
            if all(d <= c for d, c in zip(dims, self.bound)):
                split = self.classify_key(_direct_sum_key(self.rep(a), self.rep(b)))
                self.entries[split].indecomposable = False

    # -- lookups -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def rep(self, index: int) -> Representation:
        return self.entries[index].rep

    def dims(self, index: int) -> tuple:
        return self.entries[index].dims

    @property
    def zero_index(self) -> int:
        return self._by_dims[(0,) * self.quiver.vertex_count][0]

    def classes_with_dims(self, dims: tuple) -> list:
        return list(self._by_dims.get(tuple(dims), []))

    @property
    def indecomposable_indices(self) -> list:
        return [e.index for e in self.entries if e.indecomposable]

    def name(self, index: int) -> str:
        return f"c{index}"

    # -- cached invariants ----------------------------------------------------

    def hom_dim(self, x: int, y: int) -> int:
        key = (x, y)
        if key not in self._hom_dim:
            self._hom_dim[key] = reps.hom_dim(self.rep(x), self.rep(y))
        return self._hom_dim[key]

    def ext1_dim(self, x: int, y: int) -> int:
        key = (x, y)
        if key not in self._ext1:
            self._ext1[key] = reps.ext1_dim(self.rep(x), self.rep(y))
        return self._ext1[key]

    def aut_order(self, index: int) -> int:
        """|Aut| of a class: |GL_d| / |orbit|, recorded by the build."""
        return self.entries[index].aut_order

    # -- classification ---------------------------------------------------------

    def classify(self, rep: Representation) -> int:
        """Catalog index of the class of rep, by lookup of rep.key()."""
        if rep.quiver != self.quiver or rep.p != self.p:
            raise InputError("representation not over this catalog's quiver")
        return self.classify_key(rep.key())

    def classify_key(self, key: tuple) -> int:
        """Catalog index of the class with Representation.key() `key`, a
        (dims, arrow-matrix entry tuples) pair over this catalog's quiver:
        the label of the key's code (its entries read as a big-endian
        base-p number, as the build reads them) in the label array of its
        dims."""
        dims, data = key
        labels = self._labels.get(dims)
        if labels is None:
            if any(d > b for d, b in zip(dims, self.bound)):
                raise OutOfUniverseError(
                    f"dimension vector {dims} exceeds catalog bound {self.bound}"
                )
            raise InvariantError(
                f"catalog.classify: key of dims {dims} missing from the orbit "
                f"table (universe inconsistency)"
            )
        p, arrows, code = self.p, self.quiver.arrows, 0
        if len(data) != len(arrows):
            raise InvariantError(
                f"catalog.classify: key of dims {dims} has {len(data)} arrow "
                f"matrices, the quiver {len(arrows)} arrows"
            )
        for (s, t), entries in zip(arrows, data):
            if len(entries) != dims[s] * dims[t]:
                raise InvariantError(
                    f"catalog.classify: key of dims {dims} has {len(entries)} "
                    f"entries for a {dims[t]}x{dims[s]} arrow matrix"
                )
            for e in entries:
                if not 0 <= e < p:
                    raise InvariantError(
                        f"catalog.classify: key of dims {dims} has entry {e} "
                        f"outside 0..{p - 1}"
                    )
                code = code * p + e
        return labels[code]

    # -- export ----------------------------------------------------------------

    def export_json_dict(self) -> dict:
        return {
            "schema": 1,
            "modulus": self.p,
            "bound": list(self.bound),
            "classes": [
                {
                    "id": self.name(e.index),
                    "dim_vector": list(e.dims),
                    "aut_order": self.aut_order(e.index),
                    "indecomposable": e.indecomposable,
                }
                for e in self.entries
            ],
        }


def catalog_build(quiver: Quiver, p: int, bound: Sequence[int],
                  cap: int = reps.DEFAULT_CAP) -> Catalog:
    """Build the full bounded catalog; see Catalog.build."""
    return Catalog.build(quiver, p, bound, cap=cap)
