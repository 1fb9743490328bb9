"""The bounded universe of isomorphism classes of quiver representations.

A Catalog holds one canonical representative per isomorphism class with
dimension vector <= a componentwise bound.  The classes of dimension vector d
are the orbits of GL_d = prod_v GL_{d_v}(F_p) on Rep_d, the arrow-matrix
tuples of that shape, acting by g.(M_a) = (g_t M_a g_s^-1).  The build walks
Rep_d in lexicographic order of its entry tuples and sweeps the whole orbit of
each tuple not yet seen with reps.orbit, the package's one orbit search, which
acts on entry tuples by moves: here elementary transvections and a
primitive-root scaling.  That first tuple is the lexicographically least
member of its orbit and becomes the canonical representative.

The sweep records the class of every key in Rep_d, so classification is a
lookup, and orbit-stabilizer gives |Aut M| = |GL_d| / |orbit| for free.  Orbit
divisibility and the mass formula sum_[M] |GL_d| / |Aut M| = |Rep_d| are
checked at build time.  Hom and Ext^1 dimensions are cached lazily.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
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


def _generators(quiver: Quiver, p: int, dims: tuple) -> list:
    """Generators of GL_d as moves on arrow-matrix tuples.

    At each vertex v the generators are g = I + c E_ij: the transvections
    (i != j, c = 1), which generate SL, and for p > 2 diag(r, 1, ..., 1) with
    r a primitive root.  g acts on the arrows into v by left multiplication
    (row i += c row j) and on the arrows out of v by right multiplication
    with g^-1 = I + c' E_ij (column j += c' column i).  The moves are in
    reps.act's format, one step per end of an arrow at v, so a loop gets two.
    """
    r = _primitive_root(p) if p > 2 else 1
    moves = []
    for v, n in enumerate(dims):
        elems = [(i, j, 1, p - 1) for i in range(n) for j in range(n) if i != j]
        if r != 1 and n:
            elems.append((0, 0, r - 1, inv_mod(r, p) - 1))
        for i, j, c, c_inv in elems:
            move = []
            for a, (s, t) in enumerate(quiver.arrows):
                cols = dims[s]
                if t == v and cols:
                    move.append((a, tuple(
                        (i * cols + k, j * cols + k, c) for k in range(cols))))
                if s == v and dims[t]:
                    move.append((a, tuple(
                        (k * n + j, k * n + i, c_inv) for k in range(dims[t]))))
            if move:
                moves.append(tuple(move))
    return moves


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


@dataclass
class CatalogEntry:
    index: int
    rep: Representation
    aut_order: int
    indecomposable: bool = False

    @property
    def dims(self) -> tuple:
        return self.rep.dims


class Catalog:
    """All iso classes with dim vector <= bound, with cached invariants.

    `class_of_key` maps the key() of every representation in the universe to
    its class index.
    """

    def __init__(self, quiver: Quiver, p: int, bound: Sequence[int],
                 entries: Sequence[CatalogEntry], class_of_key: dict):
        self.quiver = quiver
        self.p = p
        self.bound = tuple(bound)
        self.entries = list(entries)
        self._class_of_key = class_of_key
        self._by_dims: dict = {}
        for e in self.entries:
            self._by_dims.setdefault(e.dims, []).append(e.index)
        self._hom_dim: dict = {}
        self._ext1: dict = {}
        # derived-category caches, filled by hallalg.derived
        self.derived_stalks: dict = {}          # DerivedClass -> Complex
        self.derived_projectives: dict = {}     # DerivedClass -> Complex
        self.derived_hom_tables: dict = {}      # (x, z) -> SummandHomClasses
        self.derived_hom_blocks: dict = {}      # (a, b, k) -> HomotopyClasses
        # summand signature -> {f block entries: class of cone H^n}
        self.derived_cone_homology: dict = {}
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
        class_of_key: dict = {}
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
            moves = _generators(quiver, p, dims)
            mass = Fraction(0)
            for state in itertools.product(
                *(itertools.product(range(p), repeat=r * c) for r, c in shapes)
            ):
                if (dims, state) in class_of_key:
                    continue
                orbit = reps.orbit(state, moves, p)
                if gl % len(orbit):
                    raise InvariantError(
                        f"catalog.build(dims {_fmt_dims(dims)}): orbit of size "
                        f"{len(orbit)} does not divide |GL_d| = {gl}"
                    )
                index = len(entries)
                for member in orbit:
                    class_of_key[(dims, member)] = index
                mats = [FqMatrix(p, r, c, data) for (r, c), data in zip(shapes, state)]
                aut = gl // len(orbit)
                entries.append(
                    CatalogEntry(index, Representation(quiver, p, dims, mats), aut)
                )
                mass += Fraction(gl, aut)
            if mass != size:
                raise InvariantError(
                    f"catalog.build(dims {_fmt_dims(dims)}): mass formula "
                    f"sum |GL_d|/|Aut M| = {mass} != |Rep_d| = {p}^{exponent}"
                )
        return cls(quiver, p, bound, entries, class_of_key)

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
        (dims, arrow-matrix entry tuples) pair over this catalog's quiver."""
        hit = self._class_of_key.get(key)
        if hit is not None:
            return hit
        dims = key[0]
        if any(d > b for d, b in zip(dims, self.bound)):
            raise OutOfUniverseError(
                f"dimension vector {dims} exceeds catalog bound {self.bound}"
            )
        raise InvariantError(
            f"catalog.classify: key of dims {dims} missing from the orbit "
            f"table (universe inconsistency)"
        )

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
