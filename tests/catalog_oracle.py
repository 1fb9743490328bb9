"""Two slow catalog builds, kept as test oracles for Catalog.build.

The pairwise build walks every arrow-matrix tuple in lexicographic order,
keeps each candidate not isomorphic to one already kept, and calls a class
decomposable when it is isomorphic to the direct sum of two nonzero kept
classes.  The tuple sweep is the orbit sweep on tuples of entry tuples that
the code sweep replaced: reps.orbit over reps.act moves made of adjacent
transvections and a primitive-root scaling, with a dict from every key to
its class as the seen-set, read out in code order as the label arrays.  The module also holds the Hom fingerprint, a Krull-Schmidt
invariant that the tests compare with is_isomorphic, and the all-transvection
generating set of GL_d in catalog._generators's format.
"""

import itertools
import math
from fractions import Fraction

from hallalg import reps
from hallalg.catalog import (
    Catalog,
    CatalogEntry,
    _elementary,
    _gl_order,
    _primitive_root,
)
from hallalg.fq import FqMatrix, inv_mod
from hallalg.reps import Representation, direct_sum, is_isomorphic


def pairwise_catalog(quiver, p, bound):
    """Representatives in catalog order, and their indecomposable flags."""
    found_all = []
    dim_vectors = sorted(
        itertools.product(*(range(b + 1) for b in bound)),
        key=lambda d: (sum(d), d),
    )
    for dims in dim_vectors:
        shapes = [(dims[t], dims[s]) for s, t in quiver.arrows]
        choices = [
            [FqMatrix(p, r, c, data)
             for data in itertools.product(range(p), repeat=r * c)]
            for r, c in shapes
        ]
        found = []
        for mats in itertools.product(*choices):
            cand = Representation(quiver, p, dims, mats)
            if not any(is_isomorphic(cand, prev) for prev in found):
                found.append(cand)
        found_all.extend(found)

    nonzero = [r for r in found_all if not r.is_zero()]
    flags = []
    for rep in found_all:
        decomposable = rep.is_zero() or any(
            tuple(x + y for x, y in zip(a.dims, b.dims)) == rep.dims
            and is_isomorphic(direct_sum(a, b), rep)
            for i, a in enumerate(nonzero)
            for b in nonzero[i:]
        )
        flags.append(not decomposable)
    return found_all, flags


def fingerprint(cat, index):
    """dim Hom(I, -) over the catalog indecomposables I; by Krull-Schmidt
    it separates the classes of one dimension vector."""
    return tuple(cat.hom_dim(i, index) for i in cat.indecomposable_indices)


def act_generators(quiver, p, dims):
    """Generators of GL_d as reps.act moves on arrow-matrix entry tuples.

    At each vertex v the generators are g = I + c E_ij: the adjacent
    transvections (j = i +- 1, c = 1), and for p > 2 diag(r, 1, ..., 1) with
    r a primitive root.  g acts on the arrows into v by left multiplication
    (row i += c row j) and on the arrows out of v by right multiplication
    with g^-1 = I + c' E_ij (column j += c' column i), one step per end of
    an arrow at v, so a loop gets two.
    """
    r = _primitive_root(p) if p > 2 else 1
    moves = []
    for v, n in enumerate(dims):
        elems = [(i, j, 1, p - 1) for i in range(n) for j in (i - 1, i + 1)
                 if 0 <= j < n]
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


def tuple_sweep_catalog(quiver, p, bound):
    """The catalog by the orbit sweep on entry tuples: per dimension vector,
    walk Rep_d in itertools.product order and sweep the reps.orbit of each
    tuple not yet in the key table; |Aut| = |GL_d| / |orbit|.  The label
    array of dims lists the class of each tuple in that order, which is the
    order of their codes."""
    entries = []
    class_of_key = {}
    labels = {}
    dim_vectors = sorted(
        itertools.product(*(range(b + 1) for b in bound)),
        key=lambda d: (sum(d), d),
    )
    for dims in dim_vectors:
        shapes = [(dims[t], dims[s]) for s, t in quiver.arrows]
        gl = math.prod(_gl_order(n, p) for n in dims)
        moves = act_generators(quiver, p, dims)
        mass = Fraction(0)
        for state in itertools.product(
            *(itertools.product(range(p), repeat=r * c) for r, c in shapes)
        ):
            if (dims, state) in class_of_key:
                continue
            orbit = reps.orbit(state, moves, p)
            assert gl % len(orbit) == 0
            index = len(entries)
            for member in orbit:
                class_of_key[(dims, member)] = index
            mats = [FqMatrix(p, r, c, data) for (r, c), data in zip(shapes, state)]
            entries.append(CatalogEntry(
                index, Representation(quiver, p, dims, mats), gl // len(orbit)))
            mass += len(orbit)
        assert mass == p ** sum(r * c for r, c in shapes)
        labels[dims] = [class_of_key[(dims, state)] for state in itertools.product(
            *(itertools.product(range(p), repeat=r * c) for r, c in shapes))]
    return Catalog(quiver, p, bound, entries, labels)


def all_transvection_generators(quiver, p, dims):
    """catalog._generators with every transvection I + E_ij (i != j) at each
    vertex and the primitive-root scaling for p > 2: a larger generating set
    of GL_d, so the catalog it builds is the reference for the smaller one."""
    r = _primitive_root(p) if p > 2 else 1
    gens = []
    for v, n in enumerate(dims):
        gens.extend((v, _elementary(n, i, j, 1, p), _elementary(n, i, j, p - 1, p))
                    for i in range(n) for j in range(n) if i != j)
        if r != 1 and n:
            gens.append((v, _elementary(n, 0, 0, r - 1, p),
                         _elementary(n, 0, 0, inv_mod(r, p) - 1, p)))
    return gens
