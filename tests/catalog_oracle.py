"""The catalog built by pairwise isomorphism tests, kept as a test oracle.

This is the slow path the orbit sweep replaced: walk every arrow-matrix tuple
in lexicographic order, keep each candidate not isomorphic to one already
kept, and call a class decomposable when it is isomorphic to the direct sum
of two nonzero kept classes.  It also holds the Hom fingerprint, a
Krull-Schmidt invariant that the tests compare with is_isomorphic.
"""

import itertools

from hallalg.fq import FqMatrix
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
