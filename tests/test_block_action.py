"""The derived orbit check's block action against its chain-map oracle.

verify acts by f |-> f g on the ConeBlocks coordinates of Hom(x, z), with
the derived automorphisms g of hall.derived_automorphisms and the
composition tables of derived.precompositions.  The oracle
(aut_oracle.chain_map_images) composes chain maps through the lifts of
derived_aut_lifts.  For every Hom class of every (x, z) that the orbit
check reaches, the multiset of its images must be the same, read in the
whole-table solve hom_class_table(x, z).
"""

import itertools
import operator
from collections import Counter

import pytest

from aut_oracle import chain_map_images
from hallalg import derived, hall, verify
from hallalg.catalog import catalog_build
from hallalg.derived import (
    ConeBlocks,
    HomotopyClasses,
    SummandHomClasses,
    hom_class_table,
    precompositions,
)
from hallalg.hall import HallContext, derived_automorphisms
from hallalg.quivers import Quiver, a_n_quiver

KRONECKER = Quiver(2, ((0, 1), (0, 1)))


def orbit_pairs(ctx) -> list:
    """The (x, z) whose Hom space the orbit check splits."""
    return verify._orbit_pairs(ctx, verify.in_bound_pairs(ctx))


def mismatches(ctx, sample=None) -> tuple:
    """(Hom classes whose image multiset differs from the oracle's, Hom
    classes compared, (x, z) pairs) over the pairs the orbit check reaches;
    with `sample` set, that many classes per pair, spread evenly over
    ConeBlocks.coordinates (first and last included)."""
    cat, p = ctx.catalog, ctx.catalog.p
    bad = compared = 0
    pairs = orbit_pairs(ctx)
    for x, z in pairs:
        cones = ConeBlocks(cat, x, z)
        layout = SummandHomClasses(cat, x, z)
        table = hom_class_table(cat, x, z)
        matrices = precompositions(cat, x, z, derived_automorphisms(ctx, x))
        starts = list(itertools.accumulate(cones.dims, initial=0))

        def vector(flat):
            return layout.vector({key: flat[a:b] for key, a, b
                                  in zip(cones.keys, starts, starts[1:])})

        classes = list(cones.coordinates())
        if sample is not None and len(classes) > sample:
            step = (len(classes) - 1) / (sample - 1)
            classes = [classes[round(i * step)] for i in range(sample)]
        for coords in classes:
            flat = tuple(itertools.chain.from_iterable(coords))
            ours = Counter(
                table.canon(vector([sum(map(operator.mul, flat, col)) % p
                                    for col in cols]))
                for cols in matrices)
            bad += ours != chain_map_images(ctx, x, z, vector(flat))
            compared += 1
    return bad, compared, len(pairs)


def derived_context(quiver, p, bound, window):
    return HallContext("derived", catalog_build(quiver, p, bound), window=window)


@pytest.mark.parametrize("quiver, p, window, sample", [
    (a_n_quiver(2), 2, (-1, 1), None),
    (a_n_quiver(2), 3, (-1, 1), 8),
    (KRONECKER, 2, (-1, 1), 8),
], ids=["a2-p2", "a2-p3-sampled", "kronecker-p2-sampled"])
def test_block_action_matches_the_chain_map_oracle(quiver, p, window, sample):
    bad, compared, pairs = mismatches(derived_context(quiver, p, (1, 1), window), sample)
    assert bad == 0 and compared > pairs > 100


def test_dropping_hom_after_ext_fails_the_oracle(monkeypatch):
    # without the Hom o Ext^1 products (g_(a, a-1) an Ext^1 block) the orbit
    # check still passes, but the images differ from the oracle's
    real = derived.composition_table

    def without(cat, a, b, c, k1, k2):
        table = real(cat, a, b, c, k1, k2)
        if k1 == 1:
            return tuple(tuple(tuple(0 for _ in cs) for cs in row) for row in table)
        return table

    monkeypatch.setattr(derived, "composition_table", without)
    bad, compared, _ = mismatches(derived_context(a_n_quiver(2), 2, (1, 1), (-1, 1)))
    assert 0 < bad < compared


def test_orbit_check_reads_no_whole_table(monkeypatch):
    # derived verify builds no (x, z) table and no cone_table rows, and every
    # whole HomotopyClasses it solves runs out of one module's P(A)
    def refuse(*args, **kwargs):
        raise AssertionError("whole-table route called")

    monkeypatch.setattr(derived, "hom_class_table", refuse)
    monkeypatch.setattr(hall, "cone_table", refuse)
    sources = set()
    init = HomotopyClasses.__init__

    def record(self, X, Z, *args, **kwargs):
        sources.add((X.lo, X.hi))
        init(self, X, Z, *args, **kwargs)

    monkeypatch.setattr(HomotopyClasses, "__init__", record)
    ctx = derived_context(a_n_quiver(2), 2, (1, 1), (-1, 1))
    report = verify.verify_suite(ctx)
    statuses = {name: check["status"] for name, check in report["checks"].items()}
    assert statuses == {"unit": "pass", "assoc": "pass", "riedtmann": "skipped",
                        "stalk": "pass", "span": "skipped", "orbit": "pass"}
    assert report["checks"]["orbit"]["non_free_triples"] == 1258
    assert sources == {(-1, 0)}
