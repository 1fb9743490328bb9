"""The orbit check sweeps (x, z) pairs: each Hom(x, z) is split once.

verify._check_orbit splits every Hom(x, z) it reaches into its sets [x,z]_y
once (verify._action), by cokernel class in the classical mode and by cone
class in the derived mode, and checks every y of that pair from the one
split.  So each Hom class is classified once per orbit check, the monos
x -> z are read once per pair, and a passing triple names each of x, z, y
once.  Its report must equal the one read triple by triple, with each
triple's split built by orbit_stabilizer_check itself, over the triples
listed independently from the products: (x, z, y) with g(x, y; z) != 0 in
the classical mode, and every in-bound cone y of Hom(x, z) for z in the
support of a product chi_x * chi_y in the derived mode.
"""

from collections import Counter

import pytest

from hallalg import verify
from hallalg.catalog import catalog_build
from hallalg.derived import ConeBlocks, ext_dim
from hallalg.hall import HallContext, basis_product, cone_histogram
from hallalg.quivers import a_n_quiver


def classical_context():
    return HallContext("classical", catalog_build(a_n_quiver(3), 2, (2, 2, 1)))


def derived_context():
    return HallContext("derived", catalog_build(a_n_quiver(2), 2, (1, 1)),
                       window=(-1, 1))


def cached_products(ctx) -> list:
    """The in-bound pairs, with every product they reach computed and cached
    on ctx, as the assoc check leaves them."""
    pairs = verify.in_bound_pairs(ctx)
    for x, y in pairs:
        basis_product(ctx, x, y)
    return pairs


def test_each_derived_hom_class_is_classified_once(monkeypatch):
    ctx = derived_context()
    pairs = cached_products(ctx)
    calls = []
    real = ConeBlocks.cone_class
    monkeypatch.setattr(ConeBlocks, "cone_class",
                        lambda self, coords: calls.append(1) or real(self, coords))
    report = verify._check_orbit(ctx, None, pairs)
    assert report["status"] == "pass"
    cat = ctx.catalog
    orbit_pairs = {(x, z) for x, y in pairs for z in basis_product(ctx, x, y)}
    # one classification per class of each Hom(x, z), plus End(x) for the
    # derived automorphisms of each x
    xs = {x for x, _ in orbit_pairs}
    expected = (sum(cat.p ** ext_dim(x, z, 0, cat) for x, z in orbit_pairs)
                + sum(cat.p ** ext_dim(x, x, 0, cat) for x in xs))
    assert len(orbit_pairs) == 2301
    assert len(calls) == expected <= 18774


@pytest.mark.parametrize("context", [classical_context, derived_context],
                         ids=["classical", "derived"])
def test_a_passing_triple_names_x_z_y_once(monkeypatch, context):
    ctx = context()
    pairs = cached_products(ctx)
    calls = []
    real = HallContext.key_name
    monkeypatch.setattr(HallContext, "key_name",
                        lambda self, key: calls.append(key) or real(self, key))
    report = verify._check_orbit(ctx, None, pairs)
    assert report["status"] == "pass" and report["cases"] > 100
    assert len(calls) <= 3 * report["cases"]


def test_the_monos_are_read_once_per_orbit_pair(monkeypatch):
    ctx = classical_context()
    pairs = cached_products(ctx)
    reads = Counter()
    real = verify.mono_keys
    monkeypatch.setattr(verify, "mono_keys",
                        lambda ctx, a, b: reads.update([(a, b)]) or real(ctx, a, b))
    report = verify._check_orbit(ctx, None, pairs)
    assert report["status"] == "pass"
    # some pair holds several cokernel classes, so a per-triple read shows
    assert report["cases"] > len(reads)
    assert set(reads.values()) == {1}
    assert set(reads) == {(x, z) for x, y in pairs for z in basis_product(ctx, x, y)}


def listed_triples(ctx, pairs) -> list:
    """The orbit check's triples, read off the products and, in the derived
    mode, the cone histograms."""
    triples = set()
    for x, y in pairs:
        for z, g in basis_product(ctx, x, y).items():
            if ctx.mode == "classical":
                triples.add((x, z, y))
            else:
                triples.update((x, z, cone) for cone in cone_histogram(ctx, x, z)
                               if cone is not None)
    return sorted(triples)


@pytest.mark.parametrize("context", [classical_context, derived_context],
                         ids=["classical", "derived"])
def test_the_sweep_reports_what_the_triples_report(monkeypatch, context):
    ctx = context()
    pairs = verify.in_bound_pairs(ctx)
    swept = []
    real = verify.orbit_stabilizer_check
    monkeypatch.setattr(verify, "orbit_stabilizer_check",
                        lambda *args: swept.append(real(*args)) or swept[-1])
    out = verify._check_orbit(ctx, None, pairs)
    monkeypatch.undo()
    reports = [verify.orbit_stabilizer_check(ctx, x, z, y)
               for x, z, y in listed_triples(ctx, pairs)]
    assert swept == reports
    assert out["cases"] == len(reports) > 100
    assert out["failures"] == [r for r in reports if not r["identity_holds"]]
    assert out["non_free_triples"] == sum(not r["free_action"] for r in reports)
    assert out["uninverted_reading_failures"] == sum(
        not r["uninverted_matches"] for r in reports)
    if ctx.mode == "derived":
        assert out["non_free_triples"] == 1258
