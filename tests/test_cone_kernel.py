"""Cone classes against their oracle, derived_class_of(mapping_cone(...)).

The differential sweeps run every (x, z) Hom table that `hall derived-table`
or the direct count of its structure constants reaches on a universe and
compare its cone histogram and each cone_table row, both read through the
shared cone-homology memo, with the object-building route.  A hypothesis test does the same on random acyclic
quivers.  The remaining tests cover the invariant checks (which must raise
InvariantError, also under python -O) and the cap messages.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from hallalg import hall
from hallalg.catalog import catalog_build
from hallalg.cli import main as cli_main
from hallalg.derived import (
    Complex,
    ConeClassifier,
    DerivedClass,
    _solve_matrix,
    derived_class_of,
    hom_class_table,
    homology,
    mapping_cone,
)
from hallalg.errors import EnumerationCapError, InvariantError
from hallalg.fq import FqMatrix
from hallalg.hall import (
    HallContext,
    cone_histogram,
    cone_table,
    derived_hall_number,
)
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.reps import RepMorphism, enumerate_homs, enumerate_subreps
from hallalg.verify import in_bound_pairs

KRONECKER = Quiver(2, ((0, 1), (0, 1)))


def oracle_rows(cat, x, z, vectors=None):
    table = hom_class_table(cat, x, z)
    if vectors is None:
        vectors = list(table.class_vectors())
    return [
        (vec, derived_class_of(mapping_cone(table.lift(vec)), cat, strict=False))
        for vec in vectors
    ]


def reach_both_routes(ctx):
    """Walk both routes of every product that `hall derived-table` computes
    on ctx, so that ctx._cone_hist holds every Hom table either reads: the
    support histogram over y[-1] -> x, which derived_product reads once
    and does not cache, and the direct count's tables, (x, z) for each z in
    the support and (x, x).  The (z, z) that derived_product reads for
    |Aut z| are among the (x, x): every such z is in bound, and (z, 0) is a
    pair."""
    for x, y in in_bound_pairs(ctx):
        for z in cone_histogram(ctx, y.shift(-1), x):
            derived_hall_number(ctx, x, y, z)
        cone_histogram(ctx, x, x)
    return ctx


def sweep(quiver, p, bound, window, sample=None):
    """Compare every Hom table that the derived product table reaches with
    the oracle.  Its cone histogram, which builds no table and no rows, must
    count the classes of its cone_table rows, and those rows must equal the
    oracle rows: all of them, so that the histogram equals the oracle's, or
    with `sample` set, that many rows spread evenly over the table (first
    and last included)."""
    ctx = reach_both_routes(
        HallContext("derived", catalog_build(quiver, p, bound), window=window))
    reached = list(ctx._cone_hist)
    rows = none = 0
    for x, z in reached:
        got = cone_table(ctx, x, z)
        assert cone_histogram(ctx, x, z) == Counter(dc for _, dc in got), (x, z)
        if sample is not None and len(got) > sample:
            step = (len(got) - 1) / (sample - 1)
            got = [got[round(i * step)] for i in range(sample)]
        assert got == oracle_rows(ctx.catalog, x, z, [v for v, _ in got]), (x, z)
        rows += len(got)
        none += sum(dc is None for _, dc in got)
    return len(reached), rows, none


@pytest.mark.parametrize("quiver, p, bound, window, sample", [
    (a_n_quiver(2), 2, (1, 1), (-1, 1), None),
    (a_n_quiver(2), 3, (1, 1), (-1, 0), None),
    (a_n_quiver(2), 3, (1, 1), (-1, 1), 4),
    (KRONECKER, 2, (1, 1), (-1, 0), None),
    (a_n_quiver(3), 2, (1, 1, 1), (-1, 0), None),
], ids=["a2-p2", "a2-p3", "a2-p3-wide-sampled", "kronecker-p2", "a3-p2"])
def test_kernel_matches_oracle_on_every_reached_table(quiver, p, bound, window,
                                                      sample):
    tables, rows, none = sweep(quiver, p, bound, window, sample)
    assert tables and rows
    # out-of-bound cones are part of what the sweep must cover
    assert none


@st.composite
def universes(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    quiver = Quiver(n, tuple((order[s], order[t]) for s, t in arrows))
    p = draw(st.sampled_from((2, 3)))
    bound = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return quiver, p, bound


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(universe=universes(), data=st.data())
def test_kernel_matches_oracle_on_random_quivers(universe, data):
    quiver, p, bound = universe
    ctx = HallContext("derived", catalog_build(quiver, p, bound), window=(-1, 0))
    keys = ctx.basis_keys()
    for _ in range(4):
        x = data.draw(st.sampled_from(keys))
        z = data.draw(st.sampled_from(keys))
        rows = cone_table(ctx, x, z)
        assert rows == oracle_rows(ctx.catalog, x, z)
        if any(dc is None for _, dc in rows):
            event("out-of-bound cone")


def test_random_quiver_sweep_reaches_out_of_bound_cones():
    # the generator's largest universes do produce None rows
    quiver = Quiver(3, ((0, 1), (0, 1), (2, 1)))
    ctx = HallContext("derived", catalog_build(quiver, 2, (1, 1, 1)), window=(-1, 0))
    keys = ctx.basis_keys()
    seen_none = False
    for x in keys[:12]:
        for z in keys[:12]:
            got = cone_table(ctx, x, z)
            assert got == oracle_rows(ctx.catalog, x, z)
            seen_none = seen_none or any(dc is None for _, dc in got)
    assert seen_none


# -- invariant checks ------------------------------------------------------------


@pytest.fixture
def a2_cat():
    return catalog_build(a_n_quiver(2), 2, (1, 1))


def test_cone_table_count_mismatch_raises(monkeypatch, a2_cat):
    real = hall.ext_dim
    monkeypatch.setattr(hall, "ext_dim", lambda *a, **k: real(*a, **k) + 1)
    ctx = HallContext("derived", a2_cat, window=(-1, 1))
    x = DerivedClass.from_module(2)
    z = DerivedClass.from_module(1).shift(1)
    with pytest.raises(InvariantError, match=r"cone_table\(c2 -> c1\[1\]\)"):
        cone_table(ctx, x, z)


def test_cone_table_count_mismatch_exits_1(monkeypatch, tmp_path, capsys):
    real = hall.ext_dim
    monkeypatch.setattr(hall, "ext_dim", lambda *a, **k: real(*a, **k) + 1)
    quiver_file = tmp_path / "a2.json"
    quiver_file.write_text(
        '{"schema": 1, "vertices": 2, "arrows": [{"src": 0, "dst": 1}]}'
    )
    code = cli_main(["derived-table", "--quiver", str(quiver_file), "-p", "2",
                     "--bound", "1,1", "--window", "0,0"])
    assert code == 1
    assert "enumeration routes disagree" in capsys.readouterr().err


def _classifier(cat, x_entries, z_entries):
    table = hom_class_table(cat, DerivedClass(x_entries), DerivedClass(z_entries))
    return ConeClassifier(table, cat)


def test_kernel_rejects_non_complex(a2_cat):
    # a vector that is no chain map: d o d != 0 in its cone
    kernel = _classifier(a2_cat, ((-1, 1), (0, 1), (1, 2)), ((-1, 1), (0, 1), (1, 1)))
    with pytest.raises(InvariantError, match=r"hom_class_table\(c1\[1\]\+c1\+c2\[-1\] "
                                             r"-> c1\[1\]\+c1\+c1\[-1\]\).*d o d"):
        kernel((0, 1, 0, 1))


def test_kernel_rejects_non_module_map(a2_cat):
    # commutes with the differentials but not with the arrow maps
    kernel = _classifier(a2_cat, ((-1, 1), (0, 1), (1, 4)), ((-1, 1), (0, 1), (1, 1)))
    with pytest.raises(InvariantError, match="not a cycle"):
        kernel((0, 1, 0, 1, 1))


def test_kernel_missing_key_raises(a2_cat):
    kernel = _classifier(a2_cat, ((0, 4),), ((0, 2),))
    a2_cat._labels.clear()
    with pytest.raises(InvariantError, match="missing from the orbit table"):
        kernel((1,))


def test_homology_complement_check_raises(a2_cat):
    m = a2_cat.rep(4)
    ident = RepMorphism.identity(m)
    c = Complex(m.quiver, 2, 0, (m, m, m), (ident, RepMorphism.zero(m, m)))
    c.diffs = (ident, ident)   # d o d = id: no longer a complex
    with pytest.raises(InvariantError, match=r"homology: H\^1 at vertex"):
        homology(c)


def test_solve_matrix_outside_span_raises():
    with pytest.raises(InvariantError, match="left the span"):
        _solve_matrix(FqMatrix.zeros(2, 1, 1), (1,))


# -- cap messages name the layer and the object ----------------------------------------


def test_hom_class_table_cap_message(a2_cat):
    x = DerivedClass.from_module(2)
    z = DerivedClass.from_module(1).shift(1)
    with pytest.raises(EnumerationCapError,
                       match=r"^hom_class_table\(c2 -> c1\[1\]\): 2\*\*1 homotopy "
                             r"classes exceed cap 1$"):
        hom_class_table(a2_cat, x, z, cap=1)
    with pytest.raises(EnumerationCapError, match="exceed hom exponent cap 0$"):
        hom_class_table(a2_cat, x, z, max_exponent=0)


def test_enumerate_homs_cap_message(a2_cat):
    m = a2_cat.rep(4)
    with pytest.raises(EnumerationCapError,
                       match=r"^enumerate_homs\(dims \(1, 1\) -> \(1, 1\)\): "
                             r"\|Hom\| = 2\*\*1 exceeds cap 1$"):
        list(enumerate_homs(m, m, cap=1))


def test_enumerate_subreps_cap_message(a2_cat):
    with pytest.raises(EnumerationCapError,
                       match=r"^enumerate_subreps\(dims \(1, 1\)\): 4\+ subspace "
                             r"tuples exceed cap 3$"):
        enumerate_subreps(a2_cat.rep(4), cap=3)
