"""Subobjects and cokernels classified from subspace keys.

reps.sub_key and reps.quotient_key read the Representation.key() of a
subrepresentation and of its quotient straight off per-vertex flat RREF
data; reps.enumerate_subreps (with _restrict and kernel_cokernel) builds the
same objects and is their oracle.  Both keys read the memoized reductions
of reps._REDUCTIONS, filled only for the (U, v) pairs asked for.  The
mutation tests show that the Riedtmann check of `hall verify` guards the
key route of subrep_histogram, the orbit check the identity count of
verify._classical_action, and the object oracle and a pinned table digest
each memoized class.
"""

import contextlib
import hashlib
import io
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from hom_oracle import homs_by_addition
from test_cone_kernel import universes
from hallalg import hall, reps
from hallalg.catalog import catalog_build
from hallalg.cli import main
from hallalg.errors import EnumerationCapError, InvariantError
from hallalg.fq import RowSpace
from hallalg.hall import HallContext, subrep_histogram
from hallalg.quivers import Quiver, a_n_quiver
from hallalg.verify import verify_suite

KRONECKER = Quiver(2, ((0, 1), (0, 1)))
JORDAN = Quiver(1, ((0, 0),))

UNIVERSES = [
    pytest.param((a_n_quiver(2), 3, (2, 2)), id="A2-p3-22"),
    pytest.param((a_n_quiver(3), 2, (2, 2, 1)), id="A3-p2-221"),
    pytest.param((KRONECKER, 2, (2, 2)), id="kronecker-p2-22"),
    pytest.param((JORDAN, 3, (2,)), id="jordan-p3-2"),
    # zero-dimensional vertices: every class is 0 at vertex 1
    pytest.param((a_n_quiver(3), 2, (2, 0, 1)), id="A3-p2-201"),
    pytest.param((a_n_quiver(3), 3, (1, 0, 2)), id="A3-p3-102"),
]


@pytest.fixture(scope="module", params=UNIVERSES)
def cat(request):
    return catalog_build(*request.param)


def test_histogram_matches_the_subrep_objects(cat):
    ctx = HallContext("classical", cat)
    for z in range(len(cat)):
        oracle = Counter(
            (cat.classify(sr.sub), cat.classify(sr.quot))
            for sr in reps.enumerate_subreps(cat.rep(z))
        )
        assert subrep_histogram(ctx, z) == dict(oracle), cat.name(z)


def test_keys_match_the_subrep_objects(cat):
    for e in cat.entries:
        found = list(reps.subobjects(e.rep))
        subreps = reps.enumerate_subreps(e.rep)
        assert [bases for bases, _ in found] == [sr.bases for sr in subreps]
        for (bases, sub), sr in zip(found, subreps):
            assert sub == sr.sub.key()
            assert reps.quotient_key(e.rep, bases) == sr.quot.key()


def _key_mismatches(cat) -> list:
    """(dims, bases) of every subobject whose sub or quotient key differs
    from the object enumerate_subreps builds."""
    return [
        (e.dims, sr.bases) for e in cat.entries
        for sr in reps.enumerate_subreps(e.rep)
        if (reps.sub_key(e.rep, sr.bases) != sr.sub.key()
            or reps.quotient_key(e.rep, sr.bases) != sr.quot.key())
    ]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(universe=universes())
def test_memoized_keys_match_the_subrep_objects_on_random_quivers(universe):
    cat = catalog_build(*universe)
    assert _key_mismatches(cat) == []
    for e in cat.entries:
        z = e.rep
        tables = [reps._subspace_table(z.p, n) for n in z.dims]
        assert [b for b, _ in reps.subobjects(z)] == [
            b for b in itertools.product(*tables) if _closed(z, b)]


def test_subobjects_are_exactly_the_closed_tuples(cat):
    """A tuple the search skips is one that some arrow map leaves: checked
    against the vertexwise membership test on every subspace tuple."""
    for e in cat.entries:
        z = e.rep
        tables = [reps._subspace_table(z.p, n) for n in z.dims]
        closed = {bases for bases, _ in reps.subobjects(z)}
        for bases in itertools.product(*tables):
            assert (bases in closed) == _closed(z, bases), (e.dims, bases)


def _closed(z, bases) -> bool:
    for idx, (s, t) in enumerate(z.quiver.arrows):
        n_s, n_t = z.dims[s], z.dims[t]
        rows_s = [bases[s][i:i + n_s] for i in range(0, len(bases[s]), n_s or 1)]
        rows_t = [bases[t][i:i + n_t] for i in range(0, len(bases[t]), n_t or 1)]
        space = RowSpace(z.p, n_t)
        for r in rows_t:
            space.add(r)
        if not all(space.contains(z.mats[idx].mul_vec(w)) for w in rows_s):
            return False
    return True


def test_cokernel_of_every_mono_matches_kernel_cokernel(cat):
    for a in cat.entries:
        for b in cat.entries:
            if any(da > db for da, db in zip(a.dims, b.dims)):
                continue
            for f in homs_by_addition(a.rep, b.rep):
                if f.is_injective():
                    assert (reps.quotient_key(b.rep, f.image_key())
                            == reps.kernel_cokernel(f).cokernel.key())


def test_zero_and_whole_subspace_at_each_vertex(cat):
    """U_v is 0 or all of z_v at every vertex: the sub and the quotient are
    z restricted to, or z outside, the chosen vertices, and the tuple is
    closed unless a nonzero arrow leaves the chosen ones."""
    for e in cat.entries:
        z = e.rep
        n = z.quiver.vertex_count
        for mask in range(2 ** n):
            keep = [bool(mask >> v & 1) for v in range(n)]
            bases = tuple(
                _identity_data(z.dims[v]) if keep[v] else () for v in range(n)
            )
            leaves = any(keep[s] and not keep[t] and any(z.mats[idx].data)
                         for idx, (s, t) in enumerate(z.quiver.arrows))
            sub = reps.sub_key(z, bases)
            if leaves:
                assert sub is None
                continue
            assert sub == _part_key(z, keep)
            assert reps.quotient_key(z, bases) == _part_key(
                z, [not k for k in keep])


def _identity_data(n: int) -> tuple:
    return tuple(int(i == j) for i in range(n) for j in range(n))


def _part_key(z, keep) -> tuple:
    """The key of z with every vertex outside keep set to 0."""
    dims = tuple(d if k else 0 for d, k in zip(z.dims, keep))
    return dims, tuple(
        m.data if keep[s] and keep[t] else ()
        for m, (s, t) in zip(z.mats, z.quiver.arrows)
    )


def test_zero_dimensional_ambient_space():
    assert reps._split_rref((), 0) == ((), (), ())
    assert reps._subspace_table(3, 0) == ((),)
    cat = catalog_build(a_n_quiver(3), 2, (2, 0, 1))
    zero = cat.rep(cat.zero_index)
    assert [b for b, _ in reps.subobjects(zero)] == [((), (), ())]
    assert reps.quotient_key(zero, ((), (), ())) == zero.key()


@pytest.fixture(scope="module")
def a2_cat_11():
    return catalog_build(a_n_quiver(2), 2, (1, 1))


def test_cap_is_checked_before_the_search(a2_cat_11):
    z = a2_cat_11.rep(4)
    message = r"^enumerate_subreps\(dims \(1, 1\)\): 4\+ subspace tuples exceed cap 3$"
    with pytest.raises(EnumerationCapError, match=message):
        reps.subobjects(z, cap=3)     # raises before the first tuple
    ctx = HallContext("classical", a2_cat_11, cap=3)
    with pytest.raises(EnumerationCapError, match=message):
        subrep_histogram(ctx, 4)


# -- mutations -----------------------------------------------------------------


def _riedtmann(tmp_path, capsys) -> tuple:
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(
        {"schema": 1, "vertices": 2, "arrows": [{"src": 0, "dst": 1}]}))
    code = main(["verify", "--checks", "riedtmann", "-p", "2", "--bound", "2,2",
                 "--quiver", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_riedtmann_passes_unmutated(tmp_path, capsys):
    code, report = _riedtmann(tmp_path, capsys)
    assert code == 0 and report["failures_total"] == 0


def test_swapped_sub_and_quotient_fail_riedtmann(monkeypatch, tmp_path, capsys):
    real = hall.subrep_histogram
    monkeypatch.setattr(hall, "subrep_histogram", lambda ctx, z: {
        (y, x): n for (x, y), n in real(ctx, z).items()})
    code, report = _riedtmann(tmp_path, capsys)
    assert code == 1
    assert report["checks"]["riedtmann"]["status"] == "fail"
    assert report["failures_total"] > 0


def test_quotient_read_at_the_pivots_fails_riedtmann(monkeypatch, tmp_path, capsys):
    def pivot_quotient(z, bases):
        # quotient_key with the pivot columns of U in place of its free ones
        split = [reps._split_rref(b, n) for b, n in zip(bases, z.dims)]
        return tuple(len(sp[1]) for sp in split), tuple(
            reps._row_major([reps._reduce(z.p, z.dims[t], bases[t], z.mats[idx].col(c))[0]
                             for c in split[s][1]], len(split[t][1]))
            for idx, (s, t) in enumerate(z.quiver.arrows)
        )

    monkeypatch.setattr(reps, "quotient_key", pivot_quotient)
    code, report = _riedtmann(tmp_path, capsys)
    assert code == 1
    assert report["checks"]["riedtmann"]["status"] == "fail"
    assert report["failures_total"] > 0


# The class of (0, 1) modulo the zero subspace of F_3^2, read by the quotient
# of the A2 representation with arrow matrix [[0, 1], [1, 0]] (dims (2, 2)) by
# its zero subobject.  Corrupted to (1, 0), the quotient has rank 1, while
# every closure decision and sub key stays as it was.
_CORRUPT_KEY, _CORRUPT_CLASS = (3, 2, (), (0, 1)), ((), (1, 0))


def _hall_table_digest(tmp_path) -> str:
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(
        {"schema": 1, "vertices": 2, "arrows": [{"src": 0, "dst": 1}]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["hall-table", "-p", "3", "--bound", "3,3", "--quiver", str(path)])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_one_corrupted_memoized_class_fails_the_oracle_and_the_digest(
        monkeypatch, tmp_path):
    references = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                             / "references.json").read_text())
    pinned = references["hall_table_a2p3"]["0,1"]
    cat = catalog_build(a_n_quiver(2), 3, (2, 2))
    assert _key_mismatches(cat) == []
    assert reps._REDUCTIONS[_CORRUPT_KEY] == ((), (0, 1))   # read by the sweep
    assert _hall_table_digest(tmp_path) == pinned

    monkeypatch.setitem(reps._REDUCTIONS, _CORRUPT_KEY, _CORRUPT_CLASS)
    assert _key_mismatches(cat)
    assert _hall_table_digest(tmp_path) != pinned


def test_memo_holds_only_the_reductions_asked_for(monkeypatch):
    """After every histogram of A2 p=5 bound (4, 2), the memo holds just the
    distinct (p, n, U, v) asked of _reduce: vectors are only reduced at the
    arrow's target, F_5^n with n <= 2, so at most 1 + 2*5 + 8*25 = 211
    pairs, against 1,120 * 625 = 700,000 for a table over F_5^4 per
    subspace."""
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 5, (4, 2)))
    monkeypatch.setattr(reps, "_REDUCTIONS", {})
    asked = set()
    real = reps._reduce

    def recording(p, n, data, v):
        asked.add((p, n, data, v))
        return real(p, n, data, v)

    monkeypatch.setattr(reps, "_reduce", recording)
    for z in range(len(ctx.catalog)):
        subrep_histogram(ctx, z)
        assert set(reps._REDUCTIONS) == asked, ctx.catalog.name(z)
    assert 0 < len(asked) <= 1 + 2 * 5 + 8 * 25


def test_orbit_check_counts_the_identity(monkeypatch):
    """The identity is the only automorphism fixing a mono, so each orbit
    must hold all of Aut(x): with the last generator dropped, F_3^* on the
    injections c1 -> c1 stops moving and the orbit-stabilizer count
    fails."""
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 3, (2, 2)))
    real = reps.aut_generators
    monkeypatch.setattr(reps, "aut_generators",
                        lambda x, order: real(x, order)[:-1])
    with pytest.raises(InvariantError, match=r"^orbit_stabilizer_check\(c1, c1, c0\): "
                                             r"\|Stab\| 1 \* \|orbit\| 1 != \|Aut\| 2$"):
        verify_suite(ctx, checks=("orbit",))
