"""Subobjects and cokernels classified from subspace keys.

reps.sub_key and reps.quotient_key read the Representation.key() of a
subrepresentation and of its quotient straight off per-vertex flat RREF
data; reps.enumerate_subreps (with _restrict and kernel_cokernel) builds the
same objects and is their oracle.  The mutation tests show that the
Riedtmann check of `hall verify` guards the key route of subrep_histogram,
and the orbit check the identity count of verify._classical_action.
"""

import itertools
import json
from collections import Counter

import pytest

from hallalg import hall, reps
from hallalg.catalog import catalog_build
from hallalg.cli import main
from hallalg.errors import EnumerationCapError, InvariantError
from hallalg.fq import RowSpace
from hallalg.hall import EnumerationCaps, HallContext, subrep_histogram
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
            for k in reps.hom_keys(a.rep, b.rep):
                image = reps.mono_image_key(a.rep, b.rep, k)
                if image is None:
                    continue
                f = reps.morphism_from_key(a.rep, b.rep, k)
                assert (reps.quotient_key(b.rep, image)
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
    ctx = HallContext("classical", a2_cat_11, caps=EnumerationCaps(candidates=3))
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
            reps._row_major([reps._reduce(z.mats[idx].col(c), split[t], z.p)[0]
                             for c in split[s][1]], len(split[t][1]))
            for idx, (s, t) in enumerate(z.quiver.arrows)
        )

    monkeypatch.setattr(reps, "quotient_key", pivot_quotient)
    code, report = _riedtmann(tmp_path, capsys)
    assert code == 1
    assert report["checks"]["riedtmann"]["status"] == "fail"
    assert report["failures_total"] > 0


def test_orbit_check_counts_the_identity(monkeypatch):
    """One nontrivial move in place of the dropped identity move: |Stab|
    misses the identity and the orbit-stabilizer count fails."""
    ctx = HallContext("classical", catalog_build(a_n_quiver(2), 2, (2, 2)))
    real = reps.composition_moves

    def doubled(left, right, src_dims, dst_dims):
        moves = real(left, right, src_dims, dst_dims)
        return moves + moves[:1]

    monkeypatch.setattr(reps, "composition_moves", doubled)
    with pytest.raises(InvariantError, match=r"\|Stab\|"):
        verify_suite(ctx, checks=("orbit",))
