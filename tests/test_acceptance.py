"""Acceptance sweeps: every criterion below is exact (tolerance zero).

Each test prints one PASS line on success; a pytest failure line is the
FAIL marker.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hallalg.catalog import catalog_build
from hallalg.derived import DerivedClass, derived_class_of, ext_dim, mapping_cone
from hallalg.fq import gaussian_binomial
from hallalg.hall import (
    HallContext,
    count_exact_sequences,
    derived_hall_number,
    hall_number_classical,
    multiply,
)
from hallalg.lf import check_base_change, random_base_change_square
from hallalg.quivers import a_n_quiver
from hallalg.span import build_span_model, mu_span
from hallalg.verify import in_bound_pairs, verify_suite

WINDOW = (-1, 1)


@pytest.fixture(scope="module")
def contexts():
    ctxs = {
        ("a1", 2, 3): HallContext("classical", catalog_build(a_n_quiver(1), 2, (3,))),
        ("a1", 3, 3): HallContext("classical", catalog_build(a_n_quiver(1), 3, (3,))),
        ("a1", 2, 4): HallContext("classical", catalog_build(a_n_quiver(1), 2, (4,))),
        ("a1", 3, 4): HallContext("classical", catalog_build(a_n_quiver(1), 3, (4,))),
        ("a2", 2, (2, 2)): HallContext(
            "classical", catalog_build(a_n_quiver(2), 2, (2, 2))
        ),
        ("a2", 2, (1, 1)): HallContext(
            "classical", catalog_build(a_n_quiver(2), 2, (1, 1))
        ),
    }
    ctxs["derived"] = HallContext(
        "derived", ctxs[("a2", 2, (1, 1))].catalog, window=WINDOW
    )
    return ctxs


def _passed(n, name):
    print(f"ACCEPTANCE {n:02d} {name}: PASS")


def test_criterion_01_gaussian_binomial_hall_numbers(contexts):
    for p in (2, 3):
        ctx = contexts[("a1", p, 4)]
        cat = ctx.catalog
        by_dim = {cat.dims(i)[0]: i for i in range(len(cat))}
        for n in range(5):
            for k in range(n + 1):
                got = hall_number_classical(ctx, by_dim[k], by_dim[n - k], by_dim[n])
                want = gaussian_binomial(n, k, p)
                assert got == want, (p, n, k, got, want)
    _passed(1, "gaussian binomial hall numbers")


def test_criterion_02_riedtmann_factor(contexts):
    for key in (("a1", 2, 3), ("a2", 2, (2, 2))):
        ctx = contexts[key]
        cat = ctx.catalog
        checked = 0
        for x in range(len(cat)):
            for y in range(len(cat)):
                dims = tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y)))
                for z in cat.classes_with_dims(dims):
                    lhs = count_exact_sequences(ctx, x, y, z)
                    rhs = (
                        hall_number_classical(ctx, x, y, z)
                        * cat.aut_order(x)
                        * cat.aut_order(y)
                    )
                    assert lhs == rhs, (key, x, y, z, lhs, rhs)
                    checked += 1
        assert checked > 0
    _passed(2, "riedtmann factor")


def test_criterion_03_unit_and_associativity(contexts):
    sweeps = [("a1", 2, 3), ("a1", 3, 3), ("a2", 2, (2, 2)), "derived"]
    for key in sweeps:
        ctx = contexts[key]
        report = verify_suite(ctx, checks=("unit", "assoc"))
        for name, check in report["checks"].items():
            assert check["status"] == "pass", (key, name, check["failures"][:2])
            assert check["cases"] > 0
    _passed(3, "unit and associativity (classical and derived)")


def test_criterion_04_derived_degenerates_to_classical(contexts):
    dctx = contexts["derived"]
    cctx = contexts[("a2", 2, (1, 1))]
    cat = dctx.catalog

    def as_key(i):
        return (
            DerivedClass.zero() if cat.rep(i).is_zero() else DerivedClass.from_module(i)
        )

    checked = 0
    for x in range(len(cat)):
        for y in range(len(cat)):
            dims = tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y)))
            if any(d > b for d, b in zip(dims, cat.bound)):
                continue
            for z in range(len(cat)):
                classical = Fraction(hall_number_classical(cctx, x, y, z))
                derived = derived_hall_number(dctx, as_key(x), as_key(y), as_key(z))
                assert classical == derived, (x, y, z, classical, derived)
                checked += 1
    assert checked >= 50
    _passed(4, "derived formula degenerates to classical on stalks")


def test_criterion_05_span_path_equals_formula_path(contexts):
    for key in (("a1", 2, 3), ("a1", 3, 3), ("a2", 2, (2, 2))):
        ctx = contexts[key]
        span = build_span_model(ctx)
        checked = 0
        for x, y in in_bound_pairs(ctx):
            via_span = mu_span(ctx.chi(x), ctx.chi(y), span)
            via_formula = multiply(ctx.chi(x), ctx.chi(y))
            assert via_span == via_formula, (key, x, y)
            checked += 1
        assert checked > 0
    _passed(5, "span path equals formula path")


def test_criterion_06_base_change_lemma():
    rng = random.Random(0xBA5EC)
    for trial in range(100):
        square = random_base_change_square(rng, max_components=5, max_order=8)
        report = check_base_change(square)
        assert report.equal, (trial, report.failures[:2])
        assert report.max_deviation == 0
    _passed(6, "base-change identity on 100 randomized squares")


def test_criterion_07_orbit_stabilizer_identity(contexts):
    # classical sweep: all identities hold (actions on injections are free)
    creport = verify_suite(contexts[("a2", 2, (2, 2))], checks=("orbit",))
    assert creport["checks"]["orbit"]["status"] == "pass"
    # derived sweep: identities hold, and the uninverted reading of the
    # orbit sum genuinely fails on non-free actions
    dreport = verify_suite(contexts["derived"], checks=("orbit",))
    check = dreport["checks"]["orbit"]
    assert check["status"] == "pass", check["failures"][:2]
    assert check["non_free_triples"] > 0
    assert check["uninverted_reading_failures"] > 0
    _passed(7, "orbit-stabilizer identity (uninverted reading fails as expected)")


def test_criterion_08_finitary_ext_band(contexts):
    dctx = contexts["derived"]
    cat = dctx.catalog
    span = WINDOW[1] - WINDOW[0]
    band = span + 1
    keys = dctx.basis_keys()
    outside = [i for i in range(-band - 2, band + 3) if abs(i) > band]
    for x in keys:
        for z in keys:
            for i in outside:
                assert ext_dim(x, z, i, cat) == 0, (x, z, i)
    _passed(8, "ext dimensions vanish outside the predicted band")


def test_criterion_09_homotopy_invariance_of_cones(contexts):
    from hallalg.derived import hom_class_table

    dctx = contexts["derived"]
    cat = dctx.catalog
    rng = random.Random(0xC0FE)
    keys = [k for k in dctx.basis_keys() if k.entries]
    rng.shuffle(keys)
    checked = 0
    for x in keys:
        for z in keys:
            table = hom_class_table(cat, x, z)
            null_vectors = [v for v in table.null.basis() if any(v)]
            if not null_vectors:
                continue
            for vec in table.class_vectors():
                base = derived_class_of(
                    mapping_cone(table.lift(vec)), cat, strict=False
                )
                for _ in range(3):
                    pert = list(vec)
                    moved = False
                    for b in null_vectors:
                        if rng.randrange(2):
                            moved = True
                            for j, val in enumerate(b):
                                pert[j] = (pert[j] + val) % cat.p
                    if not moved:
                        continue
                    got = derived_class_of(
                        mapping_cone(table.lift(tuple(pert))), cat, strict=False
                    )
                    assert got == base, (x, z)
                    checked += 1
            if checked >= 50:
                break
        if checked >= 50:
            break
    assert checked >= 50
    _passed(9, f"cone classes invariant under {checked} null-homotopy perturbations")


def test_criterion_10_verify_is_deterministic(tmp_path):
    quiver_file = tmp_path / "a2.json"
    quiver_file.write_text(
        json.dumps({"schema": 1, "vertices": 2, "arrows": [{"src": 0, "dst": 1}]})
    )
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "hallalg.cli", "verify",
             "--quiver", str(quiver_file), "-p", "2",
             "--bound", "1,1", "--checks", "all"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    _passed(10, "verify output is byte-identical across hash seeds")
