"""Invariant checks raise InvariantError naming the layer and the object.

Each test forces one check to fail with a monkeypatch.  The checks must
survive python -O, so test_invariants_hold_under_python_O runs this module
again under -O; the tests therefore rest on pytest.raises, which -O keeps,
and not on bare asserts, which -O strips.  fq.gaussian_binomial's
divisibility check cannot be forced: the product formula is always exact.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hallalg import derived, hall, reps, span, verify
from hallalg.catalog import catalog_build
from hallalg.derived import (
    ChainMap,
    DerivedClass,
    projective_realization,
    stalk_realization,
)
from hallalg.errors import InvariantError
from hallalg.fq import FqMatrix
from hallalg.hall import HallContext
from hallalg.quivers import a_n_quiver
from hallalg.reps import Representation, RepMorphism


def a2_indecomposable():
    return Representation(a_n_quiver(2), 2, (1, 1), (FqMatrix.identity(2, 1),))


@pytest.mark.parametrize("patch, what", [
    ((RepMorphism, "is_zero", lambda self: False), "aug o delta is not zero"),
    ((RepMorphism, "is_injective", lambda self: False), "delta is not injective"),
    ((RepMorphism, "is_surjective", lambda self: False), "aug is not surjective"),
    ((FqMatrix, "kernel_basis", lambda self: FqMatrix.identity(self.p, self.cols)),
     "not exact at p0"),
])
def test_standard_resolution_checks(monkeypatch, patch, what):
    monkeypatch.setattr(*patch)
    with pytest.raises(InvariantError,
                       match=rf"^standard_resolution\(dims \(1, 1\)\): {what}$"):
        reps.standard_resolution.__wrapped__(a2_indecomposable())


def test_ext1_dim_euler_form_check(monkeypatch):
    monkeypatch.setattr(reps, "euler_form", lambda *args: 99)
    m = a2_indecomposable()
    with pytest.raises(InvariantError, match=r"^ext1_dim\(dims \(1, 1\) -> \(1, 1\)\): "
                                             r"dim Hom - dim Ext\^1 = 1 != Euler form 99$"):
        reps.ext1_dim(m, m)


def a1_context(p):
    return HallContext("classical", catalog_build(a_n_quiver(1), p, (1,)))


def test_span_arrow_orbit_divisibility(monkeypatch):
    ctx = a1_context(3)
    monkeypatch.setattr(ctx.catalog, "aut_order", lambda i: 1)
    with pytest.raises(InvariantError,
                       match=r"^build_span_model\(arrows c1 -> c1, Aut x Aut\): orbit of "
                             r"size 2 does not divide the group order 1$"):
        span.build_span_model(ctx)


def test_span_fiber_orbit_divisibility(monkeypatch):
    # the 4 monos c1 -> c1 over F_5 share one image; relabelling the image of
    # all but the least splits the arrow class into image classes of 1 and 3
    real = span.mono_keys

    def relabelled(ctx, a, b):
        monos = real(ctx, a, b)
        if (a, b) != (1, 1):
            return monos
        (image, (first, *rest)), = monos.items()
        return {image: [first], "another image": rest}

    monkeypatch.setattr(span, "mono_keys", relabelled)
    with pytest.raises(InvariantError,
                       match=r"^build_span_model\(maps c1 -> c1, Aut\): orbit of "
                             r"size 3 does not divide the group order 4$"):
        span.build_span_model(a1_context(5))


def zero(gens, r):
    return gens + (RepMorphism.zero(r, r),)


def drop_last(gens, r):
    return gens[:-1]


@pytest.mark.parametrize("change, what", [
    (zero, r"an orbit of Aut leaves the set \[x,z\]_y"),
    pytest.param(drop_last, r"\|Stab\| 1 \* \|orbit\| 1 != \|Aut\| 2",
                 id="drop_last"),
])
def test_orbit_stabilizer_checks(monkeypatch, change, what):
    # Aut(S) = F_3^*, generated by -1, acts freely on the two injections
    # S -> S with cokernel 0
    real = reps.aut_generators
    monkeypatch.setattr(reps, "aut_generators",
                        lambda r, order, cap: change(real(r, order, cap), r))
    with pytest.raises(InvariantError, match=rf"^orbit_stabilizer_check\(c1, c1, c0\): {what}$"):
        verify.orbit_stabilizer_check(a1_context(3), 1, 1, 0)


def a1_derived_context():
    return HallContext("derived", catalog_build(a_n_quiver(1), 3, (1,)), window=(0, 0))


def test_derived_aut_lifts_need_a_bijection(monkeypatch):
    # the lifts behind the composition tables: a zero augmentation sends the
    # 3 classes P(c1) -> P(c1) to one class P(c1) -> C(c1)
    monkeypatch.setattr(derived, "augmentation_map", lambda cat, dc: ChainMap(
        projective_realization(cat, dc), stalk_realization(cat, dc), {}))
    with pytest.raises(InvariantError,
                       match=r"^lifts of c1 -> c1: the 3 classes P -> P reach 1 "
                             r"classes P -> C, not the block's 3: composing with "
                             r"the augmentation is not a bijection$"):
        derived.composition_table(a1_derived_context().catalog, 1, 1, 1, 0, 0)


def test_derived_aut_lifts_count_the_automorphisms(monkeypatch):
    # the zero-cone classes the orbit check acts by, against the closed form
    real = hall.derived_aut_formula
    monkeypatch.setattr(hall, "derived_aut_formula", lambda ctx, x: real(ctx, x) + 1)
    with pytest.raises(InvariantError,
                       match=r"^derived automorphisms of c1: 2 Hom classes x -> x "
                             r"with a zero cone != derived_aut_formula 3$"):
        hall.derived_automorphisms(a1_derived_context(), DerivedClass.from_module(1))


@pytest.mark.skipif(sys.flags.optimize, reason="this is the python -O run")
def test_invariants_hold_under_python_O():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(Path(__file__).resolve())],
        cwd=root, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "11 passed, 1 skipped" in proc.stdout, proc.stdout
