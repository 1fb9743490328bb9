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

from hallalg import hall, reps, span, verify
from hallalg.catalog import catalog_build
from hallalg.derived import DerivedClass
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
    real = span._orbit
    swept = set()

    def padded(start, moves, p):
        orbit = real(start, moves, p)
        if start in swept:   # a comma fiber splits an arrow-class orbit
            orbit = orbit | {((-1,),)}
        swept.update(orbit)
        return orbit

    monkeypatch.setattr(span, "_orbit", padded)
    with pytest.raises(InvariantError,
                       match=r"^build_span_model\(maps c0 -> c0, Aut\): orbit of "
                             r"size 2 does not divide the group order 1$"):
        span.build_span_model(a1_context(2))


@pytest.mark.parametrize("extra, what", [
    (RepMorphism.zero, r"an orbit of Aut leaves the set \[x,z\]_y"),
    (lambda r, _: RepMorphism.identity(r), r"\|Stab\| 2 \* \|orbit\| 2 != \|Aut\| 3"),
])
def test_orbit_stabilizer_checks(monkeypatch, extra, what):
    # Aut(S) = F_3^* acts on the two injections S -> S with cokernel 0
    real = reps.aut_elements
    monkeypatch.setattr(reps, "aut_elements", lambda r: real(r) + (extra(r, r),))
    with pytest.raises(InvariantError, match=rf"^orbit_stabilizer_check\(c1, c1, c0\): {what}$"):
        verify.orbit_stabilizer_check(a1_context(3), 1, 1, 0)


@pytest.mark.parametrize("solution, what", [
    (lambda a, b: None, "does not lift to a chain map P -> P"),
    (lambda a, b: ((0,) * a.cols, None), "lies in another class"),
])
def test_derived_aut_lift_checks(monkeypatch, solution, what):
    monkeypatch.setattr(hall, "solve", solution)
    ctx = HallContext("derived", catalog_build(a_n_quiver(1), 3, (1,)), window=(0, 0))
    with pytest.raises(InvariantError, match=rf"^derived automorphisms of c1: .*{what}$"):
        hall.derived_aut_lifts(ctx, DerivedClass.from_module(1))


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
