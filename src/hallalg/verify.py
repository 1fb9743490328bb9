"""Exhaustive numerical verification of the algebra structure.

Every check is an exact identity evaluated over a full sweep of the bounded
universe; failures are collected with their witnesses, never tolerated.

The orbit/stabilizer check deserves a note: for each triple (x, z, y) with a
nonzero structure constant it computes the automorphism action on the set of
Hom classes x -> z with cone y and verifies

    sum over orbits of 1/|Stab(f)|  ==  |[x,z]_y| / |Aut(x)|

exactly.  The report also evaluates the same sum with the stabilizer orders
NOT inverted; that reading is expected to fail whenever the action has a
nontrivial stabilizer, and the failures are logged rather than hidden (the
check's pass/fail verdict rests only on the inverted identity).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

from .derived import DerivedClass, hom_class_table
from .errors import InputError, InvariantError, OutOfUniverseError
from .hall import (
    BasisKey,
    HallContext,
    basis_product,
    cone_table,
    count_exact_sequences,
    derived_aut_lifts,
    derived_hall_number,
    derived_support,
    hall_number_classical,
    mono_keys,
    multiply,
)
from . import reps

ALL_CHECKS = ("unit", "assoc", "riedtmann", "stalk", "span", "orbit")


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def orbit_stabilizer_check(ctx: HallContext, x: BasisKey, z: BasisKey,
                           y: BasisKey) -> dict:
    """Exact orbit/stabilizer accounting of Aut(x) acting on [x,z]_y by
    precomposition; see the module docstring for what is verified."""
    if ctx.mode == "classical":
        elements, act, aut_size = _classical_action(ctx, x, z, y)
    else:
        elements, act, aut_size = _derived_action(ctx, x, z, y)

    keys = [k for k, _ in elements]
    by_key = dict(elements)
    seen = set()
    orbits = []
    label = (f"orbit_stabilizer_check({ctx.key_name(x)}, {ctx.key_name(z)}, "
             f"{ctx.key_name(y)})")
    for k in keys:
        if k in seen:
            continue
        orbit_keys = sorted(set(act(by_key[k])))
        if not all(ok in by_key for ok in orbit_keys):
            raise InvariantError(f"{label}: an orbit of Aut leaves the set [x,z]_y")
        seen.update(orbit_keys)
        stab = sum(1 for ok in act(by_key[k]) if ok == k)
        if stab * len(orbit_keys) != aut_size:
            raise InvariantError(
                f"{label}: |Stab| {stab} * |orbit| {len(orbit_keys)} != "
                f"|Aut| {aut_size}"
            )
        orbits.append({"size": len(orbit_keys), "stabilizer": stab})

    inv_sum = sum((Fraction(1, o["stabilizer"]) for o in orbits), Fraction(0))
    plain_sum = sum((Fraction(o["stabilizer"]) for o in orbits), Fraction(0))
    ratio = Fraction(len(keys), aut_size) if aut_size else Fraction(0)
    return {
        "x": ctx.key_name(x),
        "z": ctx.key_name(z),
        "y": ctx.key_name(y),
        "set_size": len(keys),
        "aut_order": aut_size,
        "orbits": orbits,
        "sum_inverse_stabilizers": _fmt(inv_sum),
        "ratio": _fmt(ratio),
        "identity_holds": inv_sum == ratio,
        "uninverted_sum": _fmt(plain_sum),
        "uninverted_matches": plain_sum == ratio,
        "free_action": all(o["stabilizer"] == 1 for o in orbits),
    }


def _classical_action(ctx: HallContext, x: int, z: int, y: int):
    """Aut(x) acting on the keys of the monos x -> z (hall.mono_keys) with
    cokernel y, one reps.act move per automorphism g (f |-> f g).
    composition_moves drops the moves that change no key, the identity's
    among them; each dropped g fixes every f and is counted as such."""
    cat = ctx.catalog
    xr, zr = cat.rep(x), cat.rep(z)
    elements = []
    cokernels = {}    # image key -> class of the cokernel, which it fixes
    for k, image in mono_keys(ctx, x, z):
        if image not in cokernels:
            cokernels[image] = cat.classify_key(reps.quotient_key(zr, image))
        if cokernels[image] == y:
            elements.append((k, k))
    auts = reps.aut_elements(xr)
    moves = reps.composition_moves((), auts, xr.dims, zr.dims)
    fixing = len(auts) - len(moves)

    def act(f):
        return [f] * fixing + [reps.act(f, m, cat.p) for m in moves]

    return elements, act, len(auts)


def _derived_action(ctx: HallContext, x: DerivedClass, z: DerivedClass,
                    y: DerivedClass):
    cat = ctx.catalog
    table = hom_class_table(cat, x, z, cap=ctx.caps.candidates,
                            max_exponent=ctx.caps.hom_exponent)
    elements = []
    for vec, cone in cone_table(ctx, x, z):
        if cone == y:
            elements.append((table.canon(vec), table.lift(vec)))
    lifts = derived_aut_lifts(ctx, x)

    def act(f):
        return [table.canon(table.vector_of(f.compose(g))) for g in lifts]

    return elements, act, len(lifts)


# -- the suite ---------------------------------------------------------------------


def _profiles(ctx: HallContext) -> tuple:
    """Flattened per-degree dimension profile per basis key, plus the bound
    profile, for fast in-bound triple enumeration."""
    cat = ctx.catalog
    n = cat.quiver.vertex_count
    if ctx.mode == "classical":
        degrees = [0]
    else:
        degrees = list(range(ctx.window[0], ctx.window[1] + 1))
    keys = ctx.basis_keys()
    profiles = {}
    for key in keys:
        per = dict(ctx.key_dims(key))
        profiles[key] = tuple(
            d for deg in degrees for d in per.get(deg, (0,) * n)
        )
    bound_profile = tuple(b for _ in degrees for b in cat.bound)
    return keys, profiles, bound_profile


def _fits(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minus(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _profile_groups(keys, profiles) -> dict:
    groups: dict = {}
    for k in keys:
        groups.setdefault(profiles[k], []).append(k)
    return groups


def in_bound_pairs(ctx: HallContext) -> list:
    """Sorted pairs of basis keys whose per-degree dims sum within the
    bound.  Keys with one profile pair with the same keys, so each profile
    group is matched against the groups once."""
    keys, profiles, bound = _profiles(ctx)
    groups = _profile_groups(keys, profiles)
    out = []
    for prof_x, xs in groups.items():
        if not _fits(prof_x, bound):
            continue
        rem = _minus(bound, prof_x)
        ys = [y for prof, ks in groups.items() if _fits(prof, rem) for y in ks]
        out.extend((x, y) for x in xs for y in ys)
    out.sort()
    return out


def in_bound_triples(ctx: HallContext) -> list:
    keys, profiles, bound = _profiles(ctx)
    groups = _profile_groups(keys, profiles)
    out = []
    for prof_x, xs in groups.items():
        if not _fits(prof_x, bound):
            continue
        rem_x = _minus(bound, prof_x)
        for prof_y, ys in groups.items():
            if not _fits(prof_y, rem_x):
                continue
            rem_xy = _minus(rem_x, prof_y)
            zs = [
                z
                for prof_z, zks in groups.items()
                if _fits(prof_z, rem_xy)
                for z in zks
            ]
            out.extend((x, y, z) for x in xs for y in ys for z in zs)
    out.sort()
    return out


def verify_suite(ctx: HallContext, span=None,
                 checks: Optional[Sequence[str]] = None) -> dict:
    """Run the selected identity sweeps and return a JSON-ready report."""
    selected = tuple(checks) if checks else ALL_CHECKS
    for c in selected:
        if c not in ALL_CHECKS:
            raise InputError(f"unknown check {c!r}")

    report: dict = {
        "schema": 1,
        "mode": ctx.mode,
        "modulus": ctx.catalog.p,
        "bound": list(ctx.catalog.bound),
        "window": list(ctx.window) if ctx.window else None,
        "checks": {},
    }

    pairs = in_bound_pairs(ctx)
    for name in selected:
        runner = _CHECK_RUNNERS[name]
        report["checks"][name] = runner(ctx, span, pairs)

    report["failures_total"] = sum(
        len(c.get("failures", ())) for c in report["checks"].values()
    )
    return report


def _check_unit(ctx, span, pairs):
    zero = ctx.zero_key()
    chi0 = ctx.chi(zero)
    failures = []
    cases = 0
    for key in ctx.basis_keys():
        a = ctx.chi(key)
        left = multiply(chi0, a)
        right = multiply(a, chi0)
        cases += 1
        if left != a or right != a:
            failures.append({"basis": ctx.key_name(key)})
    return _verdict(cases, failures)


def _check_assoc(ctx, span, pairs):
    failures = []
    cases = 0
    for x, y, z in in_bound_triples(ctx):
        a, b, c = ctx.chi(x), ctx.chi(y), ctx.chi(z)
        lhs = multiply(multiply(a, b), c)
        rhs = multiply(a, multiply(b, c))
        cases += 1
        if lhs != rhs:
            failures.append(
                {
                    "triple": [ctx.key_name(k) for k in (x, y, z)],
                    "lhs": {ctx.key_name(k): _fmt(v) for k, v in lhs.sorted_items()},
                    "rhs": {ctx.key_name(k): _fmt(v) for k, v in rhs.sorted_items()},
                }
            )
    return _verdict(cases, failures)


def _check_riedtmann(ctx, span, pairs):
    if ctx.mode != "classical":
        return _skipped("classical contexts only")
    cat = ctx.catalog
    failures = []
    cases = 0
    for x, y in pairs:
        dims = tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y)))
        for z in cat.classes_with_dims(dims):
            lhs = count_exact_sequences(ctx, x, y, z)
            rhs = (
                hall_number_classical(ctx, x, y, z)
                * cat.aut_order(x)
                * cat.aut_order(y)
            )
            cases += 1
            if lhs != rhs:
                failures.append(
                    {
                        "triple": [cat.name(k) for k in (x, y, z)],
                        "exact_sequences": lhs,
                        "hall_times_auts": rhs,
                    }
                )
    return _verdict(cases, failures)


def _check_stalk(ctx, span, pairs):
    if ctx.mode != "derived":
        return _skipped("derived contexts only")
    cat = ctx.catalog
    twin = HallContext("classical", cat, caps=ctx.caps)
    failures = []
    cases = 0

    def as_key(i: int) -> DerivedClass:
        return (
            DerivedClass.zero()
            if cat.rep(i).is_zero()
            else DerivedClass.from_module(i)
        )

    for x in range(len(cat)):
        for y in range(len(cat)):
            dims = tuple(a + b for a, b in zip(cat.dims(x), cat.dims(y)))
            if any(d > b for d, b in zip(dims, cat.bound)):
                continue
            for z in range(len(cat)):
                classical = Fraction(hall_number_classical(twin, x, y, z))
                derived = derived_hall_number(ctx, as_key(x), as_key(y), as_key(z))
                cases += 1
                if classical != derived:
                    failures.append(
                        {
                            "triple": [cat.name(k) for k in (x, y, z)],
                            "classical": _fmt(classical),
                            "derived": _fmt(derived),
                        }
                    )
    return _verdict(cases, failures)


def _check_span(ctx, span, pairs):
    if ctx.mode != "classical":
        return _skipped("classical contexts only")
    if span is None:
        return _skipped("no span model supplied")
    from .span import mu_span

    failures = []
    cases = 0
    for x, y in pairs:
        via_span = mu_span(ctx.chi(x), ctx.chi(y), span)
        via_formula = multiply(ctx.chi(x), ctx.chi(y))
        cases += 1
        if via_span != via_formula:
            failures.append(
                {
                    "pair": [ctx.key_name(x), ctx.key_name(y)],
                    "span": {ctx.key_name(k): _fmt(v) for k, v in via_span.sorted_items()},
                    "formula": {
                        ctx.key_name(k): _fmt(v) for k, v in via_formula.sorted_items()
                    },
                }
            )
    return _verdict(cases, failures)


def _orbit_triples(ctx: HallContext, pairs) -> list:
    """Triples (x, z, y) with nonzero structure constant reachable from the
    in-bound pair sweep, deduplicated and sorted."""
    triples = set()
    if ctx.mode == "classical":
        for x, y in pairs:
            for z, g in basis_product(ctx, x, y).items():
                if g:
                    triples.add((x, z, y))
    else:
        for x, y in pairs:
            try:
                support = derived_support(ctx, x, y)
            except OutOfUniverseError:
                continue
            for z in support:
                for _, cone in cone_table(ctx, x, z):
                    if cone is not None:
                        triples.add((x, z, cone))
    return sorted(triples)


def _check_orbit(ctx, span, pairs):
    failures = []
    uninverted_failures = 0
    non_free = 0
    cases = 0
    for x, z, y in _orbit_triples(ctx, pairs):
        rep = orbit_stabilizer_check(ctx, x, z, y)
        cases += 1
        if not rep["identity_holds"]:
            failures.append(rep)
        if not rep["uninverted_matches"]:
            uninverted_failures += 1
        if not rep["free_action"]:
            non_free += 1
    out = _verdict(cases, failures)
    out["uninverted_reading_failures"] = uninverted_failures
    out["non_free_triples"] = non_free
    return out


def _verdict(cases: int, failures: list) -> dict:
    return {
        "status": "pass" if not failures else "fail",
        "cases": cases,
        "failures": failures,
    }


def _skipped(reason: str) -> dict:
    return {"status": "skipped", "cases": 0, "failures": [], "reason": reason}


_CHECK_RUNNERS: Dict[str, Callable] = {
    "unit": _check_unit,
    "assoc": _check_assoc,
    "riedtmann": _check_riedtmann,
    "stalk": _check_stalk,
    "span": _check_span,
    "orbit": _check_orbit,
}
