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

The check sweeps the pairs (x, z) with z in the support of some product
chi_x * chi_y.  Each Hom(x, z) is split into its sets [x,z]_y once, and
every y of the split is checked from it, in the order of the sorted
triples.  In the classical mode the split is by the cokernel class of each
image of the monos x -> z (hall.mono_keys groups them by image), and
f g = f forces g = 1 for an injective f, so Aut(x) acts freely: each orbit
is swept by reps.orbit over the generators the span model reads, and must
hold exactly Catalog.aut_order(x) keys.  In the derived mode the split is
by the cone class of each Hom class in ConeBlocks coordinates, and every
derived automorphism (hall.derived_automorphisms) acts on those
coordinates (derived.precompositions); its stabilizers can be nontrivial,
so each is counted element by element.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Iterator, Optional, Sequence

from .derived import ConeBlocks, DerivedClass, precompositions
from .errors import EnumerationCapError, InputError, InvariantError
from .hall import (
    BasisKey,
    HallContext,
    basis_product,
    check_walk_caps,
    count_exact_sequences,
    derived_automorphisms,
    derived_hall_number,
    hall_number_classical,
    mono_keys,
    multiply,
)
from . import reps

ALL_CHECKS = ("unit", "assoc", "riedtmann", "stalk", "span", "orbit")
_PAIR_READERS = ("riedtmann", "span", "orbit")


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def orbit_stabilizer_check(ctx: HallContext, x: BasisKey, z: BasisKey,
                           y: BasisKey, action: Optional[tuple] = None) -> dict:
    """Exact orbit/stabilizer accounting of Aut(x) acting on [x,z]_y by
    precomposition; see the module docstring for what is verified.  action
    is _action(ctx, x, z), which the orbit check builds once per (x, z) for
    all of its y; it is built here when not given."""
    classes, act, aut_size = _action(ctx, x, z) if action is None else action
    keys = classes.get(y, [])
    names = [ctx.key_name(k) for k in (x, z, y)]

    def fail(what: str) -> InvariantError:
        return InvariantError(f"orbit_stabilizer_check({', '.join(names)}): {what}")

    members = set(keys)
    seen = set()
    orbits = []
    for k in keys:
        if k in seen:
            continue
        orbit, stab = act(k)
        if not orbit <= members:
            raise fail("an orbit of Aut leaves the set [x,z]_y")
        seen |= orbit
        if stab * len(orbit) != aut_size:
            raise fail(f"|Stab| {stab} * |orbit| {len(orbit)} != |Aut| {aut_size}")
        orbits.append({"size": len(orbit), "stabilizer": stab})

    inv_sum = sum((Fraction(1, o["stabilizer"]) for o in orbits), Fraction(0))
    plain_sum = sum((Fraction(o["stabilizer"]) for o in orbits), Fraction(0))
    ratio = Fraction(len(keys), aut_size) if aut_size else Fraction(0)
    return {
        "x": names[0],
        "z": names[1],
        "y": names[2],
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


def _action(ctx: HallContext, x: BasisKey, z: BasisKey) -> tuple:
    """Aut(x) acting by f |-> f g on Hom(x, z), split once into its sets
    [x,z]_y: ({y: keys of [x,z]_y}, act, |Aut x|), where act(key) = (its
    orbit, its stabilizer order)."""
    if ctx.mode == "classical":
        return _classical_action(ctx, x, z)
    return _derived_action(ctx, x, z)


def _classical_action(ctx: HallContext, x: int, z: int) -> tuple:
    """_action on the monos x -> z (hall.mono_keys), split by the class of
    their cokernel: each image's cokernel is classified once, and its
    monos join that class's keys.  The orbit is swept by
    reps.orbit over the moves of reps.aut_generators, the generating set
    the span model reads.  An injective f has f g = f only for g = 1, so
    the stabilizer is 1 and orbit_stabilizer_check holds every orbit to
    exactly Catalog.aut_order(x) keys."""
    cat = ctx.catalog
    xr, zr = cat.rep(x), cat.rep(z)
    order = cat.aut_order(x)
    classes: dict = {}
    for image, keys in mono_keys(ctx, x, z).items():
        y = cat.classify_key(reps.quotient_key(zr, image))
        classes.setdefault(y, []).extend(keys)
    moves = reps.composition_moves((), reps.aut_generators(xr, order, ctx.cap),
                                   xr.dims, zr.dims)
    return classes, lambda k: (reps.orbit(k, moves, cat.p), 1), order


def _derived_action(ctx: HallContext, x: DerivedClass, z: DerivedClass) -> tuple:
    """_action on the flattened ConeBlocks coordinates of Hom(x, z), split
    by cone class (None for a cone that leaves the catalog bound); their
    count is checked against p^ext_dim when ConeBlocks is built.  Every
    derived automorphism is applied (derived.precompositions), so the
    stabilizer counts those that fix the class."""
    cat = ctx.catalog
    cones = ConeBlocks(cat, x, z, cap=ctx.cap)
    classes: dict = {}
    for coords in cones.coordinates():
        classes.setdefault(cones.cone_class(coords), []).append(
            tuple(itertools.chain.from_iterable(coords)))
    matrices = precompositions(cat, x, z, derived_automorphisms(ctx, x))

    def act(k):
        images = [tuple(sum(map(operator.mul, k, col)) % cat.p for col in cols)
                  for cols in matrices]
        return set(images), images.count(k)

    return classes, act, len(matrices)


# -- the suite ---------------------------------------------------------------------


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def _in_bound(ctx: HallContext, arity: int) -> Iterator[tuple]:
    """The arity-tuples of basis keys whose per-degree dims sum within the
    bound, ascending and one at a time.  A key picks one catalog class per
    degree (the zero class for none) and the bound holds degree by degree,
    so what extends a prefix in one degree depends only on the dims its
    picks sum to there: fits = {dims sum: classes that fit on it}, filled
    with the count of one degree's tuples, which ^ (number of degrees) is
    checked against ctx.cap before any key is built.  Each prefix is then
    extended by the ranks of the keys that fit on its sums, ascending."""
    cat = ctx.catalog
    zero = (0,) * len(cat.bound)
    groups = [(dims, list(g)) for dims, g in itertools.groupby(range(len(cat)), cat.dims)]
    fits: dict = {}
    sums = Counter({zero: 1})
    for _ in range(arity):
        sums, last = Counter(), sums
        for at, n in last.items():
            fits[at] = []
            for dims, classes in groups:
                total = _add(at, dims)
                if all(map(operator.le, total, cat.bound)):
                    fits[at] += classes
                    sums[total] += n * len(classes)
    degrees = [0] if ctx.mode == "classical" else range(ctx.window[0], ctx.window[1] + 1)
    count = sum(sums.values()) ** len(degrees)
    if count > ctx.cap:
        what = {2: "pairs", 3: "triples"}[arity]
        raise EnumerationCapError(
            f"in_bound_{what}: {count} {what} of basis keys exceed cap {ctx.cap}")

    keys = ctx.basis_keys()
    rank_of = {(k,) if ctx.mode == "classical" else
               tuple(dict(k.entries).get(d, cat.zero_index) for d in degrees): r
               for r, k in enumerate(keys)}
    dims = [tuple(map(cat.dims, p)) for p in rank_of]
    fitting: dict = {}

    def grow(prefix: tuple, at: tuple, depth: int):
        if at not in fitting:
            fitting[at] = sorted(map(rank_of.__getitem__,
                                     itertools.product(*map(fits.__getitem__, at))))
        for r in fitting[at]:
            t = prefix + (keys[r],)
            if depth == 1:
                yield t
            else:
                yield from grow(t, tuple(map(_add, at, dims[r])), depth - 1)

    return grow((), (zero,) * len(degrees), arity)


def in_bound_pairs(ctx: HallContext) -> list:
    """The in-bound pairs of basis keys as an ascending list (_in_bound)."""
    return list(_in_bound(ctx, 2))


def in_bound_triples(ctx: HallContext) -> Iterator[tuple]:
    """The in-bound triples of basis keys as an ascending iterator
    (_in_bound): capped when called, each triple built when it is read."""
    return _in_bound(ctx, 3)


def select_checks(checks: Optional[Sequence[str]]) -> tuple:
    """The named checks, each once in the order of its first name, or every
    check when none is named; an unknown name raises InputError."""
    selected = tuple(dict.fromkeys(checks)) if checks else ALL_CHECKS
    for c in selected:
        if c not in ALL_CHECKS:
            raise InputError(f"unknown check {c!r}")
    return selected


def verify_suite(ctx: HallContext, span=None,
                 checks: Optional[Sequence[str]] = None) -> dict:
    """Run the selected identity sweeps (select_checks) and return a
    JSON-ready report.  The in-bound pairs are listed (and capped) before
    any check runs, and only when a selected check reads them."""
    selected = select_checks(checks)

    report: dict = {
        "schema": 1,
        "mode": ctx.mode,
        "modulus": ctx.catalog.p,
        "bound": list(ctx.catalog.bound),
        "window": list(ctx.window) if ctx.window else None,
        "checks": {},
    }

    pairs = in_bound_pairs(ctx) if set(selected) & set(_PAIR_READERS) else None
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
    twin = HallContext("classical", cat, cap=ctx.cap)
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


def _orbit_pairs(ctx: HallContext, pairs) -> list:
    """The sorted (x, z) with z in the support of chi_x * chi_y for some
    (x, y) of pairs: every y with g(x, y; z) != 0 is a class of _action(x,
    z).  A classical product stores only its nonzero constants, and every
    cokernel of a mono x -> z fits the bound with x; a derived product's
    keys are exactly its support, which raises OutOfUniverseError when it
    leaves the universe."""
    return sorted({(x, z) for x, y in pairs for z in basis_product(ctx, x, y)})


def _check_orbit(ctx, span, pairs):
    failures = []
    uninverted_failures = 0
    non_free = 0
    cases = 0
    orbit_pairs = _orbit_pairs(ctx, pairs)
    if ctx.mode == "classical":
        # _classical_action walks Hom(x, z), then End(x), of each pair
        check_walk_caps(ctx, [s for x, z in orbit_pairs for s in ((x, z), (x, x))])
    for x, z in orbit_pairs:
        action = _action(ctx, x, z)
        for y in sorted(y for y in action[0] if y is not None):
            rep = orbit_stabilizer_check(ctx, x, z, y, action)
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
