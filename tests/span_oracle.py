"""Orbits of morphisms by composing RepMorphisms, kept as a test oracle.

This is the slow path that reps.orbit on Hom-matrix entry tuples replaced
in the span model: every orbit member is a RepMorphism, and each move is a
composition with a generator of Aut(b) on the left or of Aut(a) on the
right.
"""


def morphism_orbit(seed, left_gens, right_gens) -> dict:
    """Orbit of a morphism under postcomposition by left_gens and
    precomposition by right_gens (generators of the acting groups)."""
    seen = {seed.key(): seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for m in frontier:
            for g in right_gens:
                cand = m.compose(g)
                k = cand.key()
                if k not in seen:
                    seen[k] = cand
                    nxt.append(cand)
            for h in left_gens:
                cand = h.compose(m)
                k = cand.key()
                if k not in seen:
                    seen[k] = cand
                    nxt.append(cand)
        frontier = nxt
    return seen


def morphism_orbits(members, left_gens, right_gens) -> list:
    """The orbits meeting members, as (least key, orbit) sorted by least key."""
    seen: set = set()
    orbits = []
    for f in members:
        if f.key() not in seen:
            orbit = morphism_orbit(f, left_gens, right_gens)
            seen.update(orbit)
            orbits.append((min(orbit), orbit))
    return sorted(orbits, key=lambda o: o[0])
