"""Quivers (finite directed multigraphs) and their path combinatorics."""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import Frozen, InputError


class Quiver(Frozen):
    """A finite quiver: vertex_count vertices 0..n-1, arrows as (src, dst).

    Parallel arrows and loops are allowed at this level; the derived engine
    additionally requires acyclicity (hereditary path algebra).

    An immutable value (errors.Frozen), compared and hashed by
    (vertex_count, arrows): a quiver keys lru_caches (paths_from,
    reps.projective_rep) and is part of every Representation's hash.
    """

    __slots__ = _fields = ("vertex_count", "arrows")

    def __init__(self, vertex_count: int, arrows: tuple):
        if vertex_count <= 0:
            raise InputError("quiver needs at least one vertex")
        arrows = tuple(tuple(a) for a in arrows)
        for s, t in arrows:
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise InputError(f"arrow ({s},{t}) out of range")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arrows", arrows)

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)

    def is_acyclic(self) -> bool:
        indeg = [0] * self.vertex_count
        for _, t in self.arrows:
            indeg[t] += 1
        stack = [v for v in range(self.vertex_count) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(t)
        return seen == self.vertex_count

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "vertices": self.vertex_count,
            "arrows": [{"src": s, "dst": t} for s, t in self.arrows],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Quiver":
        try:
            n = obj["vertices"]
            arrows = tuple((a["src"], a["dst"]) for a in obj.get("arrows", []))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad quiver JSON: {exc}") from exc
        if any(type(v) is not int for v in (n, *(v for arrow in arrows for v in arrow))):
            raise InputError("quiver 'vertices' and arrow endpoints must be integers")
        return cls(n, arrows)

    @classmethod
    def load(cls, path: str) -> "Quiver":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read quiver file {path}: {exc}") from exc
        return cls.from_json_dict(obj)


def a_n_quiver(n: int) -> Quiver:
    """Linearly oriented A_n: arrows i -> i+1."""
    return Quiver(n, tuple((i, i + 1) for i in range(n - 1)))


@lru_cache(maxsize=None)
def paths_from(q: Quiver, start: int) -> tuple:
    """All paths starting at a vertex of an acyclic quiver.

    A path is a tuple of arrow indices in traversal order; () is the lazy
    path at the start vertex.  Result is sorted by (length, arrow indices)
    so path bases are deterministic.
    """
    if not q.is_acyclic():
        raise InputError("path enumeration requires an acyclic quiver")
    out = [()]
    frontier = [((), start)]
    while frontier:
        nxt = []
        for path, at in frontier:
            for idx, (s, t) in enumerate(q.arrows):
                if s == at:
                    ext = path + (idx,)
                    out.append(ext)
                    nxt.append((ext, t))
        frontier = nxt
    return tuple(sorted(out, key=lambda w: (len(w), w)))


def path_target(q: Quiver, start: int, path: tuple) -> int:
    at = start
    for idx in path:
        s, t = q.arrows[idx]
        if s != at:
            raise InputError("path does not compose")
        at = t
    return at
