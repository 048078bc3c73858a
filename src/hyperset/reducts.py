"""Undirected reducts of the membership relation on a closure.

Each reduct is taken on the closure of the sets it is given, the
smallest element-closed vertex set holding them, so it looks only at
memberships among sets that exist already and is stable under
unrelated growth of the universe.  Double edges (mutual membership
between distinct sets) and loops (x in x) are accounted separately,
matching how the two statistics behave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError
from .universe import SetId, Universe, _walk

MODES = ("loopy", "multi", "double_only")


@dataclass(frozen=True)
class LoopyGraph:
    """Simple undirected graph with loops; edges are (a, b) with a <= b
    and loops are (a, a)."""

    vertices: frozenset
    edges: frozenset[tuple]

    def loops(self) -> frozenset:
        return frozenset(a for a, b in self.edges if a == b)

    def plain_edges(self) -> frozenset[tuple]:
        return frozenset(e for e in self.edges if e[0] != e[1])

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        return adj


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph with multiplicities in {1, 2}; loops carry
    multiplicity 1 and are their own key (a, a)."""

    vertices: frozenset[SetId]
    multiplicity: dict[tuple, int]


def closure(u: Universe, seeds: Iterable[SetId]) -> frozenset[SetId]:
    """Smallest element-closed vertex set containing the seeds."""
    return _walk(seeds, u.elements)  # elements() checks each seed


def undirect(u: Universe, sets: Iterable[SetId], mode: str):
    """Undirected reduct of membership on the closure of ``sets``.

    ``loopy``: edge {x,y} iff x in y or y in x, loops kept, no
    multiplicities.  ``multi``: multiplicity 2 iff mutual membership
    between distinct sets, else 1.  ``double_only``: keep exactly the
    mutual-membership pairs and the loops.
    One walk builds the closure and reads each membership once as it
    goes; a pair met twice is a double edge, since elements never
    repeat.  A closed set is its own closure.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    mult: dict[tuple, int] = {}

    def step(x: SetId):
        elems = u.elements(x)
        for e in elems:
            key = (e, x) if e < x else (x, e)
            mult[key] = mult.get(key, 0) + 1
        return elems

    verts = _walk(sets, step)
    if mode == "multi":
        return MultiGraph(vertices=verts, multiplicity=mult)
    return LoopyGraph(vertices=verts, edges=frozenset(
        key for key, m in mult.items() if mode == "loopy" or m == 2 or key[0] == key[1]))


def has_loop(u: Universe, x: SetId) -> bool:
    return u.is_member(x, x)


def _double_neighbors(u: Universe, x: SetId) -> list[SetId]:
    """Sets y != x with x in y and y in x; each is an element of x."""
    return [y for y in u.elements(x) if y != x and u.is_member(x, y)]


def double_degree(u: Universe, x: SetId) -> int:
    """Number of distinct y != x with x in y and y in x.

    Loops are excluded here and reported by :func:`has_loop`.  Double
    neighbors of x are always elements of x, so they lie in every
    element-closed set that holds x, and scanning elements(x) sees
    every one of them.
    """
    return len(_double_neighbors(u, x))


def double_component(u: Universe, start: SetId) -> frozenset[SetId]:
    """Connected component of ``start`` in the double_only reduct, found by
    a walk that reads only the elements of the vertices it visits."""
    return _walk([start], lambda x: _double_neighbors(u, x))
