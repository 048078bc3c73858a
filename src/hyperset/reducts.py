"""Undirected reducts of the membership relation on a finite slice.

All three reducts look only at is_member on an element-closed vertex
set, so they are stable under unrelated growth of the universe.  Double
edges (mutual membership between distinct sets) and loops (x in x) are
accounted separately, matching how the two statistics behave.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError
from .universe import SetId, Universe

MODES = ("loopy", "multi", "double_only")


@dataclass(frozen=True)
class Slice:
    """Element-closed window onto the universe's membership graph."""

    vertices: frozenset[SetId]


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


def _walk(starts: Iterable[SetId], step) -> frozenset[SetId]:
    """Everything reachable from ``starts`` by ``step``; starts go first."""
    queue = deque(starts)
    seen = set(queue)
    while queue:
        for y in step(queue.popleft()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def closure(u: Universe, seeds: Iterable[SetId]) -> Slice:
    """Smallest element-closed vertex set containing the seeds."""
    return Slice(vertices=_walk(seeds, u.elements))  # elements() checks each seed


def _check_closed(u: Universe, s: Slice) -> None:
    for x in s.vertices:
        for e in u.elements(x):
            if e not in s.vertices:
                raise ValidationError(
                    f"slice is not element-closed: {x} has element {e} outside it")


def undirect(u: Universe, s: Slice, mode: str):
    """Undirected reduct of membership on the slice.

    ``loopy``: edge {x,y} iff x in y or y in x, loops kept, no
    multiplicities.  ``multi``: multiplicity 2 iff mutual membership
    between distinct sets, else 1.  ``double_only``: keep exactly the
    mutual-membership pairs and the loops.
    Each membership is read once, closedness checked as it goes; a
    pair met twice is a double edge, since elements never repeat.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    verts = frozenset(s.vertices)
    mult: dict[tuple, int] = {}
    for x in verts:
        for e in u.elements(x):
            if e not in verts:
                raise ValidationError(
                    f"slice is not element-closed: {x} has element {e} outside it")
            key = (e, x) if e < x else (x, e)
            mult[key] = mult.get(key, 0) + 1
    if mode == "multi":
        return MultiGraph(vertices=verts, multiplicity=mult)
    return LoopyGraph(vertices=verts, edges=frozenset(
        key for key, m in mult.items() if mode == "loopy" or m == 2 or key[0] == key[1]))


def has_loop(u: Universe, x: SetId) -> bool:
    return u.is_member(x, x)


def _double_neighbors(u: Universe, x: SetId) -> list[SetId]:
    """Sets y != x with x in y and y in x; each is an element of x."""
    return [y for y in u.elements(x) if y != x and u.is_member(x, y)]


def double_degree(u: Universe, s: Slice, x: SetId) -> int:
    """Number of distinct y != x in the slice with x in y and y in x.

    Loops are excluded here and reported by :func:`has_loop`.  Double
    neighbors of x are always elements of x, so scanning elements(x)
    inside a closed slice sees every one of them.
    """
    if x not in s.vertices:
        raise ValidationError(f"{x} is not a vertex of the slice")
    return sum(1 for y in _double_neighbors(u, x) if y in s.vertices)


def double_component(u: Universe, s: Slice, start: SetId) -> frozenset[SetId]:
    """Connected component of ``start`` in the double_only reduct, found by
    a walk that reads only the elements of the vertices it visits."""
    _check_closed(u, s)
    if start not in s.vertices:
        raise ValidationError(f"{start} is not a vertex of the slice")
    return _walk([start], lambda x: _double_neighbors(u, x))
