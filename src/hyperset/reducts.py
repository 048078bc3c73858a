"""Undirected reducts of the membership relation on a closure.

Each reduct is taken on the closure of the sets it is given, the
smallest element-closed vertex set holding them, so it looks only at
memberships among sets that exist already and is stable under
unrelated growth of the universe.  Every reduct is one
:class:`MultiGraph` whose ``multiplicity`` holds what it prints: 2 on
a double edge (mutual membership between distinct sets) where the
reduct keeps double edges, 1 on every other edge and on each loop
(x in x).  One walk of the store gives the closure and the element
tuple of each of its sets but the numerals, whose memberships follow
from their chain and are never read: a reduct's multiplicities are a
read-only view over the pairs it read and that chain.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass
from math import comb

from .errors import ValidationError
from .universe import SetId, Universe, _walk, _walk_to_numerals

MODES = ("loopy", "multi", "double_only")


class Multiplicities(Mapping):
    """Read-only edge -> multiplicity mapping: ``pairs``, then the
    unstored (chain[i], chain[j]) for i < j, each of multiplicity 1."""

    def __init__(self, pairs, chain: tuple = ()):
        self.pairs, self.chain, self.on = pairs, chain, frozenset(chain)

    def __len__(self) -> int:
        return len(self.pairs) + comb(len(self.chain), 2)

    def __contains__(self, key) -> bool:
        return key in self.pairs or (type(key) is tuple and len(key) == 2
                                     and self.on.issuperset(key) and key[0] < key[1])

    def __iter__(self):
        return itertools.chain(self.pairs, itertools.combinations(self.chain, 2))

    def __getitem__(self, key) -> int:
        return 1 if key not in self.pairs and key in self else self.pairs[key]

    def __hash__(self) -> int:  # equal mappings hash equal, chain or not
        return hash(frozenset(self.items()))


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph with loops: ``multiplicity``, a read-only
    ``Mapping``, takes each edge (a, b), a < b, to the multiplicity it
    prints, 1 or 2, and each loop, keyed (a, a), to 1."""

    vertices: frozenset[SetId]
    multiplicity: Mapping[tuple, int]

    def __post_init__(self):
        if not isinstance(self.multiplicity, Multiplicities):  # a plain dict has no chain
            object.__setattr__(self, "multiplicity", Multiplicities(self.multiplicity))

    @property
    def edges(self) -> Set[tuple]:
        """The edges and loops, a read-only set view."""
        return self.multiplicity.keys()

    def loops(self) -> frozenset:
        return frozenset(a for a, b in self.multiplicity.pairs if a == b)


def closure(u: Universe, seeds: Iterable[SetId]) -> frozenset[SetId]:
    """Smallest element-closed vertex set containing the seeds; no numeral is read."""
    kids, chain = _walk_to_numerals(u, seeds)
    return frozenset(kids).union(chain)


def undirect(u: Universe, sets: Iterable[SetId], mode: str) -> MultiGraph:
    """Undirected reduct of membership on the closure of ``sets``.

    ``loopy``: edge {x,y} iff x in y or y in x, loops kept, every
    multiplicity 1.  ``multi``: multiplicity 2 iff mutual membership
    between distinct sets, else 1.  ``double_only``: exactly the
    mutual-membership pairs, of multiplicity 2, and the loops.
    One walk gives the closure and the element tuple of each set in it
    that is not a numeral; one loop over those tuples counts each
    membership once, and a pair met twice is a double edge, since
    elements never repeat.  The memberships of numerals are the
    chain's.  A closed set is its own closure.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    kids, chain = _walk_to_numerals(u, sets)
    mult: dict[tuple, int] = {}
    for x, elems in kids.items():
        for e in elems:
            key = (e, x) if e < x else (x, e)
            mult[key] = mult.get(key, 0) + 1
    verts = frozenset(kids).union(chain)
    if mode == "loopy":
        mult = dict.fromkeys(mult, 1)
    elif mode == "double_only":  # the chain has no loop or double edge
        mult, chain = {key: m for key, m in mult.items() if m == 2 or key[0] == key[1]}, ()
    return MultiGraph(vertices=verts, multiplicity=Multiplicities(mult, chain))


def adjacent(u: Universe, a: SetId, b: SetId) -> bool:
    """a in b or b in a: an edge of the loopy reduct."""
    return u.is_member(a, b) or u.is_member(b, a)


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
