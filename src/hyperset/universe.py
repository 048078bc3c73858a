"""Bisimulation-canonical store of hereditarily finite hypersets.

A hyperset is pictured by an accessible pointed graph: nodes stand for
sets, edges point from a set to its elements, and cycles are allowed.
A :class:`Universe` keeps exactly one node per bisimulation class of
every picture it has absorbed, so handle equality coincides with
extensional set equality.  The store is append-only: the element list
of an existing handle never changes.

Insertion is merge-and-collapse.  The strongly connected pieces of a
new picture are resolved against the store bottom-up.  An acyclic node,
whose children are all resolved by then, goes through an interning
table keyed on element lists.  A cyclic piece is refined once, jointly
with the non-well-founded region of the store that could match it, by
the counting kernel :func:`refine_ranks` that also orders serialization;
that one refinement also collapses the piece internally.  Structural
colors exist only to find that region: a piece looks up stored sets by color,
so while the store holds no non-well-founded set a piece is neither
colored nor looked up, and the sets minted for it are colored at the
first later lookup.  The net effect is the coarsest stable partition of
the combined store-plus-picture graph, without touching the parts of
the store that cannot possibly be involved.

Concurrency contract: all mutation goes through a single writer; query
methods are read-only and safe to call from many threads once
construction is quiescent.  Handles are plain ints and freely copyable.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .errors import MalformedGraph, UniverseFull, UnknownHandle, ValidationError

SetId = int

# Rounds of iterated neighborhood hashing used to index non-well-founded
# store nodes.  Only lookup performance depends on this; matching is
# always confirmed by exact refinement.
COLOR_ROUNDS = 10
_UNCOLORED = array("q", [0]) * (COLOR_ROUNDS + 1)


def _walk(starts: Iterable, step: Callable[..., Iterable]) -> frozenset:
    """Everything reachable from ``starts`` by ``step``; starts go first.

    The one reachability walk of the package: closures, region
    closures and connectivity checks all take it.  ``step`` is called
    once on each vertex, a repeated start included.
    """
    queue = deque(dict.fromkeys(starts))
    seen = set(queue)
    while queue:
        for y in step(queue.popleft()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


@dataclass
class Apg:
    """Accessible pointed graph picturing a single hyperset.

    ``children`` maps every node to the nodes it points at; ``store_refs``
    optionally lets a node also contain already-canonical sets of the
    target universe (used for atom injection).  Every node must be
    reachable from ``root``.
    """

    children: dict[int, frozenset[int]]
    root: int
    store_refs: dict[int, frozenset[SetId]] = field(default_factory=dict)

    def __post_init__(self):
        self.children = {n: frozenset(cs) for n, cs in self.children.items()}
        self.store_refs = {n: frozenset(rs) for n, rs in self.store_refs.items()}

    def validate(self) -> list[str]:
        problems = _shape_problems(self.children, self.store_refs)
        if self.children and self.root not in self.children:
            problems.insert(0, f"root {self.root} is not a node")
        if problems:
            return problems
        seen = _walk([self.root], self.children.__getitem__)
        for n in sorted(set(self.children) - seen):
            problems.append(f"node {n} is unreachable from the root")
        return problems


def _shape_problems(children: Mapping, store_refs: Mapping) -> list[str]:
    """Ways in which ``children``/``store_refs`` fail to be a graph at all:
    no nodes, or an edge or a store ref on a node that is not there."""
    if not children:
        return ["graph has no nodes"]
    problems = [f"node {n} points at unknown node {c}"
                for n in sorted(children) for c in sorted(children[n])
                if c not in children]
    problems += [f"store_refs mentions unknown node {n}"
                 for n in sorted(store_refs) if n not in children]
    return problems


def refine_ranks(nodes, kids, key, chain=()) -> dict:
    """Ranked coarsest stable refinement of the blocks of equal ``key``.

    ``kids[n]`` lists the children of node ``n``, every one of them a
    node, and ``key[n]`` is any sortable value.  The order is that of
    iterated exact partition refinement: start with the blocks of equal
    key in key order, and in each round order the members of every block
    by the sorted tuple of the blocks their children lie in, until a
    round splits nothing.  Returns node -> dense index of its final
    block.  Two nodes share a block iff the largest bisimulation that
    respects ``key`` relates them, and the ranks depend only on the
    graph and the keys, never on how the nodes are named.

    Members of a block hit the same blocks of the previous round, so a
    round only re-keys the parents of blocks that have just split, found
    by scanning the in-edges of every piece but the largest (Hopcroft's
    rule), with per-parent edge counts standing in for the largest
    piece.  A node without children hits no block at all, so the first
    round keys those apart by hand.  A block of one node can never split
    again, so it keeps no counts.

    Blocks keep their order as positions: a block of m members holds the
    positions lo .. lo + m - 1 of the order built so far, and a split
    hands them out to its pieces in order, so no label is ever
    renumbered.

    ``chain`` optionally lists nodes like the von Neumann numerals:
    ``chain[k]`` has exactly the children ``chain[:k]`` (only their
    number is checked), ``key`` is equal on ``chain[1:]`` and not below
    it on ``chain[0]``.  The chain's k²/2 edges are never listed, since
    where it lies says which blocks they hit: ``chain[t:]`` share a tail
    block, each ``chain[j]`` below t is the only chain node of its block,
    and those blocks rise with j.  So ``chain[k]`` hits the pieces that
    hold a chain node below k, the last in the block of ``chain[k-1]``.
    The tail above the chain nodes just over a split gets one entry and
    joins its group as one slice, so a round costs a few steps per split
    chain block, not one per chain parent.  A run of rounds in which the
    tail alone splits, shedding chain nodes that no node off the chain
    holds one at a time, is taken in one step, so the number of rounds
    follows the chain nodes that other nodes hold, not the chain's
    length.

    Raises :class:`ValidationError` if a child is not a node or the
    chain breaks its contract.
    """
    preds: dict = {n: [] for n in nodes}
    K = len(chain)
    for k, c in enumerate(chain):
        if c not in preds or len(kids[c]) != k or k and (
                key[c] < key[chain[0]] if k == 1 else key[c] != key[chain[1]]):
            raise ValidationError(f"chain node {k} is not a node with {k} children "
                                  f"keyed like the chain")
    in_chain = set(chain)
    degree: dict = {}
    for n in preds:
        if n in in_chain:
            continue
        ks = kids[n]
        for c in ks:
            ps = preds.get(c)
            if ps is None:
                raise ValidationError("vertex set is not element-closed")
            ps.append(n)
        if ks:
            degree[n] = len(ks)

    # Per block id: members, the position lo of its first member in the
    # order so far and, for each parent, how many of its children lie in
    # the block.  top[p] is the last block that p's children lie in.
    block_of = dict.fromkeys(preds, 0)
    members = [set(preds)]
    lo = [0]
    count: list[dict | None] = [degree]
    top = dict.fromkeys(degree, 0)

    def split(b: int, groups: list, rest: int) -> list[int]:
        """Replace block ``b`` by ``groups`` in that order, where None
        stands for the ``rest`` members of ``b`` in no listed group.
        The largest piece keeps id ``b``; returns the piece ids."""
        sizes = [rest if g is None else len(g) for g in groups]
        big = sizes.index(max(sizes))
        if groups[big] is None:
            for g in groups:
                if g is not None:
                    members[b].difference_update(g)
        else:
            if rest:
                others = members[b].difference(*(g for g in groups if g is not None))
                groups = [others if g is None else g for g in groups]
            members[b] = set(groups[big])
        start = lo[b]
        pieces = []
        for j, g in enumerate(groups):
            piece = b
            if j != big:
                piece = len(members)
                members.append(set(g))
                lo.append(0)
                count.append(None)
                for n in g:
                    block_of[n] = piece
            lo[piece] = start
            start += sizes[j]
            pieces.append(piece)
        return pieces

    by_key: dict = {}
    for n in preds:
        by_key.setdefault(key[n], []).append(n)
    splitters: list[tuple[int, list[int]]] = []
    if len(by_key) > 1:
        splitters.append((0, split(0, [by_key[k] for k in sorted(by_key)], 0)))
    sinks = [n for n in preds if not kids[n]]
    # The tail block holds chain[t:]; low maps it, and every block below
    # it that holds chain[j] among other nodes, to its lowest chain index
    # in the partition before the last round's splits.
    t = 0
    low = {0: 0} if K > 1 else {}

    while splitters or sinks:
        # A quiet chain round: the tail c, which holds just chain[t+1:],
        # has shed chain[t] alone and nothing else split.  While chain[t]
        # has no parent off the chain, the next round only sheds
        # chain[t+1] to a block of its own, so shed such a run at once,
        # keeping two nodes in the tail so that it keeps its id.
        c, pieces = splitters[0] if splitters else (None, None)
        if (len(splitters) == 1 and not sinks and low == {c: t}
                and pieces == [block_of[chain[t]], c] and len(members[pieces[0]]) == 1
                and len(members[c]) == K - t - 1):
            q = 0
            while K - t - q > 3 and not preds[chain[t + q]]:
                q += 1
            if q:
                shed = chain[t + 1:t + q + 1]
                for i, n in enumerate(shed):
                    block_of[n] = len(members)
                    members.append({n})
                    lo.append(lo[c] + i)
                    count.append(None)
                members[c].difference_update(shed)
                lo[c] += q
                t += q
                low = {c: t}
                splitters = [(c, [block_of[chain[t]], c])]

        # A parent's key is sparse: one entry per split block whose small
        # pieces it hits, in block order.  The entry's segment lists the
        # pieces hit, then a sentinel that stands for what follows in the
        # full tuple: nothing (below every piece) if this is the last
        # block the parent hits, a later block (above every piece)
        # otherwise.  Members that skip a split block's small pieces hit
        # its largest piece only, so each entry is signed by how its
        # segment compares with that default, and the signed entries
        # plus the (0,) terminator order parents as the full tuples do.
        # In the first round a node without children has the empty
        # tuple, which the entry () puts below every other key.
        splitters.sort(key=lambda sp: lo[sp[0]])
        entries: dict = {n: [()] for n in sinks}
        sinks = []
        runs = []  # per split chain block: j, chain[j+1]'s entry, chain[j+2:]'s
        for c, pieces in splitters:
            label = lo[c]
            pos = {b: i for i, b in enumerate(pieces)}
            rest = count[c]
            hits: dict = {}
            for i, b in enumerate(pieces):
                if b == c:
                    continue
                here: dict = {}
                for v in members[b]:
                    for p in preds[v]:
                        here[p] = here.get(p, 0) + 1
                if len(members[b]) > 1:
                    count[b] = here
                for p, k in here.items():
                    left = rest[p] - k
                    if left:
                        rest[p] = left
                    else:
                        del rest[p]
                    if p in hits:
                        hits[p].append(i)
                    else:
                        hits[p] = [i]
            if len(members[c]) == 1:
                count[c] = None
            ic = pos[c]
            for p, hit in hits.items():
                if p in rest:
                    hit.append(ic)
                    hit.sort()
                if top[p] == c:
                    top[p] = pieces[hit[-1]]
                sentinel = -1 if top[p] in pos else len(pieces)
                seg = (*hit, sentinel)
                entry = (-1, label, seg) if seg < (ic, sentinel) else (1, -label, seg)
                if p in entries:
                    entries[p].append(entry)
                else:
                    entries[p] = [entry]

            j = low.pop(c, None)
            if j is not None:
                # chain[j+1] hits the piece of chain[j] and no later block;
                # chain[j+2:] hits it too, then the piece of chain[j+1:] if
                # c was the tail, or else a later block
                pa = block_of[chain[j]]
                above = (pa,), len(pieces)
                if j == t and j + 1 < K:
                    pb = block_of[chain[j + 1]]
                    above = (pa, pb), -1
                    if pb != pa:
                        low[pb] = t = j + 1
                if len(members[pa]) > 1 or j == t:
                    low[pa] = j
                pair = []
                for hit, sentinel in (((pa,), -1), above):
                    seg, default = (*sorted({pos[b] for b in hit}), sentinel), (ic, sentinel)
                    pair.append(None if seg == default else (-1, label, seg)
                                if seg < default else (1, -label, seg))
                runs.append((j, *pair))

        bulk = ()
        if runs:
            start = max(t, runs[-1][0] + 2)
            for k in [*(j for j in low.values() if j < t), *range(t, min(start, K))]:
                es = [near if k == j + 1 else far for j, near, far in runs if j < k]
                es = [e for e in es if e is not None]
                if es:
                    entries.setdefault(chain[k], []).extend(es)
            tail_key = (*(e for _, _, e in runs if e is not None), (0,))
            if len(tail_key) > 1:
                bulk = chain[start:]

        touched: dict[int, dict] = {}
        for p, es in entries.items():
            es.append((0,))
            touched.setdefault(block_of[p], {}).setdefault(tuple(es), []).append(p)
        if bulk:
            touched.setdefault(block_of[bulk[0]], {}).setdefault(tail_key, []).extend(bulk)
        splitters = []
        for b, groups in touched.items():
            rest = len(members[b]) - sum(map(len, groups.values()))
            if rest:
                groups[((0,),)] = None
            if len(groups) > 1:
                ordered = [groups[k] for k in sorted(groups)]
                splitters.append((b, split(b, ordered, rest)))

    rank = {b: i for i, b in enumerate(sorted(range(len(lo)), key=lo.__getitem__))}
    return {n: rank[block_of[n]] for n in preds}


def _sccs(nodes, kids):
    """Tarjan's algorithm, iterative; yields components children-first."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = 0
    for start in nodes:
        if start in index:
            continue
        call = [(start, iter(kids[start]))]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while call:
            node, it = call[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    call.append((child, iter(kids[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            call.pop()
            if call:
                parent = call[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
    return out


class Universe:
    """Append-only store in which handle equality is set equality."""

    def __init__(self, max_sets: int | None = None):
        self._elems: list[tuple[SetId, ...]] = []
        self._wf: list[bool] = []
        # The COLOR_ROUNDS + 1 colors of set s, round 0 first, are the
        # slice s * (COLOR_ROUNDS + 1) onward; an uncolored set holds zeros.
        self._colors = array("q")
        self._intern: dict[tuple[SetId, ...], SetId] = {}
        self._bucket: dict[int, list[SetId]] = {}
        self._uncolored: list[SetId] = []
        self._vn: tuple[SetId, ...] = ()
        self._max_sets = max_sets

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self._elems)

    def __contains__(self, s) -> bool:
        return isinstance(s, int) and 0 <= s < len(self._elems)

    def ids(self) -> Iterator[SetId]:
        return iter(range(len(self._elems)))

    def _check(self, s: SetId) -> None:
        if not (isinstance(s, int) and 0 <= s < len(self._elems)):
            raise UnknownHandle(f"no such set handle: {s!r}")

    def elements(self, s: SetId) -> tuple[SetId, ...]:
        """Element list of ``s``, sorted by handle creation order."""
        self._check(s)
        return self._elems[s]

    def is_member(self, a: SetId, b: SetId) -> bool:
        self._check(a)
        self._check(b)
        elems = self._elems[b]
        i = bisect_left(elems, a)
        return i < len(elems) and elems[i] == a

    def is_well_founded(self, s: SetId) -> bool:
        """True iff no membership cycle is reachable from ``s``."""
        self._check(s)
        return self._wf[s]

    # -- construction --------------------------------------------------

    def _append(self, elems: tuple[SetId, ...], wf: bool) -> SetId:
        """Append a set whose elements all exist already.

        Such a set can never lie on a membership cycle (its descendants
        all predate it), so no cyclic cluster can ever match it and it
        needs no structural color: a fixed per-id leaf color suffices
        for the recurrences that read it.

        Every well-founded set is stored here, so the numeral cache grows
        here: while the tuple ``_vn`` lists vn(0..k), it is the element
        tuple of vn(k+1), and length and last element rule out the rest.
        """
        if self._max_sets is not None and len(self._elems) >= self._max_sets:
            raise UniverseFull(f"universe cap of {self._max_sets} sets reached")
        sid = len(self._elems)
        self._elems.append(elems)
        self._wf.append(wf)
        # every color is sid: its native 8 bytes, once per round
        self._colors.frombytes(sid.to_bytes(8, sys.byteorder) * (COLOR_ROUNDS + 1))
        assert elems not in self._intern
        self._intern[elems] = sid
        vn = self._vn
        if len(elems) == len(vn) and (not vn or elems[-1] == vn[-1]) and elems == vn:
            self._vn = vn + (sid,)
        return sid

    def _append_cyclic_batch(self, records, colors_list) -> None:
        """Append mutually referring non-well-founded records.

        Element tuples may mention ids inside the batch itself; record i
        becomes handle ``len(self) + i``.  Colors exist only to find
        lookup candidates, so a record's colors are None when its piece
        was never looked up: it then waits uncolored, and the first later
        lookup colors it from the stored graph.
        """
        base = len(self._elems)
        if self._max_sets is not None and base + len(records) > self._max_sets:
            raise UniverseFull(f"universe cap of {self._max_sets} sets reached")
        for sid, (key, colors) in enumerate(zip(records, colors_list), start=base):
            self._elems.append(key)
            self._wf.append(False)
            self._colors.extend(colors or _UNCOLORED)
            assert key not in self._intern
            self._intern[key] = sid
            if colors is None:
                self._uncolored.append(sid)
            else:
                self._bucket.setdefault(colors[-1], []).append(sid)

    def _color_rounds(self, nodes, internal, external) -> dict:
        """``COLOR_ROUNDS`` rounds of iterated neighborhood hashing.

        ``internal[n]`` lists the children of ``n`` among ``nodes``,
        ``external[n]`` its children among the colored stored sets.
        Returns node -> list of its colors, round 0 first.  The colors
        are bisimulation-invariant, so a cyclic piece and the stored sets
        minted for it get the same ones.
        """
        colors = self._colors
        w = COLOR_ROUNDS + 1
        col: dict = {n: [0] for n in nodes}
        for k in range(1, w):
            for n in nodes:
                sig = {colors[e * w + k - 1] for e in external[n]}
                sig.update(col[c][k - 1] for c in internal[n])
                col[n].append(hash((col[n][k - 1], tuple(sorted(sig)))))
        return col

    def _color_uncolored(self) -> None:
        """Color the stored sets minted before any lookup, and file them
        in ``_bucket``."""
        batch, self._uncolored = self._uncolored, []
        inside = set(batch)
        internal = {s: [e for e in self._elems[s] if e in inside] for s in batch}
        external = {s: [e for e in self._elems[s] if e not in inside] for s in batch}
        col = self._color_rounds(batch, internal, external)
        w = COLOR_ROUNDS + 1
        for s in batch:
            self._colors[s * w:(s + 1) * w] = array("q", col[s])
            self._bucket.setdefault(col[s][-1], []).append(s)

    def _intern_or_append(self, key: tuple[SetId, ...]) -> SetId:
        """Handle of the stored set with element tuple ``key``, appending
        it if there is none; every element must exist already."""
        sid = self._intern.get(key)
        if sid is None:
            sid = self._append(key, all(self._wf[e] for e in key))
        return sid

    def _key(self, members: Iterable[SetId]) -> tuple[SetId, ...]:
        """Sorted, duplicate-free element tuple; every member is checked."""
        key = tuple(sorted(set(members)))
        for m in key:
            self._check(m)
        return key

    def find_set(self, members: Iterable[SetId]) -> SetId | None:
        """Handle of the stored set with exactly the given members, or
        None.  Read-only: unlike :meth:`make_set` it never grows the store.
        """
        return self._intern.get(self._key(members))

    def make_set(self, members: Iterable[SetId]) -> SetId:
        """Canonical set with exactly the given members."""
        return self._intern_or_append(self._key(members))

    def union_of(self, sets: Iterable[SetId]) -> SetId:
        """Union of the element lists of the given sets."""
        members: set[SetId] = set()
        for s in sets:
            self._check(s)
            members.update(self._elems[s])
        return self.make_set(members)

    def vn(self, n: int) -> SetId:
        """Von Neumann natural: 0 is the empty set, n+1 = n U {n}.

        ``_vn`` lists every stored numeral in order, however it was built
        (:meth:`_append` extends it).  A stored well-founded set comes after
        its elements, so ``_vn`` is increasing: it is the sorted element
        tuple of the next numeral, which is not stored yet.
        """
        if n < 0:
            raise ValueError("naturals only")
        while len(self._vn) <= n:
            self._append(self._vn, True)
        return self._vn[n]

    def numerals(self) -> tuple[SetId, ...]:
        """The stored numerals vn(0), vn(1), ... in order, as an immutable
        snapshot: later growth of the store does not change it."""
        return self._vn

    def numeral_of(self, s: SetId) -> int | None:
        """n when ``s`` is the von Neumann numeral n, else None.

        One lookup: vn(n) has n elements, and the numeral cache lists
        every stored numeral.
        """
        n = len(self.elements(s))
        return n if n < len(self._vn) and self._vn[n] == s else None

    def canonicalize(self, g: Apg) -> SetId:
        """SetId of the hyperset pictured by ``g``'s root.

        Idempotent: structurally equal or bisimilar pictures always come
        back as the same handle.
        """
        problems = g.validate()
        if problems:
            raise MalformedGraph("; ".join(problems))
        return self.canonicalize_all(g.children, g.store_refs)[g.root]

    def canonicalize_all(self, children: Mapping[int, frozenset[int]],
                         store_refs: Mapping[int, frozenset[SetId]] | None = None,
                         ) -> dict[int, SetId]:
        """Insert a picture and resolve every node to its canonical handle.

        Unlike :meth:`canonicalize` this treats every node as a root, so
        no reachability requirement applies; it is the natural primitive
        for solving systems of equations.
        """
        store_refs = store_refs or {}
        problems = _shape_problems(children, store_refs)
        if problems:
            raise MalformedGraph(problems[0])
        nodes = sorted(children)
        kids = {n: sorted(set(children[n])) for n in nodes}
        refs = {}
        for n in nodes:
            rs = sorted(set(store_refs.get(n, ())))
            for r in rs:
                self._check(r)
            refs[n] = tuple(rs)

        resolved: dict[int, SetId] = {}
        for comp in _sccs(nodes, kids):
            n = comp[0]
            if len(comp) == 1 and n not in kids[n]:
                elems = set(refs[n])
                elems.update(resolved[c] for c in kids[n])
                resolved[n] = self._intern_or_append(tuple(sorted(elems)))
            else:
                self._resolve_cluster(sorted(comp), kids, refs, resolved)
        return resolved

    def _resolve_cluster(self, comp, kids, refs, resolved):
        """Match one cyclic piece against the store, or mint fresh sets.

        Every node of the piece lies on a membership cycle, so it can
        only equal a non-well-founded stored set.  Candidate stored sets
        are looked up by structural color, closed downward through their
        non-well-founded descendants, and refined jointly with the piece
        by :func:`refine_ranks`, keyed by everything else as constants.
        That one refinement also collapses the piece internally: its
        bisimilar nodes share a block and become one set.

        Colors only find candidates.  While the store holds no
        non-well-founded set there are none, so the piece is refined
        alone and its fresh sets are stored uncolored.  Otherwise the
        sets still uncolored are colored first, and a fresh set takes the
        colors of its block's smallest node, which equal those of every
        node in the block.
        """
        in_comp = set(comp)
        external = {}
        internal = {}
        for n in comp:
            external[n] = sorted(set(refs[n]) |
                                 {resolved[c] for c in kids[n] if c not in in_comp})
            internal[n] = [c for c in kids[n] if c in in_comp]

        lookup = bool(self._bucket or self._uncolored)
        candidates = set()
        if lookup:
            if self._uncolored:
                self._color_uncolored()
            col = self._color_rounds(comp, internal, external)
            for n in comp:
                candidates.update(self._bucket.get(col[n][COLOR_ROUNDS], ()))
        region = _walk(candidates, lambda s: [e for e in self._elems[s] if not self._wf[e]])

        # Piece node i is node base + i, a region set is its own handle.
        base = len(self._elems)
        ids = {n: base + i for i, n in enumerate(comp)}
        kids2 = {}
        consts = {}
        for n in comp:
            kids2[ids[n]] = ([ids[c] for c in internal[n]] +
                             [r for r in external[n] if r in region])
            consts[ids[n]] = tuple(r for r in external[n] if r not in region)
        for s in region:
            kids2[s] = [t for t in self._elems[s] if not self._wf[t]]
            consts[s] = tuple(t for t in self._elems[s] if self._wf[t])

        rank = refine_ranks(kids2.keys(), kids2, consts)

        # A block with a stored set is that set; the other blocks are
        # minted in order of their smallest picture node.
        value = {rank[s]: s for s in region}
        assert len(value) == len(region), "store was not bisimulation-minimal"
        fresh = []
        for n in comp:
            b = rank[ids[n]]
            if b not in value:
                value[b] = base + len(fresh)
                fresh.append(n)
            resolved[n] = value[b]

        records = [tuple(sorted({*external[n], *(resolved[c] for c in internal[n])}))
                   for n in fresh]
        self._append_cyclic_batch(
            records, [col[n] if lookup else None for n in fresh])
