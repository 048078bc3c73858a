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
with the whole stored cycles that could match it, by the counting
kernel :func:`refine_ranks` that also orders serialization; every other
set is a constant keyed by its handle, and the refinement also
collapses the piece internally.  Structural colors only find those
cycles: a piece is colored from itself and the handles it names, and
again with the stored cycle of the newest handle it names, and the
store keeps just a table that files each stored cycle under the colors
of its sets.  The net effect is the coarsest stable partition of the
combined store-plus-picture graph; of the rest of the store a lookup
reads only the cycles those colors file.

Concurrency contract: all mutation goes through a single writer; query
methods are read-only and safe to call from many threads once
construction is quiescent.  Handles are plain ints and freely copyable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .errors import MalformedGraph, UniverseFull, UnknownHandle, ValidationError

SetId = int

# Rounds of iterated neighborhood hashing used to index non-well-founded
# store nodes.  Only lookup performance depends on this; matching is
# always confirmed by exact refinement.
COLOR_ROUNDS = 10


def _walk(starts: Iterable, step: Callable[..., Iterable]) -> frozenset:
    """Everything reachable from ``starts`` by ``step``; starts go first.

    The one reachability walk of the package: closures and connectivity
    checks take it.  ``step`` is called once on each vertex, a repeated
    start included.
    """
    queue = deque(dict.fromkeys(starts))
    seen = set(queue)
    while queue:
        for y in step(queue.popleft()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def _walk_to_numerals(u: Universe, roots) -> tuple[dict, tuple]:
    """The closure of ``roots`` as ``(kids, chain)``: ``kids`` takes each
    of its sets but the numerals to its stored element tuple, and
    ``chain`` is vn(0..k), vn(k) the largest met.  The roots are checked
    one by one; the walk then reads the store directly, and no numeral's
    elements."""
    elems, vn = u._elems, u._vn
    stack = list(roots)
    for s in stack:
        u._check(s)
    kids: dict = {}
    top = -1
    while stack:
        s = stack.pop()
        if s in kids:
            continue
        es = elems[s]
        n = len(es)
        if n < len(vn) and vn[n] == s:  # vn(n), whose elements are vn(0..n-1)
            top = max(top, n)
        else:
            kids[s] = es
            stack.extend(es)
    return kids, vn[:top + 1]


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
    dangling = sorted((n, c) for n, cs in children.items() for c in cs if c not in children)
    problems = [f"node {n} points at unknown node {c}" for n, c in dangling]
    problems += [f"store_refs mentions unknown node {n}"
                 for n in sorted(n for n in store_refs if n not in children)]
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
    round keys those apart by hand.

    Blocks keep their order as positions: a block of m members holds the
    positions lo .. lo + m - 1 of the order built so far, and a split
    hands them out to its pieces in order, so no label is ever
    renumbered.  A block of one node can never split again, and most
    blocks end that way, so it keeps its position and nothing else: no
    member set, no counts, and no key for its node.  A parent's key is a
    flat tuple of ints, so the groups of a split sort cheaply.

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
    chain block, not one per chain parent.  Once the tail holds chain
    nodes alone, it sheds its lowest node every round, and that shed
    takes a few steps however many other blocks split in the round.  A
    run of rounds in which the tail alone splits, shedding chain nodes
    that no node off the chain holds, is taken in one step.  So the chain
    costs a few steps per round that the other blocks take to settle,
    then one per run, and the number of rounds follows those blocks and
    the chain nodes that other nodes hold, not the chain's length.

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
    sinks = []
    for n in preds:
        ks = kids[n]
        if not ks:
            sinks.append(n)
        elif n not in in_chain:
            degree[n] = len(ks)
            try:
                for c in ks:
                    preds[c].append(n)
            except KeyError:
                raise ValidationError("vertex set is not element-closed") from None

    # Per block id b >= 0, a block of several nodes: its members, the
    # position lo[b] of its first member in the order so far and, for
    # each parent, how many of its children lie in the block (count[b]).
    # A block of one node keeps none of these: its id is ~x, x being its
    # position.  top[p] is the last block that p's children lie in.
    block_of = dict.fromkeys(preds, 0)
    members = [set(preds)]
    lo = [0]
    count = {0: degree}
    top = dict.fromkeys(degree, 0)

    def split(b: int, groups: list, rest: int) -> tuple:
        """Replace block ``b`` by ``groups`` in that order, where ()
        stands for the ``rest`` members of ``b`` in no listed group.
        The largest piece keeps id ``b`` unless it has one node; returns
        the splitter: the block's label ``lo[b]``, ``b``, the piece ids,
        their members, and the index of the largest piece."""
        sizes = [*map(len, groups)]
        if rest:
            sizes[groups.index(())] = rest
        big = sizes.index(max(sizes))
        m = members[b]
        if groups[big]:
            if rest:
                groups[groups.index(())] = [*m.difference(*groups)]
            m = members[b] = set(groups[big])
        else:
            m.difference_update(*groups)
        groups[big] = m
        start = lo[b]
        ids = []
        for g, size in zip(groups, sizes):
            if size == 1:
                [n] = g
                block_of[n] = x = ~start
                ids.append(x)
            elif g is m:
                lo[b] = start
                ids.append(b)
            else:
                piece = len(lo)
                lo.append(start)
                members.append(set(g))
                for n in g:
                    block_of[n] = piece
                ids.append(piece)
            start += size
        return lo[b], b, ids, groups, big

    by_key = defaultdict(list)
    for n in preds:
        by_key[key[n]].append(n)
    splitters: list[tuple] = []
    if len(by_key) > 1:
        splitters.append(split(0, [by_key[k] for k in sorted(by_key)], 0))
    # The tail block holds chain[t:]; low maps it, and every block below
    # it that holds chain[j] among other nodes, to its lowest chain index
    # in the partition before the last round's splits.
    t = 0
    low = {0: 0} if K > 1 else {}

    held = tail = None  # held: the tail, while no splitter stands for its split
    while splitters or sinks or held is not None:
        # A shed: the tail, which holds just chain[t+1:], has just shed
        # chain[t] alone.  That split keys only chain[t]'s parents off the
        # chain, and this round the tail sheds chain[t+1] alone, whatever
        # else splits: that is done here in a few steps, and the tail's run
        # is never built.  If no node off the chain holds chain[t], the
        # split keys nothing and no splitter stands for it; if nothing else
        # split either, the rounds that follow only shed the tail's lowest
        # node while it has no such parent, and that run is shed at once,
        # keeping two nodes in the tail so that it keeps its id.
        if K > 3:
            tail = held
            if tail is None and splitters and K - t > 3 and low.get(c := block_of[chain[-1]]) == t:
                sp = next((sp for sp in splitters if sp[1] == c), None)
                if (sp and sp[2] == [block_of[chain[t]], c] and sp[2][0] < 0
                        and len(members[c]) == K - t - 1):
                    tail = c
                    if not preds[chain[t]]:
                        splitters.remove(sp)
            if tail is not None:
                q = 1
                if not (splitters or sinks or preds[chain[t]]) and len(low) == 1:
                    q = [*map(bool, map(preds.__getitem__, chain[t:K - 3])), True].index(True)
                shed = chain[t + 1:t + q + 1]
                block_of.update(zip(shed, range(~lo[tail], ~lo[tail] - q, -1)))
                members[tail].difference_update(shed)
                lo[tail] += q
                t = low[tail] = t + q
            held = tail if tail is not None and K - t > 3 and not preds[chain[t]] else None

        # A parent's key is sparse: one entry per split block whose small
        # pieces it hits, in block order.  The entry's segment lists the
        # pieces hit, then a sentinel that stands for what follows in the
        # full tuple: nothing (below every piece) if this is the last
        # block the parent hits, a later block (above every piece)
        # otherwise.  Members that skip a split block's small pieces hit
        # its largest piece only, so each entry is signed by how its
        # segment compares with that default.  A key is the parent's
        # entries, each (sign, label, *segment), then 0, in one flat tuple.
        # Every segment ends in its sentinel, so the entries of one block
        # never prefix one another, and keys order parents as the full
        # tuples do.  In the first round a node without children has the
        # empty tuple, which the key (-2, 0) puts below every other key.
        entries: dict = dict.fromkeys(sinks, (-2, 0))
        sinks = []
        runs = []  # per split chain block: j, chain[j+1]'s entry, chain[j+2:]'s
        splitters.sort()  # by label, which no two share
        for label, c, ids, groups, ic in splitters:
            rest = count[c]
            hits: dict = {}
            for i, g in enumerate(groups):
                if i == ic:
                    continue
                here = None
                if len(g) > 1:
                    here = count[ids[i]] = {}
                for v in g:
                    for p in preds[v]:
                        if block_of[p] < 0:  # p can never split off
                            continue
                        if here is not None:
                            here[p] = here.get(p, 0) + 1
                        left = rest[p] - 1
                        if left:
                            rest[p] = left
                        else:
                            del rest[p]
                        if p not in hits:
                            hits[p] = [i]
                        elif hits[p][-1] != i:
                            hits[p].append(i)
            if ids[ic] < 0:
                del count[c]
            for p, hit in hits.items():
                if p in rest:
                    insort(hit, ic)
                # p's last block is among the pieces iff it was c
                sentinel = len(ids)
                if top[p] == c:
                    top[p] = ids[hit[-1]]
                    sentinel = -1
                if hit[0] < ic or hit[0] == ic and sentinel > 0:
                    entry = (-1, label, *hit, sentinel, 0)
                else:
                    entry = (1, -label, *hit, sentinel, 0)
                entries[p] = entries[p][:-1] + entry if p in entries else entry

            j = low.pop(c, None) if c != tail else None
            if j is not None:
                # chain[j+1] hits the piece of chain[j] and no later block;
                # chain[j+2:] hits it too, then the piece of chain[j+1:] if
                # c was the tail, or else a later block
                pa = block_of[chain[j]]
                above = (pa,), len(ids)
                if j == t and j + 1 < K:
                    pb = block_of[chain[j + 1]]
                    above = (pa, pb), -1
                    if pb != pa:
                        low[pb] = t = j + 1
                if pa >= 0 or j == t:
                    low[pa] = j
                pair = []
                for hit, sentinel in (((pa,), -1), above):
                    seg, default = (*sorted({ids.index(b) for b in hit}), sentinel), (ic, sentinel)
                    pair.append(None if seg == default else (-1, label, *seg)
                                if seg < default else (1, -label, *seg))
                runs.append((j, *pair))

        bulk = ()
        if runs:
            start = max(t, runs[-1][0] + 2)
            for k in [*(j for j in low.values() if j < t), *range(t, min(start, K))]:
                es = [x for j, near, far in runs if j < k
                      for x in (near if k == j + 1 else far) or ()]
                if es:
                    entries[chain[k]] = (*entries.get(chain[k], (0,))[:-1], *es, 0)
            tail_key = (*(x for _, _, e in runs if e is not None for x in e), 0)
            if len(tail_key) > 1:
                bulk = chain[start:]

        touched: dict[int, dict] = {}
        for p, es in entries.items():
            touched.setdefault(block_of[p], {}).setdefault(es, []).append(p)
        if bulk:
            touched.setdefault(block_of[bulk[0]], {}).setdefault(tail_key, []).extend(bulk)
        splitters = [] if tail is None or held is not None else [
            (lo[tail], tail, [block_of[chain[t]], tail], [[chain[t]], members[tail]], 1)]
        for b, groups in touched.items():
            if b < 0:
                continue
            rest = len(members[b]) - sum(map(len, groups.values()))
            if rest:
                groups[(0,)] = ()
            if len(groups) > 1:
                splitters.append(split(b, [*map(groups.__getitem__, sorted(groups))], rest))

    at = [~b if b < 0 else lo[b] for b in block_of.values()]
    starts = set(at)
    if len(starts) < len(at):  # else the positions are the ranks
        starts = sorted(starts)
        at = map(dict(zip(starts, range(len(starts)))).__getitem__, at)
    return dict(zip(block_of, at))


def _sccs(kids):
    """Tarjan's algorithm, iterative, on the nodes 0 .. len(kids) - 1;
    yields components children-first.  A node is unvisited while its
    ``index`` is -1.  Emitting a component sets the index of its nodes
    to len(kids), above every ``low``, so a child on the stack is just
    one with a lower index.  A finished non-root passes its ``low`` to
    its parent; a start is a root."""
    n = len(kids)
    index, low, stack, out = [-1] * n, [0] * n, [], []
    seen = 0
    for start in range(n):
        if index[start] >= 0:
            continue
        call = [(start, iter(kids[start]))]
        index[start] = low[start] = seen
        seen += 1
        stack.append(start)
        while call:
            node, it = call[-1]
            for child in it:
                if index[child] < 0:
                    index[child] = low[child] = seen
                    seen += 1
                    stack.append(child)
                    call.append((child, iter(kids[child])))
                    break
                if index[child] < low[node]:
                    low[node] = index[child]
            else:
                call.pop()
                at = low[node]
                if at == index[node]:
                    comp = []
                    while index[node] < n:
                        comp.append(w := stack.pop())
                        index[w] = n
                    out.append(comp)
                elif at < low[parent := call[-1][0]]:
                    low[parent] = at
    return out


class Universe:
    """Append-only store in which handle equality is set equality."""

    def __init__(self, max_sets: int | None = None):
        self._elems: list[tuple[SetId, ...]] = []
        self._wf: list[bool] = []
        self._intern: dict[tuple[SetId, ...], SetId] = {}
        # final color -> the indices in _cycles of the stored cycles
        # that hold a set of that color, each once
        self._bucket: dict[int, list[int]] = {}
        # one range of consecutive handles per stored cyclic batch, each
        # a strongly connected piece of the store, in handle order
        self._cycles: list[range] = []
        self._vn: tuple[SetId, ...] = ()
        self._max_sets = max_sets

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self._elems)

    def __contains__(self, s) -> bool:
        return type(s) is int and 0 <= s < len(self._elems)

    def ids(self) -> Iterator[SetId]:
        return iter(range(len(self._elems)))

    def _check(self, s: SetId) -> None:
        if not (type(s) is int and 0 <= s < len(self._elems)):  # a bool is no handle
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

    def _reserve(self, n: int) -> None:
        """Raise :class:`UniverseFull` unless ``n`` more sets fit under the cap."""
        if self._max_sets is not None and len(self._elems) + n > self._max_sets:
            raise UniverseFull(f"universe cap of {self._max_sets} sets reached")

    def _append(self, elems: tuple[SetId, ...], wf: bool) -> SetId:
        """Append a set whose elements all exist already.  So it can never
        lie on a membership cycle (its descendants all predate it), no
        cyclic cluster can ever match it, and a lookup reads it only as a
        fixed label: its handle.

        Every well-founded set is stored here, so the numeral cache grows
        here: while the tuple ``_vn`` lists vn(0..k), it is the element
        tuple of vn(k+1), and length and last element rule out the rest.
        """
        self._reserve(1)
        sid = len(self._elems)
        self._elems.append(elems)
        self._wf.append(wf)
        n = len(self._intern)  # the key is new if the dict grows: one hash, not two
        self._intern[elems] = sid
        assert len(self._intern) > n
        vn = self._vn
        if len(elems) == len(vn) and (not vn or elems[-1] == vn[-1]) and elems == vn:
            self._vn = vn + (sid,)
        return sid

    def _append_cyclic_batch(self, records, colors) -> None:
        """Append the sets of one cyclic piece, a strongly connected piece
        of the store whose other elements predate it: record i becomes
        handle ``len(self) + i``, and the batch a stored cycle, a range in
        ``_cycles`` whose index is filed in ``_bucket`` once under each
        of its ``colors`` (the first cycle's wait for a lookup).  They are
        stored in bulk, not by :meth:`_append`: a set on a membership cycle
        is never the next numeral, so ``_vn`` stays as it is."""
        self._reserve(len(records))
        base = len(self._elems)
        end = base + len(records)
        self._elems.extend(records)
        self._wf.extend([False] * len(records))
        n = len(self._intern)
        self._intern.update(zip(records, range(base, end)))
        assert len(self._intern) == n + len(records)
        for color in set(colors):
            self._bucket.setdefault(color, []).append(len(self._cycles))
        self._cycles.append(range(base, end))

    def _cycle_of(self, s: SetId) -> range | None:
        """The stored cycle that holds ``s``, if any."""
        i = bisect_right(self._cycles, s, key=lambda r: r.start) - 1
        return self._cycles[i] if i >= 0 and s in self._cycles[i] else None

    def _color_rounds(self, piece, internal, external, cycle=range(0)) -> dict:
        """Piece node -> its color after ``COLOR_ROUNDS`` rounds of
        iterated neighborhood hashing of ``piece``, one cyclic piece.

        ``internal[p]`` lists the children of ``p`` in the piece, and
        ``external[p]`` the sorted handles of its other children, fixed
        labels but for those of the stored ``cycle``: these are nodes,
        colored with the part of ``cycle`` that the rounds reach.  The
        colors are bisimulation-invariant, so a stored cycle the piece
        equals gets the colors of its nodes, if the piece names no handle
        of it or it is ``cycle``.
        """
        elems = self._elems
        inner, labels = {}, {}
        for p in piece:
            inner[p] = internal[p] + [e for e in external[p] if e in cycle]
            labels[p] = hash(tuple(e for e in external[p] if e not in cycle))
        rings = [piece]  # rings[d + 1]: the handles of cycle d steps from those named
        ring = {e for p in piece for e in external[p] if e in cycle}
        while ring and len(rings) <= COLOR_ROUNDS:  # the last ring is read, never recolored
            rings.append(ring)
            for s in ring:
                inner[s] = [e for e in elems[s] if e in cycle]
                labels[s] = hash(tuple(e for e in elems[s] if e not in cycle))
            ring = {e for s in ring for e in inner[s]} - inner.keys()
        col = dict.fromkeys(inner, 0)
        for left in range(COLOR_ROUNDS, 0, -1):  # the rings the piece's colors still see
            col = {n: hash((col[n], frozenset([col[c] for c in inner[n]]), labels[n]))
                   for ring in rings[:left] for n in ring}
        return col

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
        every stored numeral.  The elements of ``s`` are not read.
        """
        self._check(s)
        n = len(self._elems[s])
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

    def canonicalize_all(self, children: Mapping[int, Iterable[int]],
                         store_refs: Mapping[int, Iterable[SetId]] | None = None,
                         ) -> dict[int, SetId]:
        """Insert a picture and resolve every node to its canonical handle.

        Unlike :meth:`canonicalize` this treats every node as a root, so
        no reachability requirement applies; it is the natural primitive
        for solving systems of equations.  ``children[n]`` and ``store_refs[n]``
        are iterables of ints in any order, with repeats or not, each read
        once; every store ref given is checked.  Nodes other than 0 .. n-1
        are renumbered so, in order, once; the picture is then resolved on
        lists.
        """
        store_refs = store_refs or {}
        order = sorted(children)
        at = dict(zip(order, range(len(order))))
        kids = [sorted(set(children[n])) for n in order]  # each read once
        if not (kids and at.keys() >= set().union(store_refs, *kids)):
            raise MalformedGraph(_shape_problems(dict(zip(order, kids)), store_refs)[0])
        refs = {at[n]: list(rs) for n, rs in store_refs.items()}  # nodes with refs only
        if order[0] != 0 or order[-1] != len(order) - 1:  # else each node is its position
            kids = [[*map(at.__getitem__, cs)] for cs in kids]
        for rs in refs.values():
            for s in rs:
                self._check(s)

        resolved = [0] * len(kids)  # node -> its handle, children first
        for comp in _sccs(kids):
            n = comp[0]
            if len(comp) == 1 and n not in kids[n]:
                elems = set(refs.get(n, ()))
                elems.update(map(resolved.__getitem__, kids[n]))
                resolved[n] = self._intern_or_append(tuple(sorted(elems)))
            else:
                self._resolve_cluster(sorted(comp), kids, refs, resolved)
        return dict(zip(order, resolved))

    def _resolve_cluster(self, comp, kids, refs, resolved):
        """Match one cyclic piece against the store, or mint fresh sets.

        If a piece node equals a set of a stored cycle, every piece node
        does.  The region, the union of the stored cycles filed under a
        piece node's color, is refined jointly with the piece by
        :func:`refine_ranks`, every other child a constant keyed by its
        handle; that also collapses the piece.

        The lookup is exact.  Say node m equals stored t of cycle S.  If
        the piece names no handle of S, S is filed under m's color.  Else
        every handle it names is in S or predates S, as elements of S's
        sets are: S holds the newest, and with S's handles as nodes m gets
        t's color.  A fresh cycle is filed under its nodes' colors.
        """
        elems = self._elems
        base = len(elems)
        piece = range(base, base + len(comp))  # node comp[i] is base + i
        for n, p in zip(comp, piece):  # above every handle resolved so far
            resolved[n] = p
        internal, external = {}, {}
        for n, p in zip(comp, piece):
            inside, outside = [], [*refs.get(n, ())]
            for h in map(resolved.__getitem__, kids[n]):
                (inside if h >= base else outside).append(h)
            internal[p] = inside
            external[p] = tuple(sorted(set(outside)) if len(outside) > 1 else outside)

        col, region = {}, set()
        if self._cycles:  # else nothing can match, and the fresh sets wait for a lookup
            if not self._bucket:  # the first cycle, minted before any lookup
                first = self._cycles[0]
                inside = {s: [e for e in elems[s] if e in first] for s in first}
                outside = {s: [e for e in elems[s] if e not in first] for s in first}
                for c in set(self._color_rounds(first, inside, outside).values()):
                    self._bucket.setdefault(c, []).append(0)
            col = self._color_rounds(piece, internal, external)
            colorings = [col]  # and one with the only cycle it can equal while naming it
            if named := self._cycle_of(max((e for p in piece for e in external[p]), default=-1)):
                colorings.append(self._color_rounds(piece, internal, external, named))
            for k in {k for c in colorings for p in piece for k in self._bucket.get(c[p], ())}:
                region.update(self._cycles[k])

        kids2, consts = internal, external
        if region:
            kids2, consts = {}, {}
            for p in piece:
                kids2[p] = internal[p] + [r for r in external[p] if r in region]
                consts[p] = tuple(r for r in external[p] if r not in region)
            for s in region:
                kids2[s] = [t for t in elems[s] if t in region]
                consts[s] = tuple(t for t in elems[s] if t not in region)

        rank = refine_ranks(kids2.keys(), kids2, consts)

        # A block with a stored set is that set; the other blocks are
        # minted in order of their smallest picture node.  So when no block
        # holds two nodes or a stored set, each node is minted as the handle
        # it stands for, its record its handles outside the piece and then
        # those inside, both sorted.
        if not region and len(set(rank.values())) == len(piece):
            fresh, records = piece, [(*external[p], *internal[p]) for p in piece]
        else:
            value = {rank[s]: s for s in region}
            assert len(value) == len(region), "store was not bisimulation-minimal"
            fresh, handle = [], {}  # handle: piece node -> the set it resolves to
            for n, p in zip(comp, piece):
                b = rank[p]
                if b not in value:
                    value[b] = base + len(fresh)
                    fresh.append(p)
                resolved[n] = handle[p] = value[b]
            records = [tuple(sorted({*external[p], *map(handle.__getitem__, internal[p])}))
                       for p in fresh]
        if fresh:
            self._append_cyclic_batch(records, [col[p] for p in fresh] if col else ())
