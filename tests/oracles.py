"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: the quadratic bisimulation
fixpoint, DFS cycle detection, and brute-force adjacency scans exist so
the fast implementations have something honest to be compared against.
"""

from collections import deque
from contextlib import contextmanager
import random
import re

from hyperset.errors import DomainError, ParseError, PreconditionError, ValidationError
from hyperset.flat import FlatSystem
from hyperset.rado import AckermannCoder, bit_adjacent
from hyperset.reducts import MultiGraph
from hyperset.serialize import structural_ranks, wf_code_index
from hyperset.universe import Apg


def naive_max_bisim(children):
    """Maximum bisimulation of a graph, as a set of ordered pairs.

    Quadratic fixpoint: start from all pairs and delete any pair whose
    children cannot be matched both ways under the current relation.
    """
    nodes = list(children)
    rel = {(x, y) for x in nodes for y in nodes}

    def simulates(x, y):
        return all(any((a, b) in rel for b in children[y]) for a in children[x])

    changed = True
    while changed:
        changed = False
        for pair in list(rel):
            x, y = pair
            if not simulates(x, y) or not simulates(y, x):
                rel.discard(pair)
                changed = True
    return rel


def combined_graph(u, graphs):
    """Disjoint union of pictures plus the store fragment they reference.

    ``graphs`` is a list of Apgs; returns (children dict, root keys).
    Store references become edges into nodes ("u", set id) whose
    children replay the universe's membership relation.
    """
    children = {}
    roots = []
    store_needed = set()
    for idx, g in enumerate(graphs):
        roots.append((idx, g.root))
        for n, cs in g.children.items():
            kids = [(idx, c) for c in sorted(cs)]
            kids.extend(("u", r) for r in sorted(g.store_refs.get(n, ())))
            children[(idx, n)] = kids
            store_needed.update(g.store_refs.get(n, ()))
    queue = deque(store_needed)
    seen = set()
    while queue:
        s = queue.popleft()
        if s in seen:
            continue
        seen.add(s)
        children[("u", s)] = [("u", e) for e in u.elements(s)]
        queue.extend(e for e in u.elements(s) if e not in seen)
    return children, roots


def apgs_bisimilar(u, g1, g2):
    """Naive-fixpoint answer to `do these pictures show the same set?`"""
    children, roots = combined_graph(u, [g1, g2])
    rel = naive_max_bisim(children)
    return (roots[0], roots[1]) in rel


def universe_graph(u):
    return {s: list(u.elements(s)) for s in u.ids()}


def distinct_pairs_bisimilar(u):
    """Pairs of distinct stored handles the naive fixpoint still relates."""
    rel = naive_max_bisim(universe_graph(u))
    return sorted((a, b) for (a, b) in rel if a < b)


def naive_numerals(u):
    """Stored set -> n for every stored von Neumann numeral, by decoding
    the whole store into frozensets; the reference for
    ``Universe.numerals`` and ``Universe.numeral_of``."""
    canon = {}  # one object per frozenset, so equal elements compare by identity
    nat, k = {}, frozenset()
    for n in range(len(u) + 1):
        nat[k] = n
        k = canon.setdefault(k, k)
        k = k | {k}
    decoded = {}
    for s in u.ids():  # a well-founded set comes after its elements
        if u.is_well_founded(s):
            f = frozenset(decoded[e] for e in u.elements(s))
            decoded[s] = canon.setdefault(f, f)
    return {s: nat[f] for s, f in decoded.items() if f in nat}


def naive_structural_ranks(u, vertices):
    """Total order on an element-closed set of canonical handles.

    Iterated exact partition refinement; distinct handles are never
    bisimilar, so the colors separate completely and the resulting
    ranks depend only on the sets, not on construction history.

    Up to n+1 full rounds, each re-signing every vertex; the reference
    for ``hyperset.serialize.structural_ranks``.
    """
    ids = sorted(vertices)
    vset = set(ids)
    for s in ids:
        for e in u.elements(s):
            if e not in vset:
                raise ValidationError("vertex set is not element-closed")
    color = {s: 0 for s in ids}
    for _ in range(len(ids) + 1):
        sigs = {s: (color[s], tuple(sorted({color[e] for e in u.elements(s)})))
                for s in ids}
        order = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        fresh = {s: order[sigs[s]] for s in ids}
        if fresh == color:
            break
        color = fresh
    return color


def naive_refine_ranks(nodes, kids, key):
    """Ranked coarsest stable refinement of the blocks of equal ``key``.

    Dense ranks of the keys, then full rounds that re-sign every node
    by (its color, the sorted colors of its children) until a round
    changes nothing; the reference for
    ``hyperset.universe.refine_ranks``.
    """
    nodes = list(dict.fromkeys(nodes))
    order = {k: i for i, k in enumerate(sorted({key[n] for n in nodes}))}
    color = {n: order[key[n]] for n in nodes}
    while True:
        sigs = {n: (color[n], tuple(sorted({color[c] for c in kids[n]})))
                for n in nodes}
        order = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        fresh = {n: order[sigs[n]] for n in nodes}
        if fresh == color:
            return color
        color = fresh


def naive_coding_correspondence(u, max_code):
    """Membership adjacency against BIT adjacency, probing every pair.

    Decodes 0..max_code and asks ``is_member`` both ways for each pair
    a < b; the reference for ``hyperset.rado.coding_correspondence``,
    with the same (number of sets, number of pairs, mismatches) result.
    """
    coder = AckermannCoder(u)
    sets = [coder.decode(n) for n in range(max_code + 1)]
    mismatches = []
    pairs = 0
    for a in range(max_code + 1):
        sa = sets[a]
        for b in range(a + 1, max_code + 1):
            sb = sets[b]
            pairs += 1
            undirected = u.is_member(sa, sb) or u.is_member(sb, sa)
            if undirected != bit_adjacent(a, b):
                mismatches.append((a, b))
    return len(set(sets)), pairs, mismatches


def naive_double_component(u, vertices, start):
    """Double-edge component of ``start`` among ``vertices``, with its edges.

    Builds the whole pairwise double_only reduct on ``vertices``, walks
    its adjacency breadth-first from ``start``, then keeps the reduct's
    edges and loops inside the component; the reference for
    ``hyperset.reducts.double_component`` and
    ``hyperset.witnesses.double_component_graph``.
    """
    graph = naive_undirect(u, vertices, "double_only")
    adj = adjacency(graph)
    if start not in adj:
        raise ValidationError(f"{start} is not among the vertices")
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    comp = frozenset(seen)
    return MultiGraph(vertices=comp,
                      multiplicity={e: m for e, m in graph.multiplicity.items()
                                    if e[0] in comp and e[1] in comp})


def adjacency(graph: MultiGraph) -> dict:
    """Neighbour sets of a graph's vertices, loops left out."""
    adj = {v: set() for v in graph.vertices}
    for a, b in graph.edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def pattern_loopy_graph(pattern) -> MultiGraph:
    """A ``PatternGraph`` as a loopy graph on 0..size-1: every edge and
    loop of multiplicity 1."""
    edges = dict.fromkeys(pattern.edges, 1)
    edges.update(((i, i), 1) for i in pattern.loops)
    return MultiGraph(vertices=frozenset(range(pattern.size)), multiplicity=edges)


def loopy_iso(ga: MultiGraph, gb: MultiGraph):
    """A vertex bijection preserving edges and loops, or None.

    Exhaustive backtracking with degree/loop pruning; deterministic
    (first hit in sorted search order).  Capped at 10 vertices.  The
    reference for ``hyperset.witnesses.component``, whose own check is
    the image of one given bijection.
    """
    va, vb = sorted(ga.vertices), sorted(gb.vertices)
    if len(va) > 10 or len(vb) > 10:
        raise PreconditionError("exhaustive mode handles at most 10 vertices")
    if len(va) != len(vb) or len(ga.edges) != len(gb.edges):
        return None
    loops_a, loops_b = ga.loops(), gb.loops()
    if len(loops_a) != len(loops_b):
        return None
    adj_a, adj_b = adjacency(ga), adjacency(gb)

    def signature(v, adj, loops):
        return (len(adj[v]), v in loops)

    candidates = {
        a: [b for b in vb if signature(b, adj_b, loops_b) == signature(a, adj_a, loops_a)]
        for a in va
    }
    if any(not c for c in candidates.values()):
        return None
    order = sorted(va, key=lambda a: len(candidates[a]))
    mapping: dict = {}
    used: set = set()

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        a = order[idx]
        for b in candidates[a]:
            if b in used:
                continue
            if any((na in adj_a[a]) != (nb in adj_b[b])
                   for na, nb in mapping.items()):
                continue
            mapping[a] = b
            used.add(b)
            if extend(idx + 1):
                return True
            del mapping[a]
            used.discard(b)
        return False

    if extend(0):
        return dict(mapping)
    return None


def dfs_has_reachable_cycle(u, s):
    """Cycle detection by explicit DFS three-coloring; wf oracle."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {}
    stack = [(s, iter(u.elements(s)))]
    color[s] = GREY
    while stack:
        node, it = stack[-1]
        for child in it:
            c = color.get(child, WHITE)
            if c == GREY:
                return True
            if c == WHITE:
                color[child] = GREY
                stack.append((child, iter(u.elements(child))))
                break
        else:
            color[node] = BLACK
            stack.pop()
    return False


def picture_of(u, s):
    """Rebuild an Apg of the membership graph below ``s`` (no store refs)."""
    order = []
    seen = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        order.append(x)
        for e in u.elements(x):
            if e not in seen:
                seen.add(e)
                queue.append(e)
    idx = {x: i for i, x in enumerate(order)}
    children = {idx[x]: frozenset(idx[e] for e in u.elements(x)) for x in order}
    return Apg(children=children, root=0)


def random_apg(rng: random.Random, max_nodes=12, store=()) -> Apg:
    """Random accessible pointed graph: spanning edges plus noise.

    With a non-empty ``store`` (a sequence of set handles), some nodes
    also get store references drawn from it.
    """
    n = rng.randint(1, max_nodes)
    children = {i: set() for i in range(n)}
    for i in range(1, n):
        children[rng.randrange(i)].add(i)
    for _ in range(rng.randint(0, 2 * n)):
        children[rng.randrange(n)].add(rng.randrange(n))
    refs = {}
    if store:
        for i in range(n):
            if rng.random() < 0.4:
                refs[i] = frozenset(rng.sample(store, min(len(store), rng.randint(1, 2))))
    return Apg(children={i: frozenset(cs) for i, cs in children.items()}, root=0,
               store_refs=refs)


def bisimilar_variant(rng: random.Random, g: Apg) -> Apg:
    """A picture of the same hyperset: relabel and duplicate some nodes.
    Store refs go with their nodes and with the duplicates."""
    nodes = sorted(g.children)
    n = len(nodes)
    remap = {node: i for i, node in enumerate(nodes)}
    children = {remap[node]: {remap[c] for c in g.children[node]}
                for node in nodes}
    refs = {remap[node]: rs for node, rs in g.store_refs.items()}
    root = remap[g.root]
    # duplicate a few nodes: give some parent an extra, bisimilar child
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(n)
        parents = [p for p in children if v in children[p]]
        if not parents:
            continue
        fresh = len(children)
        children[fresh] = set(children[v])
        if v in refs:
            refs[fresh] = refs[v]
        children[rng.choice(parents)].add(fresh)
    # relabel once more
    labels = list(children)
    rng.shuffle(labels)
    perm = {old: new for new, old in enumerate(labels)}
    out = {perm[x]: frozenset(perm[c] for c in cs) for x, cs in children.items()}
    return Apg(children=out, root=perm[root],
               store_refs={perm[x]: rs for x, rs in refs.items()})


def parse_graph_output(text: str):
    """Inverse of :func:`hyperset.serialize.emit_graph` used for machine checks.

    Returns (vertices, edges): vertices as a list of (index, label,
    loop flag) and edges as a list of (i, j, multiplicity).
    """
    verts = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) in (3, 4):
            if len(parts) == 4 and parts[3] != "loop":
                raise ValidationError(f"line {lineno}: bad vertex flag {parts[3]!r}")
            verts.append((int(parts[1]), parts[2], len(parts) == 4))
        elif parts[0] == "e" and len(parts) == 4:
            i, j, m = int(parts[1]), int(parts[2]), int(parts[3])
            if m not in (1, 2):
                raise ValidationError(f"line {lineno}: multiplicity must be 1 or 2")
            edges.append((i, j, m))
        else:
            raise ValidationError(f"line {lineno}: unrecognized graph line {line!r}")
    expected = list(range(len(verts)))
    if [i for i, _, _ in verts] != expected:
        raise ValidationError("vertex indices must be consecutive from 0")
    return verts, edges


def naive_undirect(u, vertices, mode):
    """Undirected reduct of membership on ``vertices`` from pairwise
    ``is_member``; the reference for ``hyperset.reducts.undirect``.

    A pair (x, y) with x <= y is an edge when x in y or y in x, a double
    edge when both hold (for x == y, a loop).  Double edges between
    distinct sets have multiplicity 2 and the rest 1; ``multi`` keeps
    every edge, ``double_only`` the double ones and the loops, and
    ``loopy`` every edge at multiplicity 1.
    """
    verts = sorted(vertices)
    mult = {}
    for i, x in enumerate(verts):
        for y in verts[i:]:
            down, up = u.is_member(x, y), u.is_member(y, x)
            if down or up:
                mult[(x, y)] = 2 if down and up and x != y else 1
    if mode == "loopy":
        mult = {key: 1 for key in mult}
    elif mode == "double_only":
        mult = {(x, y): m for (x, y), m in mult.items()
                if u.is_member(x, y) and u.is_member(y, x)}
    return MultiGraph(vertices=frozenset(verts), multiplicity=mult)


# -- system files ------------------------------------------------------------

_NAIVE_NAME = re.compile(r"[A-Za-z_ν][A-Za-z0-9_ν]*")
_NAIVE_NAT = re.compile(r"[0-9]+")


def naive_tokens(text: str, comments: bool = True):
    """Tokens of a system file, read one character at a time, as
    (kind, value, line, column) tuples ending with an ``eof`` token; the
    reference for ``hyperset.sysfile._Tokens``.

    Whitespace is space, tab, CR and LF; ``#`` runs to end of line and
    advances no column; columns count characters.  Any other character
    that starts no token raises ParseError at its position, and so does
    ``#`` without ``comments``.
    """
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#" and comments:
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch in "{},=":
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        for kind, pattern in (("nat", _NAIVE_NAT), ("name", _NAIVE_NAME)):
            m = pattern.match(text, i)
            if m:
                toks.append((kind, m.group(), line, col))
                col += len(m.group())
                i = m.end()
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


class _NaiveParser:
    """Recursive descent over :func:`naive_tokens`, one call per token."""

    def __init__(self, u, text, comments=True):
        self.u = u
        self.toks = naive_tokens(text, comments)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2], tok[3])
        return tok

    def literal(self):
        kind, value, line, col = self.next()
        if kind == "nat":
            return self.u.vn(int(value))
        if kind != "{":
            raise ParseError(f"expected a set literal, found {value or 'end of input'!r}",
                             line, col)
        members = []
        if self.peek()[0] != "}":
            members.append(self.literal())
            while self.peek()[0] == ",":
                self.next()
                members.append(self.literal())
        self.expect("}")
        return self.u.make_set(members)


def naive_parse_system(u, text):
    """Reference for ``hyperset.sysfile.parse_system``."""
    p = _NaiveParser(u, text)
    atoms, equations, eq_pos, refs = {}, [], {}, []
    while p.peek()[0] != "eof":
        kind, value, line, col = p.next()
        if kind != "name":
            raise ParseError(f"expected a declaration, found {value!r}", line, col)
        if value == "atom":
            _, name, nline, ncol = p.expect("name")
            if name == "atom":
                raise ParseError(f"{name!r} is reserved", nline, ncol)
            if name in atoms:
                raise ParseError(f"duplicate atom {name}", nline, ncol)
            p.expect("=")
            atoms[name] = p.literal()
            continue
        if value == "atom":
            raise ParseError(f"{value!r} is reserved", line, col)
        if value in eq_pos:
            raise ParseError(f"duplicate equation for {value}", line, col)
        p.expect("=")
        p.expect("{")
        rhs = []
        if p.peek()[0] != "}":
            while True:
                _, ref, rline, rcol = p.expect("name")
                rhs.append(ref)
                refs.append((value, ref, rline, rcol))
                if p.peek()[0] != ",":
                    break
                p.next()
        p.expect("}")
        equations.append((value, frozenset(rhs)))
        eq_pos[value] = (line, col)
    for owner, ref, line, col in refs:
        if ref not in eq_pos and ref not in atoms:
            raise ParseError(f"equation for {owner} mentions undeclared name {ref}",
                             line, col)
    for name, (line, col) in eq_pos.items():
        if name in atoms:
            raise ParseError(f"{name} is declared both as atom and indeterminate",
                             line, col)
    return FlatSystem(atoms=atoms, equations=equations)


def naive_parse_set_literal(u, text):
    """Reference for ``hyperset.sysfile.parse_set_literal``: ``#`` is an
    unexpected character there, not a comment."""
    p = _NaiveParser(u, text, comments=False)
    s = p.literal()
    kind, value, line, col = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", line, col)
    return s


# -- store probes -------------------------------------------------------------


class _Sealed(tuple):
    """A numeral's element tuple: its length may be taken, its elements
    may not be read."""

    def __iter__(self):
        raise AssertionError("a numeral's elements were read")

    def __getitem__(self, index):
        raise AssertionError("a numeral's elements were read")


class _ElementReads(list):
    """A store's element tuples, logging the handle of each non-numeral
    tuple taken from it and handing out numerals' tuples sealed."""

    def __init__(self, u):
        super().__init__(u._elems)
        self.numerals = frozenset(u.numerals())
        self.log = []

    def __getitem__(self, s):
        elems = super().__getitem__(s)
        if s in self.numerals:
            return _Sealed(elems)
        self.log.append(s)
        return elems


@contextmanager
def element_reads(u):
    """Within the block, ``u`` reads its element tuples through a probe;
    yields the list of handles whose tuples are taken, numerals aside,
    and fails on any read of a numeral's elements.  The block must not
    grow the store."""
    elems = u._elems
    u._elems = probe = _ElementReads(u)
    try:
        yield probe.log
    finally:
        u._elems = elems


# -- graph output -------------------------------------------------------------


def naive_emit_graph(u, graph):
    """Reference for ``hyperset.serialize.emit_graph``: the same vertex
    order and labels, with each edge kept as a sorted (i, j, m) triple."""
    wf = sorted(s for s in graph.vertices if u.is_well_founded(s))
    nw = sorted(s for s in graph.vertices if not u.is_well_founded(s))
    if wf:
        wf.sort(key=wf_code_index(u, wf).__getitem__)
    if nw:
        nw.sort(key=structural_ranks(u, nw).__getitem__)
    ordered = wf + nw
    pos = {s: i for i, s in enumerate(ordered)}
    loops, edges = set(), []
    for (a, b), m in graph.multiplicity.items():
        if a == b:
            loops.add(a)
        else:
            edges.append((*sorted((pos[a], pos[b])), m))
    coder = AckermannCoder(u)
    lines = []
    for i, s in enumerate(ordered):
        label = f"nu{i}"
        if i < len(wf):
            try:
                label = str(coder.code(s))
            except DomainError:
                label = f"wf{i}"
        lines.append(f"v {i} {label}{' loop' if s in loops else ''}")
    lines.extend(f"e {i} {j} {m}" for i, j, m in sorted(edges))
    return "\n".join(lines) + "\n" if lines else ""
