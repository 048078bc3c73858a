"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: the quadratic bisimulation
fixpoint, DFS cycle detection, and brute-force adjacency scans exist so
the fast implementations have something honest to be compared against.
"""

from collections import deque
import random

from hyperset.errors import ValidationError
from hyperset.reducts import LoopyGraph, MultiGraph, undirect
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


def naive_double_component(u, s, start):
    """Double-edge component of ``start`` in a slice, with its edges.

    Builds the whole double_only reduct of the slice, walks its
    adjacency breadth-first from ``start``, then keeps the reduct's
    edges and loops inside the component; the reference for
    ``hyperset.reducts.double_component`` and
    ``hyperset.witnesses.double_component_graph``.
    """
    graph = undirect(u, s, "double_only")
    adj = graph.adjacency()
    if start not in adj:
        raise ValidationError(f"{start} is not a vertex of the slice")
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    comp = frozenset(seen)
    return LoopyGraph(vertices=comp,
                      edges=frozenset(e for e in graph.edges
                                      if e[0] in comp and e[1] in comp))


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
    edge when both hold (for x == y, a loop); ``loopy`` keeps every
    edge, ``double_only`` the double ones, and ``multi`` gives double
    edges between distinct sets multiplicity 2 and the rest 1.
    """
    verts = sorted(vertices)
    mult = {}
    for i, x in enumerate(verts):
        for y in verts[i:]:
            down, up = u.is_member(x, y), u.is_member(y, x)
            if down or up:
                mult[(x, y)] = 2 if down and up and x != y else 1
    if mode == "multi":
        return MultiGraph(vertices=frozenset(verts), multiplicity=mult)
    if mode == "loopy":
        edges = set(mult)
    else:
        edges = {(x, y) for x, y in mult if u.is_member(x, y) and u.is_member(y, x)}
    return LoopyGraph(vertices=frozenset(verts), edges=frozenset(edges))
