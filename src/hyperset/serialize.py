"""Deterministic, history-free textual forms for sets and graphs.

Well-founded sets print as nested braces with elements in Ackermann
code order.  Non-well-founded sets print as a flat equation system over
fresh names ν0, ν1, ... discovered breadth-first, with well-founded
members pulled out as atom declarations.  Both orders are computed from
the sets themselves (never from handle numbers), so equal sets print
identically regardless of how or when they were built -- that is what
makes reparse/resolve/reserialize a fixpoint.

Each order is computed only where it decides something: once a set
has two well-founded members to list, or two non-well-founded members
still to name (graphs: two vertices of either kind).  Until then a list
has one order, so output is the same; a system whose every cyclic set
is named, as ``solve`` prints it, is never ranked.

Code order never materializes codes: the coding maps rank bands to
code bands (a set of rank k+1 always codes above every set of rank k),
so sets are indexed layer by layer, comparing descending element-index
tuples inside each layer.  Ranks take one pass in handle order, since
a stored well-founded set always comes after its elements.

Structural order is the order that iterated exact partition refinement
gives a closure (any closure holding two sets orders them alike): each
round orders the members of a block by the sorted tuple of the blocks
their elements lie in.  The counting kernel
:func:`hyperset.universe.refine_ranks` reproduces that order exactly
without re-signing every set each round.  Each order walks the closure
of the sets it is given once and stops at numerals, which are ranked in
bulk: vn(k) holds exactly the smaller numerals, so their k²/2
memberships are never read.
"""

from __future__ import annotations

from collections import deque
from itertools import count

from .errors import DomainError, ValidationError
from .flat import FlatSystem
# perfbench/spans.py patches closure on this module by name; it is
# imported only for that.
from .reducts import LoopyGraph, MultiGraph, _walk, closure
from .universe import SetId, Universe, refine_ranks

NU = "ν"  # ν


# -- ordering helpers -------------------------------------------------------


def _walk_to_numerals(u: Universe, roots) -> tuple[frozenset[SetId], tuple[SetId, ...]]:
    """The closure of ``roots`` as (its non-numerals, its numerals); the
    numerals are ``u._vn[:k + 1]`` for the largest vn(k) met, unread."""
    k = 0

    def step(s: SetId):
        nonlocal k
        n = numeral_of(u, s)  # checks the handle
        if n is None:
            return u.elements(s)
        k = max(k, n + 1)
        return ()

    walked = _walk(roots, step)
    chain = u._vn[:k]
    return walked.difference(chain), chain


def wf_code_index(u: Universe, roots) -> dict[SetId, int]:
    """Dense Ackermann-code-order indices of the well-founded sets in the
    closure of ``roots``; vn(k) has rank k."""
    walked, chain = _walk_to_numerals(u, roots)
    rank = {s: r for r, s in enumerate(chain)}
    layers = {r: [s] for s, r in rank.items()}
    for s in sorted(s for s in walked if u.is_well_founded(s)):
        # a well-founded set comes after its elements
        r = rank[s] = 1 + max((rank[e] for e in u.elements(s)), default=-1)
        layers.setdefault(r, []).append(s)

    index: dict[SetId, int] = {}
    counter = count()
    for r in sorted(layers):
        layer = layers[r]
        if len(layer) > 1:  # distinct sets have distinct keys
            layer.sort(key=lambda s: sorted((index[e] for e in u.elements(s)), reverse=True))
        for s in layer:
            index[s] = next(counter)
    return index


def structural_ranks(u: Universe, roots) -> dict[SetId, int]:
    """Total order on the closure of ``roots``, canonical handles.

    The order is that of iterated exact partition refinement: start with
    one block, and in each round order the members of every block by the
    sorted tuple of the blocks their elements lie in, until a round
    splits nothing; the result maps each handle to the dense index of
    its final block.  Distinct handles are never bisimilar, so the blocks
    separate completely and the ranks depend only on the sets, not on
    construction history or on which roots reach them.

    The rounds are those of :func:`hyperset.universe.refine_ranks`,
    started from two blocks: the empty set, then everything else.  Its
    chain is the numerals in the closure, which the walk stops at, so
    the numerals still in the last block rank in bulk.
    """
    walked, chain = _walk_to_numerals(u, roots)
    ids = sorted(walked.union(chain))
    elems = {s: u.elements(s) for s in ids}
    return refine_ranks(ids, elems, {s: bool(es) for s, es in elems.items()}, chain)


def numeral_of(u: Universe, s: SetId) -> int | None:
    """n when ``s`` is the von Neumann numeral n, else None.

    One lookup: the store's numeral cache lists every stored numeral
    (see :meth:`hyperset.universe.Universe.vn`), and vn(n) has n
    elements.
    """
    n = len(u.elements(s))
    return n if n < len(u._vn) and u._vn[n] == s else None


# -- set serialization -------------------------------------------------------


def wf_literal(u: Universe, s: SetId, index: dict[SetId, int] | None = None,
               numerals: bool = False) -> str:
    """Nested-brace literal, elements in code order; optionally collapse
    von Neumann numerals to decimals.

    Built bottom-up without recursion, each distinct subset once, so
    nesting depth is bounded by memory, not the stack.  The code index
    is built only once a set is spelled out, so a numeral costs none.
    """
    text: dict[SetId, str] = {}
    stack = [(s, False)]
    while stack:
        t, ready = stack.pop()
        if t in text:
            continue
        if ready:
            if index is None:
                index = wf_code_index(u, [s])
            inner = ",".join(text[e] for e in sorted(u.elements(t), key=index.__getitem__))
            text[t] = "{" + inner + "}"
            continue
        if not u.is_well_founded(t):
            raise ValidationError(f"set {t} is not well-founded")
        n = numeral_of(u, t) if numerals else None
        if n is not None:
            text[t] = str(n)
            continue
        stack.append((t, True))
        stack.extend((e, False) for e in u.elements(t) if e not in text)
    return text[s]


def normal_form(u: Universe, named_roots) -> str:
    """Flat-system normal form covering the given (name, set) roots.

    Later aliases of an already-named set are dropped: a flat equation
    cannot express `this name denotes that cyclic set` without copying
    the whole cycle.  Unnamed roots get fresh ν names.  Well-founded
    members become atom declarations named a0, a1, ... in order of
    first appearance.
    """
    roots: list[tuple[str | None, SetId]] = []
    taken_ids = set()
    for name, s in named_roots:
        if s not in taken_ids:
            taken_ids.add(s)
            roots.append((name, s))

    used: set[str] = set()
    names: dict[SetId, str] = {}
    name_order: dict[SetId, int] = {}

    def register(s: SetId, name: str) -> None:
        names[s] = name
        name_order[s] = len(name_order)
        used.add(name)

    nu_counter = count()

    def fresh_nu() -> str:
        while True:
            cand = f"{NU}{next(nu_counter)}"
            if cand not in used:
                return cand

    atom_counter = count()
    atom_names: dict[SetId, str] = {}
    atom_order: list[SetId] = []

    def atom_name(s: SetId) -> str:
        if s not in atom_names:
            while True:
                cand = f"a{next(atom_counter)}"
                if cand not in used:
                    break
            used.add(cand)
            atom_names[s] = cand
            atom_order.append(s)
        return atom_names[s]

    for name, _ in roots:
        if name is not None:
            used.add(name)
    queue: deque[SetId] = deque()
    for name, s in roots:
        register(s, name if name is not None else fresh_nu())
        queue.append(s)

    # Each order is computed at most once, over the closure of the roots.
    ranks = code_index = None
    eq_lines: list[str] = []
    while queue:
        s = queue.popleft()
        wf_children = [e for e in u.elements(s) if u.is_well_founded(e)]
        nw_children = [e for e in u.elements(s) if not u.is_well_founded(e)]
        if len(wf_children) > 1:
            if code_index is None:
                code_index = wf_code_index(u, [r for _, r in roots])
            wf_children.sort(key=code_index.__getitem__)
        fresh = [e for e in nw_children if e not in names]
        if len(fresh) > 1:
            if ranks is None:
                ranks = structural_ranks(u, [r for _, r in roots])
            fresh.sort(key=ranks.__getitem__)
        for e in fresh:
            register(e, fresh_nu())
            queue.append(e)
        rhs = [atom_name(e) for e in wf_children]
        rhs.extend(names[e] for e in sorted(nw_children, key=name_order.__getitem__))
        eq_lines.append(f"{names[s]} = {{{','.join(rhs)}}}")

    atom_lines = [f"atom {atom_names[s]} = {wf_literal(u, s, code_index, numerals=True)}"
                  for s in atom_order]
    return "\n".join(atom_lines + eq_lines) + "\n" if eq_lines else ""


def serialize_set(u: Universe, s: SetId) -> str:
    """Canonical text for one set: a brace literal when well-founded,
    otherwise its ν-named flat-system normal form."""
    if u.is_well_founded(s):
        return wf_literal(u, s)
    return normal_form(u, [(None, s)])


def format_system(u: Universe, sys: FlatSystem) -> str:
    """Print a FlatSystem back in file syntax (atoms first)."""
    lines = []
    for name in sorted(sys.atoms):
        s = sys.atoms[name]
        if not u.is_well_founded(s):
            raise ValidationError(
                f"atom {name} is not well-founded and has no literal form")
        lines.append(f"atom {name} = {wf_literal(u, s, numerals=True)}")
    for name, rhs in sys.equations:
        lines.append(f"{name} = {{{','.join(sorted(rhs))}}}")
    return "\n".join(lines) + "\n" if lines else ""


# -- graph output -------------------------------------------------------------


def emit_graph(u: Universe, graph, mode: str) -> str:
    """Line-based graph text: ``v <index> <label> [loop]`` then
    ``e <i> <j> <multiplicity>``.

    Vertices are emitted well-founded first in code order, then
    non-well-founded in structural-rank order, and numbered from 0 in
    that order.  Labels: the Ackermann code when it fits the default
    bound, else ``wf<i>``; non-well-founded sets are ``nu<i>``.
    Each order walks the closure of the vertices it sorts and stops at
    numerals, so printing a graph reads no numeral's elements.
    """
    from .rado import AckermannCoder

    wf: list[SetId] = []
    nw: list[SetId] = []
    for s in sorted(graph.vertices):
        (wf if u.is_well_founded(s) else nw).append(s)
    if len(wf) > 1:
        wf.sort(key=wf_code_index(u, wf).__getitem__)
    if len(nw) > 1:
        nw.sort(key=structural_ranks(u, nw).__getitem__)
    ordered = wf + nw
    pos = {s: i for i, s in enumerate(ordered)}

    if isinstance(graph, MultiGraph):
        mults = graph.multiplicity.items()
    elif isinstance(graph, LoopyGraph):
        default = 2 if mode == "double_only" else 1
        mults = ((e, default) for e in graph.edges)
    else:
        raise ValidationError(f"cannot emit {type(graph).__name__}")
    loops, edges = set(), []
    for (a, b), m in mults:
        if a == b:
            loops.add(a)
        else:
            edges.append((*sorted((pos[a], pos[b])), m))

    coder = AckermannCoder(u)
    lines = []
    for i, s in enumerate(ordered):
        label = f"nu{i}"
        if i < len(wf):  # well-founded
            try:
                label = str(coder.code(s))
            except DomainError:
                label = f"wf{i}"
        lines.append(f"v {i} {label}{' loop' if s in loops else ''}")
    lines.extend(f"e {i} {j} {m}" for i, j, m in sorted(edges))
    return "\n".join(lines) + "\n" if lines else ""
