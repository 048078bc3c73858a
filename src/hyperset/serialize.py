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
without re-signing every set each round.  Each order takes the closure
of its sets from one walk of the store that checks them once and hands
over the element tuple of every set it meets but the numerals, which
it stops at and ranks in bulk: vn(k) holds exactly the smaller
numerals, so their k²/2 memberships are never read.  Splitting sets by
foundation is one store call per list, which checks them once too.
How the store keeps its sets and numerals is its own business.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count

from .errors import DomainError, ValidationError
from .flat import FlatSystem
from .rado import AckermannCoder
# perfbench/spans.py patches closure on this module by name; it is
# imported only for that.
from .reducts import MultiGraph, closure
from .universe import SetId, Universe, _by_foundation, _walk_to_numerals, refine_ranks

NU = "ν"  # ν


# -- ordering helpers -------------------------------------------------------


def wf_code_index(u: Universe, roots) -> dict[SetId, int]:
    """Dense Ackermann-code-order indices of the well-founded sets in the
    closure of ``roots``; vn(k) has rank k."""
    kids, chain = _walk_to_numerals(u, roots)
    rank = {s: r for r, s in enumerate(chain)}
    layers = {r: [s] for s, r in rank.items()}
    for s in _by_foundation(u, sorted(kids))[0]:
        # a well-founded set comes after its elements
        r = rank[s] = 1 + max((rank[e] for e in kids[s]), default=-1)
        layers.setdefault(r, []).append(s)

    index: dict[SetId, int] = {}
    counter = count()
    for r in sorted(layers):
        layer = layers[r]
        if len(layer) > 1:  # distinct sets have distinct keys; vn(r) holds chain[:r]
            layer.sort(key=lambda s: sorted((index[e] for e in kids.get(s) or chain[:r]),
                                            reverse=True))
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
    kids, chain = _walk_to_numerals(u, roots)
    # refine_ranks lists no chain edge; of vn(k) it reads only that it has k
    kids.update((c, range(k)) for k, c in enumerate(chain))
    return refine_ranks(sorted(kids), kids, {s: bool(es) for s, es in kids.items()}, chain)


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
        n = u.numeral_of(t) if numerals else None
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
    roots: dict[SetId, str | None] = {}
    for name, s in named_roots:
        roots.setdefault(s, name)
    used = {name for name in roots.values() if name is not None}
    counters = defaultdict(count)

    def fresh(prefix: str) -> str:
        """The first ``prefix<k>`` not used yet, k past every earlier draw."""
        while (name := f"{prefix}{next(counters[prefix])}") in used:
            pass
        used.add(name)
        return name

    walk = list(roots)  # the named sets in naming order, breadth-first
    names = {s: fresh(NU) if name is None else name for s, name in roots.items()}
    name_order = {s: i for i, s in enumerate(walk)}
    atom_names: dict[SetId, str] = {}

    # Each order is computed at most once, over the closure of the roots.
    ranks = code_index = None
    eq_lines: list[str] = []
    for s in walk:
        wf_children, nw_children = _by_foundation(u, u.elements(s))
        if len(wf_children) > 1:
            if code_index is None:
                code_index = wf_code_index(u, roots)
            wf_children.sort(key=code_index.__getitem__)
        unnamed = [e for e in nw_children if e not in names]
        if len(unnamed) > 1:
            if ranks is None:
                ranks = structural_ranks(u, roots)
            unnamed.sort(key=ranks.__getitem__)
        for e in unnamed:
            names[e] = fresh(NU)
            name_order[e] = len(walk)
            walk.append(e)
        for e in wf_children:
            if e not in atom_names:
                atom_names[e] = fresh("a")
        rhs = [atom_names[e] for e in wf_children]
        rhs += map(names.__getitem__, sorted(nw_children, key=name_order.__getitem__))
        eq_lines.append(f"{names[s]} = {{{','.join(rhs)}}}")

    atom_lines = [f"atom {name} = {wf_literal(u, s, code_index, numerals=True)}"
                  for s, name in atom_names.items()]
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


def emit_graph(u: Universe, graph: MultiGraph) -> str:
    """Line-based graph text: ``v <index> <label> [loop]`` then
    ``e <i> <j> <multiplicity>``, printing ``graph.multiplicity``.

    Vertices are emitted well-founded first in code order, then
    non-well-founded in structural-rank order, and numbered from 0 in
    that order.  Labels: the Ackermann code when it fits the default
    bound, else ``wf<i>``; non-well-founded sets are ``nu<i>``.  Codes
    rise along code order, so the coder is asked only up to the first
    code that overflows, and every later well-founded vertex is
    ``wf<i>``.  The vertices are checked and split by foundation in one
    store call, and each order walks the closure of the vertices it
    sorts and stops at numerals, so printing a graph reads no numeral's
    elements.  Edges print row by row: a numeral of the multiplicities'
    chain also meets every larger one, at rising positions and
    multiplicity 1, since vn(k) has code rank k, so a row that holds
    only that tail is a slice of it.
    """
    wf, nw = _by_foundation(u, sorted(graph.vertices))
    if len(wf) > 1:
        wf.sort(key=wf_code_index(u, wf).__getitem__)
    if len(nw) > 1:
        nw.sort(key=structural_ranks(u, nw).__getitem__)
    ordered = wf + nw
    pos = {s: i for i, s in enumerate(ordered)}

    # row i lists 2j + k - 1, the cell "j k", for each edge i<j of multiplicity k
    mult = graph.multiplicity
    n = len(ordered)
    loops, rows = set(), {}
    for (a, b), k in mult.pairs.items():
        if a == b:
            loops.add(a)
        elif k not in (1, 2):
            raise ValidationError(f"edge {(a, b)} has multiplicity {k!r}, not 1 or 2")
        else:
            i, j = pos[a], pos[b]
            if i > j:
                i, j = j, i
            rows.setdefault(i, []).append(2 * j + k - 1)
    tail = [2 * pos[s] for s in mult.chain]
    after = {t // 2: c + 1 for c, t in enumerate(tail)}
    cells = [j + k for j in map(str, range(n)) for k in (" 1", " 2")]
    tail_cells = [cells[t] for t in tail]

    coder = AckermannCoder(u)
    lines = []
    for i, s in enumerate(wf):  # codes rise along ``wf``: from the first that overflows, all do
        try:
            label = coder.code(s)
        except DomainError:
            break
        lines.append(f"v {i} {label}{' loop' if s in loops else ''}")
    coded = len(lines)
    lines += [f"v {i} wf{i}{' loop' if s in loops else ''}"
              for i, s in enumerate(wf[coded:], coded)]
    lines += [f"v {i} nu{i}{' loop' if s in loops else ''}" for i, s in enumerate(nw, len(wf))]
    for i in range(n):
        c = after.get(i, len(tail))
        if i in rows:
            row = map(cells.__getitem__, sorted(tail[c:] + rows[i]))
        elif c < len(tail):
            row = tail_cells[c:]  # in order: chain positions rise
        else:
            continue
        head = f"e {i} "
        lines.append(head + ("\n" + head).join(row))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)
