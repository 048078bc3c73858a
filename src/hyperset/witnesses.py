"""Constructive extension-property witnesses and double-edge gadgets.

Three families of constructions, each self-verifying:

* ``arp_witness_simple``: for disjoint finite U, V of well-founded sets,
  the set U union {V} is adjacent (in the undirected membership graph)
  to everything in U and nothing in V.
* ``arp_witness_loopy``: the same extension property over arbitrary
  hypersets, returning a loopless witness z1 = {x, u_1..u_m} and a
  looped witness z2 solving z = {z, x, u_1..u_m}, where the auxiliary
  set x is a block of fresh von Neumann naturals of size m+3 chosen to
  avoid U, V and everything two membership steps under V.
* ``star`` / ``component``: double-edge gadgets with a prescribed
  double-degree, or with a double-edge component isomorphic to a given
  finite connected loopy pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation, PreconditionError, ValidationError
# perfbench/spans.py patches closure, undirect, double_component and solve
# on this module by name; closure and undirect are imported only for that.
from .flat import FlatSystem, solve
from .reducts import (
    LoopyGraph,
    closure,
    double_component,
    double_degree,
    has_loop,
    undirect,
)
from .universe import SetId, Universe, _walk


@dataclass
class WitnessReport:
    """Witness handles plus the verified post-conditions, in check order."""

    witnesses: dict[str, SetId]
    conditions: list[tuple[str, bool]]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.conditions)

    def failed(self) -> list[str]:
        return [name for name, flag in self.conditions if not flag]


def _adjacent(u: Universe, a: SetId, b: SetId) -> bool:
    return u.is_member(a, b) or u.is_member(b, a)


def _require_disjoint(us, vs):
    overlap = set(us) & set(vs)
    if overlap:
        raise PreconditionError(f"U and V overlap on {sorted(overlap)}")


def arp_witness_simple(u: Universe, us, vs) -> SetId:
    """Well-founded extension-property witness: z = U union {V}."""
    report = verify_simple_witness(u, us, vs)
    if not report.ok:
        raise ContractViolation(f"simple witness failed checks: {report.failed()}")
    return report.witnesses["z"]


def verify_simple_witness(u: Universe, us, vs) -> WitnessReport:
    us, vs = sorted(set(us)), sorted(set(vs))
    _require_disjoint(us, vs)
    for s in us + vs:
        if not u.is_well_founded(s):
            raise PreconditionError(
                f"simple witness needs well-founded inputs, got {s}")
    v_hat = u.make_set(vs)
    z = u.make_set(us + [v_hat])
    conditions = [("z_well_founded", u.is_well_founded(z)),
                  ("z_loopless", not has_loop(u, z)),
                  ("z_fresh", z not in us and z not in vs)]
    for i, m in enumerate(us):
        conditions.append((f"z_adjacent_u{i}", _adjacent(u, z, m)))
    for j, m in enumerate(vs):
        conditions.append((f"z_not_adjacent_v{j}", not _adjacent(u, z, m)))
    return WitnessReport(witnesses={"z": z}, conditions=conditions)


def _fresh_block(u: Universe, size: int, banned) -> SetId:
    """Smallest block {vn(N), ..., vn(N+size-1)} outside the banned sets."""
    n = 0
    while True:
        x = u.make_set([u.vn(n + j) for j in range(size)])
        if x not in banned:
            return x
        n += 1


def arp_witness_loopy(u: Universe, us, vs) -> tuple[SetId, SetId, SetId]:
    """Loopy extension-property witnesses (z1 loopless, z2 looped)."""
    report = verify_loopy_witness(u, us, vs)
    if not report.ok:
        raise ContractViolation(f"loopy witness failed checks: {report.failed()}")
    w = report.witnesses
    return w["z1"], w["z2"], w["x"]


def verify_loopy_witness(u: Universe, us, vs) -> WitnessReport:
    us, vs = sorted(set(us)), sorted(set(vs))
    _require_disjoint(us, vs)
    m = len(us)

    union_u = set()
    for s in us:
        union_u.update(u.elements(s))
    union_v = set()
    for s in vs:
        union_v.update(u.elements(s))
    union_union_v = set()
    for s in union_v:
        union_union_v.update(u.elements(s))
    banned = set(us) | set(vs) | union_u | union_v | union_union_v

    x = _fresh_block(u, m + 3, banned)
    z1 = u.make_set([x] + us)
    atoms = {"x": x}
    rhs = {"z", "x"}
    for i, s in enumerate(us):
        atoms[f"u{i}"] = s
        rhs.add(f"u{i}")
    z2 = solve(u, FlatSystem(atoms=atoms,
                             equations=[("z", frozenset(rhs))]))["z"]

    conditions = [
        ("x_size", len(u.elements(x)) == m + 3),
        ("x_not_in_V", x not in vs),
        ("x_not_under_U", x not in union_u),
        ("x_not_under_V", x not in union_v),
        ("x_not_two_under_V", x not in union_union_v),
        ("z1_loopless", not has_loop(u, z1)),
        ("z2_loop", has_loop(u, z2)),
        ("z1_ne_z2", z1 != z2),
        ("z1_ne_x", z1 != x),
        ("z2_ne_x", z2 != x),
        ("z1_fresh", z1 not in us and z1 not in vs),
        ("z2_fresh", z2 not in us and z2 not in vs),
    ]
    for i, s in enumerate(us):
        conditions.append((f"z1_adjacent_u{i}", _adjacent(u, z1, s)))
        conditions.append((f"z2_adjacent_u{i}", _adjacent(u, z2, s)))
    for j, s in enumerate(vs):
        conditions.append((f"z1_not_adjacent_v{j}", not _adjacent(u, z1, s)))
        conditions.append((f"z2_not_adjacent_v{j}", not _adjacent(u, z2, s)))
    return WitnessReport(witnesses={"z1": z1, "z2": z2, "x": x},
                         conditions=conditions)


def star(u: Universe, n: int, atom_seed: int = 0) -> tuple[SetId, list[SetId]]:
    """A set lying on exactly ``n`` double edges and carrying no loop.

    Solves y = {x_0..x_{n-1}}, x_i = {y, a_i} with the distinct
    well-founded atoms a_i = vn(atom_seed + i).
    """
    if n < 0 or atom_seed < 0:
        raise PreconditionError("n and atom_seed must be natural numbers")
    atoms = {f"a{i}": u.vn(atom_seed + i) for i in range(n)}
    equations = [("y", frozenset(f"x{i}" for i in range(n)))]
    for i in range(n):
        equations.append((f"x{i}", frozenset({"y", f"a{i}"})))
    sol = solve(u, FlatSystem(atoms=atoms, equations=equations))
    y = sol["y"]
    xs = [sol[f"x{i}"] for i in range(n)]
    if len(set(xs)) != n or has_loop(u, y) or double_degree(u, y) != n:
        raise ContractViolation("star construction failed its post-conditions")
    return y, xs


@dataclass(frozen=True)
class PatternGraph:
    """Finite loopy pattern on vertices 0..size-1, connected apart from
    its loops."""

    size: int
    edges: frozenset[tuple[int, int]]
    loops: frozenset[int]

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("pattern needs at least one vertex")
        for i, j in self.edges:
            if not (0 <= i < j < self.size):
                raise ValidationError(f"bad edge ({i}, {j})")
        for i in self.loops:
            if not 0 <= i < self.size:
                raise ValidationError(f"bad loop vertex {i}")

    @classmethod
    def from_matrix(cls, matrix) -> "PatternGraph":
        k = len(matrix)
        if any(len(row) != k for row in matrix):
            raise ValidationError("adjacency matrix must be square")
        edges = set()
        loops = set()
        for i in range(k):
            if matrix[i][i]:
                loops.add(i)
            for j in range(i + 1, k):
                if bool(matrix[i][j]) != bool(matrix[j][i]):
                    raise ValidationError("adjacency matrix must be symmetric")
                if matrix[i][j]:
                    edges.add((i, j))
        return cls(size=k, edges=frozenset(edges), loops=frozenset(loops))

    def adjacent(self, i: int, j: int) -> bool:
        if i == j:
            return i in self.loops
        key = (i, j) if i < j else (j, i)
        return key in self.edges

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.size) if j != i and self.adjacent(i, j)]

    def connected(self) -> bool:
        return len(_walk([0], self.neighbors)) == self.size

    def to_loopy_graph(self) -> LoopyGraph:
        edges = set(self.edges)
        edges.update((i, i) for i in self.loops)
        return LoopyGraph(vertices=frozenset(range(self.size)),
                          edges=frozenset(edges))


def component(u: Universe, g: PatternGraph, atom_seed: int = 0) -> list[SetId]:
    """Sets whose double-edge component realizes the pattern exactly.

    Solves y_i = {a_i} union {y_j : j adjacent to i}, a loop at i
    putting y_i into itself; distinct atom ranges give vertex-disjoint
    copies.
    """
    if not g.connected():
        raise PreconditionError("pattern must be connected")
    if atom_seed < 0:
        raise PreconditionError("atom_seed must be a natural number")
    atoms = {f"a{i}": u.vn(atom_seed + i) for i in range(g.size)}
    equations = []
    for i in range(g.size):
        rhs = {f"a{i}"}
        rhs.update(f"y{j}" for j in g.neighbors(i))
        if i in g.loops:
            rhs.add(f"y{i}")
        equations.append((f"y{i}", frozenset(rhs)))
    sol = solve(u, FlatSystem(atoms=atoms, equations=equations))
    ys = [sol[f"y{i}"] for i in range(g.size)]

    problems = []
    if len(set(ys)) != g.size:
        problems.append("solution sets are not pairwise distinct")
    graph = double_component_graph(u, ys)
    if graph.vertices != set(ys):
        problems.append("double-edge component differs from the solution sets")
    image = frozenset(tuple(sorted((ys[i], ys[j]))) for i, j in g.to_loopy_graph().edges)
    if graph.edges != image:
        problems.append("double edges do not match the pattern")
    if problems:
        raise ContractViolation("; ".join(problems))
    return ys


def double_component_graph(u: Universe, members) -> LoopyGraph:
    """Double-edge component of ``members[0]`` as a standalone graph.

    Double neighbours are elements, so the walk stays inside the
    closure of ``members`` without building it; every member is checked
    to be a handle.
    """
    for m in members:
        u.elements(m)
    comp = double_component(u, members[0])
    # y == x is a loop; a double edge is listed from its smaller end
    return LoopyGraph(vertices=comp, edges=frozenset(
        (x, y) for x in comp for y in u.elements(x)
        if y == x or (x < y and u.is_member(x, y))))


def loopy_iso(ga: LoopyGraph, gb: LoopyGraph):
    """A vertex bijection preserving edges and loops, or None.

    Exhaustive backtracking with degree/loop pruning; deterministic
    (first hit in sorted search order).  Capped at 10 vertices.
    """
    va, vb = sorted(ga.vertices), sorted(gb.vertices)
    if len(va) > 10 or len(vb) > 10:
        raise PreconditionError("exhaustive mode handles at most 10 vertices")
    if len(va) != len(vb) or len(ga.edges) != len(gb.edges):
        return None
    loops_a, loops_b = ga.loops(), gb.loops()
    if len(loops_a) != len(loops_b):
        return None
    adj_a, adj_b = ga.adjacency(), gb.adjacency()

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
