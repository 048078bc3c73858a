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
    MultiGraph,
    _double_neighbors,
    adjacent,
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


def _disjoint_sorted(us, vs) -> tuple[list, list]:
    """``us``, ``vs`` sorted, deduplicated; an overlap raises ``at`` its first positions."""
    us, vs = list(us), list(vs)
    overlap = set(us) & set(vs)
    if overlap:
        i = next(i for i, s in enumerate(us) if s in overlap)
        raise PreconditionError(f"U and V overlap on {sorted(overlap)}",
                                at=(i, vs.index(us[i])))
    return sorted(set(us)), sorted(set(vs))


def _adjacency_conditions(u: Universe, zs: dict, us, vs) -> list[tuple[str, bool]]:
    """``<z>_adjacent_u<i>`` for each u_i, then ``<z>_not_adjacent_v<j>``
    for each v_j, each over every named witness z of ``zs`` in order."""
    return [(f"{name}_{tag}{i}", adjacent(u, z, s) == want)
            for tag, sets, want in (("adjacent_u", us, True), ("not_adjacent_v", vs, False))
            for i, s in enumerate(sets) for name, z in zs.items()]


def arp_witness_simple(u: Universe, us, vs) -> SetId:
    """Well-founded extension-property witness: z = U union {V}."""
    report = verify_simple_witness(u, us, vs)
    if not report.ok:
        raise ContractViolation(f"simple witness failed checks: {report.failed()}")
    return report.witnesses["z"]


def verify_simple_witness(u: Universe, us, vs) -> WitnessReport:
    us, vs = _disjoint_sorted(us, vs)
    for s in us + vs:
        if not u.is_well_founded(s):
            raise PreconditionError(
                f"simple witness needs well-founded inputs, got {s}")
    v_hat = u.make_set(vs)
    z = u.make_set(us + [v_hat])
    conditions = [("z_well_founded", u.is_well_founded(z)),
                  ("z_loopless", not has_loop(u, z)),
                  ("z_fresh", z not in us and z not in vs),
                  *_adjacency_conditions(u, {"z": z}, us, vs)]
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
    us, vs = _disjoint_sorted(us, vs)
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
        *_adjacency_conditions(u, {"z1": z1, "z2": z2}, us, vs),
    ]
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


def end_problem(size: int, i: int, j: int, loop: bool = False) -> str | None:
    """The fault of edge (i, j), i < j, or of loop i = j, on vertices 0..size-1, or None."""
    if loop:
        return None if 0 <= i < size else f"bad loop vertex {i}"
    return None if 0 <= i < j < size else f"bad edge ({i}, {j})"


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
        for problem in [*(end_problem(self.size, i, j) for i, j in self.edges),
                        *(end_problem(self.size, i, i, loop=True) for i in self.loops)]:
            if problem:
                raise ValidationError(problem)
        neighbors = [[] for _ in range(self.size)]
        for i, j in sorted(self.edges):
            neighbors[i].append(j)
            neighbors[j].append(i)
        object.__setattr__(self, "_neighbors", neighbors)  # frozen: set once here

    @classmethod
    def from_matrix(cls, matrix) -> "PatternGraph":
        """The pattern of a 0/1 adjacency matrix; a shape error is ``at``
        the first short or long row, or the later of two that disagree."""
        k = len(matrix)
        for j, row in enumerate(matrix):
            if len(row) != k:
                raise ValidationError("adjacency matrix must be square", at=j)
        edges = set()
        loops = set()
        for j in range(k):
            if matrix[j][j]:
                loops.add(j)
            for i in range(j):
                if bool(matrix[i][j]) != bool(matrix[j][i]):
                    raise ValidationError("adjacency matrix must be symmetric", at=j)
                if matrix[i][j]:
                    edges.add((i, j))
        return cls(size=k, edges=frozenset(edges), loops=frozenset(loops))

    def neighbors(self, i: int) -> list[int]:
        return self._neighbors[i]

    def connected(self) -> bool:
        return len(_walk([0], self.neighbors)) == self.size


def component(u: Universe, g: PatternGraph,
              atom_seed: int = 0) -> tuple[list[SetId], MultiGraph]:
    """Sets whose double-edge component realizes the pattern exactly,
    and that component as a graph.

    Solves y_i = {a_i} union {y_j : j adjacent to i}, a loop at i
    putting y_i into itself; distinct atom ranges give vertex-disjoint
    copies.  Returns only once it has checked what the CLI's ``check``
    lines report: the ys are pairwise distinct (``distinct``), the
    double-edge component of ys[0] is exactly {ys} (``component_exact``),
    and i -> ys[i] preserves edges and loops, taking the pattern's onto
    the component's (``isomorphic``); otherwise it raises
    :class:`ContractViolation`.
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
    image = {(ys[i], ys[i]) for i in g.loops}
    image.update(tuple(sorted((ys[i], ys[j]))) for i, j in g.edges)
    if graph.edges != image:
        problems.append("double edges do not match the pattern")
    if problems:
        raise ContractViolation("; ".join(problems))
    return ys, graph


def double_component_graph(u: Universe, members) -> MultiGraph:
    """Double-edge component of ``members[0]`` as a standalone graph:
    multiplicity 2 on its double edges and 1 on its loops.

    Double neighbours are elements, so the walk stays inside the
    closure of ``members`` without building it; every member is checked
    to be a handle.
    """
    for m in members:
        u.elements(m)
    comp = double_component(u, members[0])
    return MultiGraph(vertices=comp, multiplicity={  # a double edge from its smaller end
        **{(x, x): 1 for x in comp if has_loop(u, x)},
        **{(x, y): 2 for x in comp for y in _double_neighbors(u, x) if x < y}})
