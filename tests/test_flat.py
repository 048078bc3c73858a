import random

import pytest

from hyperset.errors import MalformedGraph, UniverseFull, UnknownHandle, ValidationError
from hyperset.flat import FlatSystem, solve, validate
from hyperset.universe import Apg, Universe

from oracles import apgs_bisimilar, distinct_pairs_bisimilar

OMEGA = Apg(children={0: frozenset({0})}, root=0)


def test_self_membership_equation_gives_quine_atom(u):
    sol = solve(u, FlatSystem(equations=[("x", frozenset({"x"}))]))
    omega = u.canonicalize(OMEGA)
    assert sol == {"x": omega}


def test_double_edge_example(u):
    sys = FlatSystem(
        atoms={"a": u.vn(0), "b": u.vn(1)},
        equations=[("x", frozenset({"y", "a"})), ("y", frozenset({"x", "b"}))],
    )
    sol = solve(u, sys)
    x, y = sol["x"], sol["y"]
    assert x != y
    assert u.is_member(x, y) and u.is_member(y, x)
    assert set(u.elements(x)) == {y, u.vn(0)}
    assert set(u.elements(y)) == {x, u.vn(1)}


def test_two_cycle_system_collapses_to_quine_atom(u):
    # the two-node cycle picture is bisimilar to the self-loop picture
    cyc = Apg(children={0: frozenset({1}), 1: frozenset({0})}, root=0)
    assert apgs_bisimilar(u, cyc, OMEGA)
    sol = solve(u, FlatSystem(equations=[
        ("x", frozenset({"y"})), ("y", frozenset({"x"}))]))
    omega = u.canonicalize(OMEGA)
    assert sol["x"] == omega and sol["y"] == omega


def test_validate_reports_violations(u):
    ok = FlatSystem(atoms={"a": u.vn(0)},
                    equations=[("x", frozenset({"x", "a"}))])
    assert validate(ok) == []

    undeclared = FlatSystem(equations=[("x", frozenset({"z"}))])
    msgs = validate(undeclared)
    assert len(msgs) == 1 and "x" in msgs[0] and "z" in msgs[0]

    dup = FlatSystem(equations=[("x", frozenset()), ("x", frozenset())])
    assert any("duplicate" in m for m in validate(dup))

    clash = FlatSystem(atoms={"x": u.vn(0)}, equations=[("x", frozenset())])
    assert any("both" in m for m in validate(clash))

    with pytest.raises(ValidationError):
        solve(u, undeclared)


def test_validate_messages_are_exact_and_in_order(u):
    """Equation problems come first, in equation order; then each
    equation's undeclared names, sorted, in equation order."""
    sys = FlatSystem(
        atoms={"a": u.vn(0), "y": u.vn(1)},
        equations=[("x", frozenset({"zz", "x", "b", "a", "m"})),
                   ("y", frozenset()),
                   ("x", frozenset({"q", "y", "c"})),
                   ("w", frozenset({"p", "x", "d", "a"}))])
    expected = [
        "y is declared both as atom and indeterminate",
        "duplicate equation for x",
        "equation for x mentions undeclared name b",
        "equation for x mentions undeclared name m",
        "equation for x mentions undeclared name zz",
        "equation for x mentions undeclared name c",
        "equation for x mentions undeclared name q",
        "equation for w mentions undeclared name d",
        "equation for w mentions undeclared name p",
    ]
    assert validate(sys) == expected
    with pytest.raises(ValidationError) as err:
        solve(u, sys)
    assert str(err.value) == "; ".join(expected)


def test_solution_does_not_depend_on_the_containers():
    """Frozensets, lists with repeats, tuples and one-shot iterators
    picture the same sets, so two fresh stores given the same pictures
    hand out the same handles, and ``solve`` (which hands over plain
    lists) finds them."""
    rng = random.Random(23)
    for k in range(200):
        u, v = Universe(), Universe()
        for w in (u, v):
            w.vn(5)  # every atom random_system draws, at the same handles
        sys = random_system(rng, u)
        index = {name: i for i, name in enumerate(sys.indeterminates())}
        frozen, frozen_refs, listed, listed_refs = {}, {}, {}, {}
        for name, rhs in sys.equations:
            i = index[name]
            frozen[i] = frozenset(index[r] for r in rhs if r in index)
            frozen_refs[i] = frozenset(sys.atoms[r] for r in rhs if r not in index)
            kids, rs = [*frozen[i]] * 2, [*frozen_refs[i]] * 2
            rng.shuffle(kids)
            rng.shuffle(rs)
            listed[i], listed_refs[i] = [(kids, tuple(rs)), (tuple(kids), rs),
                                         (iter(kids), iter(rs))][k % 3]
        resolved = u.canonicalize_all(frozen, frozen_refs)
        assert v.canonicalize_all(listed, listed_refs) == resolved
        assert len(u) == len(v)
        size = len(u)
        assert solve(u, sys) == {name: resolved[i] for name, i in index.items()}
        assert len(u) == size
        assert distinct_pairs_bisimilar(u) == []
        assert distinct_pairs_bisimilar(v) == []


def test_canonicalize_all_checks_every_store_ref():
    u = Universe()
    u.vn(2)
    for ref in (-1, len(u), 1.5, "0"):
        for rs in ([ref], (ref, ref)):
            with pytest.raises(UnknownHandle):
                u.canonicalize_all({0: [0]}, {0: rs})
    with pytest.raises(UnknownHandle):  # not only the least and the largest ref
        u.canonicalize_all({0: [0]}, {0: [0, 1.5, 2]})
    assert len(u) == 3


def test_canonicalize_all_reports_the_first_dangling_child():
    u = Universe()
    with pytest.raises(MalformedGraph) as err:
        u.canonicalize_all({0: [1, 7, 7, 5], 1: (0, 0), 2: [9]})
    assert str(err.value) == "node 0 points at unknown node 5"


def test_canonicalize_all_takes_any_int_node_ids():
    # sparse, negative and very large ids, children and refs read from
    # one-shot iterables: the handles are those of the same picture with
    # its nodes numbered 0 .. n-1 in order, and so is the store
    rng = random.Random(9)
    spans = [(-10, 10), (-10 ** 30, 10 ** 30), (10 ** 12, 10 ** 12 + 10 ** 6), (-50, 0)]
    for k in range(60):
        dense, sparse = Universe(), Universe()
        atoms = [dense.vn(j) for j in range(5)]
        assert [sparse.vn(j) for j in range(5)] == atoms
        n = rng.randint(1, 20)
        children = {i: rng.sample(range(n), rng.randint(0, min(n, 3))) for i in range(n)}
        refs = {i: rng.sample(atoms, rng.randint(1, 2)) for i in rng.sample(range(n), n // 3)}
        ids: set = set()
        while len(ids) < n:
            ids.add(rng.randrange(*spans[k % len(spans)]))
        ids = sorted(ids)
        got = sparse.canonicalize_all({ids[i]: iter([ids[c] for c in cs] * 2)
                                       for i, cs in children.items()},
                                      {ids[i]: iter(rs) for i, rs in refs.items()})
        want = dense.canonicalize_all(children, refs)
        assert got == {ids[i]: s for i, s in want.items()}
        assert [*map(sparse.elements, sparse.ids())] == [*map(dense.elements, dense.ids())]


@pytest.mark.parametrize("ids", [(0, 1, 2), (-7, 10 ** 20, 3)])
def test_a_cap_one_short_of_a_fresh_cycle_stores_none_of_it(ids):
    # x = {y, vn(3)}, y = {z}, z = {x}: three fresh sets on four stored
    a, b, c = ids
    for cap, fits in ((6, False), (7, True)):
        u = Universe(max_sets=cap)
        three = u.vn(3)
        picture = {a: [b], b: [c], c: [a]}
        if fits:
            assert sorted(u.canonicalize_all(picture, {a: [three]}).values()) == [4, 5, 6]
        else:
            with pytest.raises(UniverseFull):
                u.canonicalize_all(picture, {a: [three]})
            assert len(u) == 4


def test_empty_system(u):
    assert solve(u, FlatSystem()) == {}


def test_solutions_satisfy_their_equations(u):
    rng = random.Random(3)
    for _ in range(100):
        sys = random_system(rng, u)
        sol = solve(u, sys)
        for name, rhs in sys.equations:
            expected = {sol[r] if r in sol else sys.atoms[r] for r in rhs}
            assert set(u.elements(sol[name])) == expected


def test_renamed_and_permuted_systems_solve_identically(u):
    rng = random.Random(5)
    for _ in range(150):
        sys = random_system(rng, u)
        twin, mapping = renamed_permuted(rng, sys)
        sol = solve(u, sys)
        sol2 = solve(u, twin)
        for name in sol:
            assert sol[name] == sol2[mapping[name]]


def test_acyclic_systems_yield_well_founded_sets(u):
    rng = random.Random(11)
    for _ in range(60):
        sys = random_system(rng, u, acyclic=True)
        for s in solve(u, sys).values():
            assert u.is_well_founded(s)


def test_solver_keeps_store_minimal(u):
    rng = random.Random(17)
    for _ in range(25):
        solve(u, random_system(rng, u))
    assert distinct_pairs_bisimilar(u) == []


def random_system(rng, u, max_vars=8, max_atoms=4, acyclic=False):
    n = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(n)]
    atom_names = [f"a{i}" for i in range(rng.randint(0, max_atoms))]
    atoms = {a: u.vn(rng.randint(0, 5)) for a in atom_names}
    equations = []
    for i, name in enumerate(names):
        pool = names[:i] if acyclic else names
        rhs = set(rng.sample(pool, k=rng.randint(0, min(3, len(pool)))))
        rhs.update(rng.sample(atom_names, k=rng.randint(0, min(2, len(atom_names)))))
        equations.append((name, frozenset(rhs)))
    return FlatSystem(atoms=atoms, equations=equations)


def renamed_permuted(rng, sys):
    names = sys.indeterminates()
    fresh = [f"y{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    equations = [(mapping[n], frozenset(mapping.get(r, r) for r in rhs))
                 for n, rhs in sys.equations]
    rng.shuffle(equations)
    return FlatSystem(atoms=dict(sys.atoms), equations=equations), mapping
