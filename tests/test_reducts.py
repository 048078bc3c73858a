import random

import pytest

from hyperset.errors import UnknownHandle, ValidationError
from hyperset.flat import FlatSystem, solve
from hyperset.reducts import (
    MODES,
    LoopyGraph,
    MultiGraph,
    closure,
    double_component,
    double_degree,
    has_loop,
    undirect,
)
from hyperset.universe import Apg, Universe, _walk
from hyperset.witnesses import double_component_graph
from oracles import naive_double_component, naive_undirect, random_apg

OMEGA = Apg(children={0: frozenset({0})}, root=0)


def membership_pair(u):
    sys = FlatSystem(
        atoms={"a": u.vn(0), "b": u.vn(1)},
        equations=[("x", frozenset({"y", "a"})), ("y", frozenset({"x", "b"}))],
    )
    sol = solve(u, sys)
    return sol["x"], sol["y"]


def test_closure_examples(u):
    empty = u.vn(0)
    assert closure(u, [empty]) == {empty}
    omega = u.canonicalize(OMEGA)
    assert closure(u, [omega]) == {omega}
    assert closure(u, [u.vn(2)]) == {u.vn(0), u.vn(1), u.vn(2)}
    assert closure(u, iter([u.vn(1), u.vn(1)])) == {u.vn(0), u.vn(1)}
    with pytest.raises(UnknownHandle, match="no such set handle: 999"):
        closure(u, [u.vn(1), 999, 1000])


def test_walk_steps_each_vertex_once(u, monkeypatch):
    seen = []

    def step(x):
        seen.append(x)
        return [x + 1] if x < 3 else []

    assert _walk([1, 1, 2], step) == {1, 2, 3}
    assert sorted(seen) == [1, 2, 3]
    # a repeated root is read once: vn(3) and its three elements
    three = u.vn(3)
    calls = []
    elements = Universe.elements
    monkeypatch.setattr(Universe, "elements", lambda self, x: calls.append(x) or elements(self, x))
    assert closure(u, [three, three]) == {u.vn(k) for k in range(4)}
    assert sorted(calls) == sorted(u.vn(k) for k in range(4))
    # a counting step sees every membership of a repeated root once
    x, y = membership_pair(u)
    g = undirect(u, [x, y, x], "multi")
    assert g == undirect(u, [x], "multi") == naive_undirect(u, closure(u, [x]), "multi")


def test_loopy_reduct_of_vn1(u):
    empty, one = u.vn(0), u.vn(1)
    g = undirect(u, closure(u, [one]), "loopy")
    assert isinstance(g, LoopyGraph)
    assert g.edges == {(min(empty, one), max(empty, one))}
    assert g.loops() == frozenset()


def test_double_only_reduct_of_quine_atom(u):
    omega = u.canonicalize(OMEGA)
    g = undirect(u, closure(u, [omega]), "double_only")
    assert g.edges == {(omega, omega)}
    assert g.loops() == {omega}


def test_multi_reduct_marks_double_edge(u):
    x, y = membership_pair(u)
    g = undirect(u, closure(u, [x]), "multi")
    assert isinstance(g, MultiGraph)
    key = (min(x, y), max(x, y))
    assert g.multiplicity[key] == 2
    singles = {k for k, m in g.multiplicity.items() if m == 1}
    assert all(k[0] != k[1] for k in singles)  # no loops in this closure


def random_pictures(seed=13, count=60):
    """A store of random pictures, some holding stored sets, and their roots."""
    rng = random.Random(seed)
    u = Universe()
    roots = []
    for _ in range(count):
        store = list(u.ids()) if rng.random() < 0.6 else ()
        roots.append(u.canonicalize(random_apg(rng, max_nodes=rng.randint(1, 14), store=store)))
    return u, roots, rng


def test_undirect_matches_pairwise_membership():
    u, roots, _rng = random_pictures()
    for root in roots:
        sl = closure(u, [root])
        for mode in MODES:
            assert undirect(u, sl, mode) == naive_undirect(u, sl, mode)
        with pytest.raises(ValidationError, match="unknown mode"):
            undirect(u, sl, "bogus")


def test_undirect_acts_on_the_closure_of_its_sets():
    # any subset of a closure that holds the root, repeats and order
    # aside, gives the reduct of that closure; any subset at all gives
    # the reduct of its own closure
    u, roots, rng = random_pictures()
    for root in roots:
        sl = sorted(closure(u, [root]))
        for _ in range(3):
            part = rng.sample(sl, rng.randint(0, len(sl)))
            held = part + [root] * rng.randint(1, 2)
            rng.shuffle(held)
            for mode in MODES:
                assert undirect(u, held, mode) == undirect(u, sl, mode)
                assert undirect(u, part, mode) == naive_undirect(u, closure(u, part), mode)


def test_has_loop_examples(u):
    omega = u.canonicalize(OMEGA)
    assert has_loop(u, omega)
    assert not has_loop(u, u.vn(0))
    assert not has_loop(u, u.vn(7))


def test_double_degree_examples(u):
    assert double_degree(u, u.vn(0)) == 0
    omega = u.canonicalize(OMEGA)
    # brute scan of the closure: the only incident link of the Quine
    # atom is its loop, which double_degree must not count
    s2 = closure(u, [omega])
    assert [y for y in s2
            if y != omega and u.is_member(omega, y) and u.is_member(y, omega)] == []
    assert double_degree(u, omega) == 0
    x, y = membership_pair(u)
    assert double_degree(u, x) == 1
    assert double_degree(u, y) == 1
    assert double_degree(u, u.vn(9)) == 0
    with pytest.raises(UnknownHandle):
        double_degree(u, 999)


def test_double_component_of_membership_pair(u):
    x, y = membership_pair(u)
    assert double_component(u, x) == {x, y}
    assert double_component(u, u.vn(0)) == {u.vn(0)}
    with pytest.raises(UnknownHandle):
        double_component(u, 999)


def test_double_component_matches_naive_oracle_on_random_pictures(u):
    rng = random.Random(31)
    roots = [u.canonicalize(random_apg(rng, max_nodes=rng.randint(2, 14)))
             for _ in range(80)]
    s = closure(u, roots)
    sizes, loops = set(), 0
    for x in sorted(s):
        expected = naive_double_component(u, s, x)
        assert double_component(u, x) == expected.vertices
        assert double_component_graph(u, [x]) == naive_double_component(
            u, closure(u, [x]), x)
        sizes.add(len(expected.vertices))
        loops += has_loop(u, x)
    # the pictures exercise loops and components of several sizes
    assert loops and len(sizes) >= 3, (loops, sizes)


def test_absoluteness_under_universe_growth(u):
    x, _ = membership_pair(u)
    s = closure(u, [x])
    before = undirect(u, s, "multi")
    u.vn(9)
    u.canonicalize(OMEGA)
    solve(u, FlatSystem(equations=[("z", frozenset({"z"}))]))
    after = undirect(u, s, "multi")
    assert before == after


def random_slice(u, rng, max_systems=4):
    seeds = []
    for _ in range(rng.randint(1, max_systems)):
        n = rng.randint(1, 5)
        names = [f"x{i}" for i in range(n)]
        eqs = []
        for name in names:
            rhs = set(rng.sample(names, k=rng.randint(0, min(3, n))))
            eqs.append((name, frozenset(rhs)))
        atoms = {}
        if rng.random() < 0.7:
            atoms["a"] = u.vn(rng.randint(0, 4))
            eqs[0] = (eqs[0][0], eqs[0][1] | {"a"})
        seeds.extend(solve(u, FlatSystem(atoms=atoms, equations=eqs)).values())
    seeds.append(u.vn(rng.randint(0, 3)))
    return closure(u, seeds)


def test_degree_law_truth_table_on_random_slices(u):
    rng = random.Random(23)
    for _ in range(40):
        s = random_slice(u, rng)
        if len(s) > 50:
            continue
        g = undirect(u, s, "multi")
        verts = sorted(s)
        expected = {}
        for i, x in enumerate(verts):
            if u.is_member(x, x):
                expected[(x, x)] = 1
            for y in verts[i + 1:]:
                xy, yx = u.is_member(x, y), u.is_member(y, x)
                if xy and yx:
                    expected[(x, y)] = 2
                elif xy or yx:
                    expected[(x, y)] = 1
        assert g.multiplicity == expected


def test_double_edge_neighbors_are_members(u):
    rng = random.Random(29)
    for _ in range(25):
        s = random_slice(u, rng)
        g = undirect(u, s, "double_only")
        for a, b in g.plain_edges():
            assert u.is_member(a, b) and u.is_member(b, a)
            assert a in u.elements(b) and b in u.elements(a)
