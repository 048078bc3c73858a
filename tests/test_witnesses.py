import random

import pytest

from hyperset import cli, reducts, witnesses
from hyperset.errors import ContractViolation, PreconditionError, UnknownHandle
from hyperset.flat import FlatSystem, solve
from hyperset.reducts import (
    LoopyGraph,
    closure,
    double_component,
    double_degree,
    has_loop,
    undirect,
)
from hyperset.universe import Apg
from hyperset.witnesses import (
    PatternGraph,
    arp_witness_loopy,
    arp_witness_simple,
    component,
    double_component_graph,
    loopy_iso,
    star,
    verify_loopy_witness,
    verify_simple_witness,
)
from oracles import naive_double_component

OMEGA = Apg(children={0: frozenset({0})}, root=0)


def adjacent(u, a, b):
    return u.is_member(a, b) or u.is_member(b, a)


# -- simple (well-founded) witnesses ----------------------------------


def test_simple_witness_with_empty_v(u):
    z = arp_witness_simple(u, [u.vn(0)], [])
    # z = {vn0} union {make_set([])} collapses to the singleton {0}
    assert u.elements(z) == (u.vn(0),)
    assert adjacent(u, z, u.vn(0))


def test_simple_witness_with_empty_u(u):
    one = u.vn(1)
    z = arp_witness_simple(u, [], [one])
    assert u.elements(z) == (u.make_set([one]),)
    assert not adjacent(u, z, one)


def test_simple_witness_mixed(u):
    z = arp_witness_simple(u, [u.vn(3), u.vn(5)], [u.vn(4)])
    assert adjacent(u, z, u.vn(3))
    assert adjacent(u, z, u.vn(5))
    assert not adjacent(u, z, u.vn(4))


def test_simple_witness_preconditions(u):
    omega = u.canonicalize(OMEGA)
    with pytest.raises(PreconditionError):
        arp_witness_simple(u, [omega], [])
    with pytest.raises(PreconditionError):
        arp_witness_simple(u, [u.vn(1)], [u.vn(1)])


def test_simple_witness_never_loops_or_doubles(u):
    rng = random.Random(31)
    pool = [u.vn(i) for i in range(8)]
    pool.append(u.make_set([u.vn(2), u.vn(4)]))
    pool.append(u.make_set([u.make_set([u.vn(1)])]))
    for _ in range(100):
        rng.shuffle(pool)
        cut = rng.randint(0, 4)
        us, vs = pool[:cut], pool[cut:cut + rng.randint(0, 4)]
        report = verify_simple_witness(u, us, vs)
        assert report.ok
        z = report.witnesses["z"]
        assert not has_loop(u, z)
        assert double_degree(u, z) == 0


# -- loopy witnesses ----------------------------------------------------


def test_loopy_witness_boundary(u):
    z1, z2, x = arp_witness_loopy(u, [], [])
    assert len(u.elements(x)) == 3
    assert u.elements(z1) == (x,)
    assert not has_loop(u, z1)
    assert has_loop(u, z2)
    assert set(u.elements(z2)) == {z2, x}


def test_loopy_witness_over_hypersets(u):
    omega = u.canonicalize(OMEGA)
    z1, z2, x = arp_witness_loopy(u, [omega], [u.vn(0)])
    for z in (z1, z2):
        assert adjacent(u, z, omega)
        assert not adjacent(u, z, u.vn(0))
    assert not has_loop(u, z1)
    assert has_loop(u, z2)
    assert z1 != z2 and z1 != x and z2 != x


def test_loopy_witness_avoids_forbidden_set(u):
    us = [u.vn(1)]
    vs = [u.make_set([u.vn(2)])]
    report = verify_loopy_witness(u, us, vs)
    x = report.witnesses["x"]
    forbidden = set(us) | set(vs)
    for s in us + vs:
        forbidden.update(u.elements(s))
    for v in vs:
        for w in u.elements(v):
            forbidden.update(u.elements(w))
    assert x not in forbidden
    assert report.ok


def test_loopy_witness_requires_disjoint_inputs(u):
    with pytest.raises(PreconditionError):
        arp_witness_loopy(u, [u.vn(1)], [u.vn(1)])


def test_loopy_witness_random_mixed_pool(u):
    rng = random.Random(37)
    omega = u.canonicalize(OMEGA)
    pool = [u.vn(i) for i in range(6)]
    pool += [omega, u.make_set([omega, u.vn(1)])]
    y, xs = star(u, 2, atom_seed=20)
    pool += [y] + xs
    sol = solve(u, FlatSystem(atoms={"a": u.vn(7)}, equations=[
        ("p", frozenset({"q", "a"})), ("q", frozenset({"p"}))]))
    pool += list(sol.values())
    for _ in range(60):
        us = rng.sample(pool, rng.randint(0, 4))
        rest = [s for s in pool if s not in us]
        vs = rng.sample(rest, rng.randint(0, 4))
        report = verify_loopy_witness(u, us, vs)
        assert report.ok, report.failed()


# -- stars ---------------------------------------------------------------


def test_star_zero_is_empty_set(u):
    y, xs = star(u, 0)
    assert y == u.vn(0)
    assert xs == []
    assert double_degree(u, y) == 0


def test_star_one_matches_equations(u):
    y, xs = star(u, 1)
    assert set(u.elements(y)) == set(xs)
    assert set(u.elements(xs[0])) == {y, u.vn(0)}
    assert double_degree(u, y) == 1


def test_star_five_exact_and_no_extra_doubles(u):
    y, xs = star(u, 5)
    assert double_degree(u, y) == 5
    assert not has_loop(u, y)
    # brute scan: the only mutual-membership partners of y are the x_i
    partners = [z for z in closure(u, [y])
                if z != y and u.is_member(y, z) and u.is_member(z, y)]
    assert sorted(partners) == sorted(xs)


def test_star_exactness_sweep(u):
    for n in range(9):
        y, xs = star(u, n, atom_seed=3)
        assert double_degree(u, y) == n
        assert not has_loop(u, y)
        assert len(set(xs)) == n


# -- components ----------------------------------------------------------


def four_cycle_with_loop():
    return PatternGraph(size=4,
                        edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
                        loops=frozenset({0}))


def test_component_four_cycle_with_loop(u):
    pat = four_cycle_with_loop()
    ys = component(u, pat, atom_seed=0)
    assert len(set(ys)) == 4
    # the built double-edge component is isomorphic to the pattern
    built = undirect(u, ys, "double_only")
    induced = LoopyGraph(vertices=frozenset(ys),
                         edges=frozenset(e for e in built.edges
                                         if e[0] in ys and e[1] in ys))
    iso = loopy_iso(induced, pat.to_loopy_graph())
    assert iso is not None
    assert has_loop(u, ys[0])
    assert not any(has_loop(u, y) for y in ys[1:])


def test_component_single_looped_vertex(u):
    pat = PatternGraph(size=1, edges=frozenset(), loops=frozenset({0}))
    (y0,) = component(u, pat, atom_seed=5)
    assert has_loop(u, y0)
    assert set(u.elements(y0)) == {u.vn(5), y0}


def test_component_single_plain_vertex(u):
    pat = PatternGraph(size=1, edges=frozenset(), loops=frozenset())
    (y0,) = component(u, pat, atom_seed=2)
    assert not has_loop(u, y0)
    assert u.elements(y0) == (u.vn(2),)


def test_component_two_seeds_disjoint(u):
    tri = PatternGraph(size=3, edges=frozenset({(0, 1), (1, 2), (0, 2)}),
                       loops=frozenset())
    first = component(u, tri, atom_seed=0)
    second = component(u, tri, atom_seed=50)
    assert set(first).isdisjoint(second)
    built = undirect(u, first, "double_only")
    g1 = LoopyGraph(vertices=frozenset(first),
                    edges=frozenset(e for e in built.edges
                                    if e[0] in first and e[1] in first))
    assert loopy_iso(g1, tri.to_loopy_graph()) is not None


def test_component_rejects_disconnected_pattern(u):
    bad = PatternGraph(size=2, edges=frozenset(), loops=frozenset({0, 1}))
    with pytest.raises(PreconditionError):
        component(u, bad)


def test_component_graphs_match_naive_oracle(u):
    built = [component(u, four_cycle_with_loop(), atom_seed=3)]
    tri = PatternGraph(size=3, edges=frozenset({(0, 1), (1, 2), (0, 2)}),
                       loops=frozenset({0, 2}))
    built.append(component(u, tri, atom_seed=40))
    path = PatternGraph(size=5, edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}),
                        loops=frozenset({4}))
    built.append(component(u, path, atom_seed=7))
    y, xs = star(u, 4, atom_seed=11)
    built.append([y] + xs)
    s = closure(u, [v for ys in built for v in ys])
    assert any(has_loop(u, v) for v in s)
    for x in sorted(s):
        expected = naive_double_component(u, s, x)
        assert double_component(u, x) == expected.vertices
        assert double_component_graph(u, [x]) == naive_double_component(
            u, closure(u, [x]), x)
    for ys in built:
        assert double_component_graph(u, ys).vertices == set(ys)


def test_double_edge_walk_builds_no_reduct(u, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("whole-closure reduct built")

    monkeypatch.setattr(reducts, "undirect", refuse)
    monkeypatch.setattr(witnesses, "undirect", refuse)
    y, xs = star(u, 3, atom_seed=2)
    ys = component(u, four_cycle_with_loop(), atom_seed=9)
    assert double_component(u, y) == {y, *xs}
    graph = double_component_graph(u, ys)
    assert graph.vertices == set(ys) and graph.loops() == {ys[0]}


def test_double_edge_constructions_build_no_closure(u, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("whole closure built or scanned")

    # undirect walks the closure of the sets it is given
    for module in (reducts, witnesses, cli):
        monkeypatch.setattr(module, "closure", refuse)
        monkeypatch.setattr(module, "undirect", refuse)
    y, xs = star(u, 3, atom_seed=2)
    ys = component(u, four_cycle_with_loop(), atom_seed=9)
    assert double_component_graph(u, [y]).vertices == {y, *xs}
    assert double_component_graph(u, ys).vertices == set(ys)
    assert cli.main(["census", "--max-n", "4", "--seed", "200"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"census n={n} double_degree={n} loop=false" for n in range(5)] + [
        "census distinct=5"]
    assert cli.main(["game", "--rounds", "4", "--left", "loopy:1", "--right", "loopy:2"]) == 0
    assert capsys.readouterr().out.endswith("game ok size=4\n")


def test_double_component_graph_rejects_bad_members(u):
    y, _ = star(u, 2)
    with pytest.raises(UnknownHandle):
        double_component_graph(u, [y, 999])
    with pytest.raises(UnknownHandle):
        double_component_graph(u, [999, y])


def test_constructions_reject_negative_atom_seed(u):
    with pytest.raises(PreconditionError, match="atom_seed"):
        star(u, 2, atom_seed=-5)
    with pytest.raises(PreconditionError, match="atom_seed"):
        component(u, four_cycle_with_loop(), atom_seed=-1)


# -- isomorphism oracle ----------------------------------------------------


def lg(vertices, edges):
    return LoopyGraph(vertices=frozenset(vertices),
                      edges=frozenset(tuple(sorted(e)) for e in edges))


def test_iso_single_looped_vertices():
    a = lg([0], [(0, 0)])
    b = lg([7], [(7, 7)])
    assert loopy_iso(a, b) == {0: 7}


def test_iso_relabeled_cycle_found():
    a = lg([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 0)])
    b = lg([10, 11, 12, 13], [(11, 13), (10, 11), (10, 12), (12, 13), (11, 11)])
    iso = loopy_iso(a, b)
    assert iso is not None
    for x in a.vertices:
        for y in a.vertices:
            assert (tuple(sorted((x, y))) in a.edges) == \
                   (tuple(sorted((iso[x], iso[y]))) in b.edges)


def test_iso_distinguishes_cycle_from_path():
    cyc = lg([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = lg([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    assert loopy_iso(cyc, path) is None


def test_iso_loop_placement_matters():
    a = lg([0, 1], [(0, 1), (0, 0)])
    b = lg([0, 1], [(0, 1)])
    assert loopy_iso(a, b) is None


def test_iso_size_cap():
    big = lg(range(11), [(i, i + 1) for i in range(10)])
    with pytest.raises(PreconditionError):
        loopy_iso(big, big)
