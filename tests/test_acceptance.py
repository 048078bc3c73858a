"""Acceptance sweep: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete; every criterion states its own tolerance and budget.
"""

import random
import time
from itertools import combinations

from hyperset.cli import main as cli_main
from hyperset.flat import FlatSystem, solve
from hyperset.rado import (
    ackermann_code,
    back_and_forth,
    bit_adjacent,
    bit_graph_oracle,
    coding_correspondence,
    hf_membership_oracle,
    hyperset_loopy_oracle,
)
from hyperset.errors import DomainError
from hyperset.reducts import double_degree, has_loop
from hyperset.universe import Universe
from hyperset.witnesses import (
    PatternGraph,
    component,
    double_component_graph,
    loopy_iso,
    star,
    verify_loopy_witness,
)

from oracles import apgs_bisimilar, bisimilar_variant, random_apg
from test_flat import random_system, renamed_permuted
from test_cli import run as run_cli


def report(num, label, elapsed, budget, detail=""):
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s (budget {budget}s)"
    suffix = f" [{detail}]" if detail else ""
    print(f"[PASS] criterion {num}: {label} ({elapsed:.2f}s < {budget}s){suffix}")


def test_criterion_1_solution_lemma_determinism():
    u = Universe()
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        sys_a = random_system(rng, u)
        sys_b, mapping = renamed_permuted(rng, sys_a)
        sol_a = solve(u, sys_a)
        sol_b = solve(u, sys_b)
        for name, s in sol_a.items():
            assert s == sol_b[mapping[name]]
    report(1, "solution-lemma determinism", time.perf_counter() - t0, 10,
           "1000 systems, permuted+renamed twins")


def test_criterion_2_bisimulation_oracle_equivalence():
    u = Universe()
    rng = random.Random(202)
    t0 = time.perf_counter()
    agree = 0
    for trial in range(1000):
        g1 = random_apg(rng, max_nodes=12)
        g2 = bisimilar_variant(rng, g1) if trial % 2 else random_apg(rng, max_nodes=12)
        expected = apgs_bisimilar(u, g1, g2)
        got = u.canonicalize(g1) == u.canonicalize(g2)
        assert got == expected, f"trial {trial}"
        agree += 1
    report(2, "canonicalize equals the naive fixpoint oracle",
           time.perf_counter() - t0, 30, f"{agree}/1000 pairs, store={len(u)} sets")


def test_criterion_3_membership_equals_bit_adjacency():
    u = Universe()
    t0 = time.perf_counter()
    nsets, pairs, mismatches = coding_correspondence(u, 1000)
    assert nsets == 1001
    assert mismatches == []
    report(3, "membership adjacency is BIT adjacency on codes 0..1000",
           time.perf_counter() - t0, 10, f"{pairs} pairs, 0 mismatches")


def test_criterion_4_loopy_arp_witnesses():
    u = Universe()
    rng = random.Random(404)
    pool = [u.vn(i) for i in range(6)]
    omega = solve(u, FlatSystem(equations=[("w", frozenset({"w"}))]))["w"]
    pool += [omega, u.make_set([omega, u.vn(1)])]
    pair = solve(u, FlatSystem(
        atoms={"a": u.vn(0), "b": u.vn(1)},
        equations=[("x", frozenset({"y", "a"})), ("y", frozenset({"x", "b"}))]))
    pool += list(pair.values())
    y, xs = star(u, 3, atom_seed=30)
    pool += [y] + xs
    tri = PatternGraph(size=3, edges=frozenset({(0, 1), (1, 2), (0, 2)}),
                       loops=frozenset({2}))
    pool += component(u, tri, atom_seed=40)

    t0 = time.perf_counter()
    for trial in range(200):
        us = rng.sample(pool, rng.randint(0, 4))
        rest = [s for s in pool if s not in us]
        vs = rng.sample(rest, rng.randint(0, 4))
        rep = verify_loopy_witness(u, us, vs)
        assert rep.ok, f"trial {trial}: {rep.failed()}"
    report(4, "loopy extension witnesses verified", time.perf_counter() - t0, 30,
           "200 random disjoint (U, V), zero failures")


def test_criterion_5_star_census():
    u = Universe()
    t0 = time.perf_counter()
    degrees = set()
    for n in range(21):
        y, _xs = star(u, n)
        assert double_degree(u, y) == n
        assert not has_loop(u, y)
        degrees.add(n)
    assert len(degrees) >= 21
    report(5, "stars realize every double-degree 0..20",
           time.perf_counter() - t0, 5, f"{len(degrees)} distinct degrees")


def _connected_loopy_patterns(max_k):
    for k in range(1, max_k + 1):
        slots = list(combinations(range(k), 2))
        for mask in range(2 ** len(slots)):
            edges = frozenset(e for i, e in enumerate(slots) if mask >> i & 1)
            if not PatternGraph(size=k, edges=edges, loops=frozenset()).connected():
                continue
            for loop_mask in range(2 ** k):
                loops = frozenset(i for i in range(k) if loop_mask >> i & 1)
                yield PatternGraph(size=k, edges=edges, loops=loops)


def _random_connected_pattern(rng, k):
    edges = set()
    for i in range(1, k):
        j = rng.randrange(i)
        edges.add((j, i))
    for _ in range(rng.randint(0, k)):
        i, j = rng.sample(range(k), 2)
        edges.add((min(i, j), max(i, j)))
    loops = frozenset(i for i in range(k) if rng.random() < 0.4)
    return PatternGraph(size=k, edges=frozenset(edges), loops=loops)


def test_criterion_6_components_realize_patterns():
    u = Universe()
    rng = random.Random(606)
    patterns = list(_connected_loopy_patterns(4))
    patterns += [_random_connected_pattern(rng, 5) for _ in range(20)]
    t0 = time.perf_counter()
    for pat in patterns:
        first = component(u, pat, atom_seed=0)   # self-verifies exactness
        second = component(u, pat, atom_seed=100)
        assert set(first).isdisjoint(second), "atom ranges must give disjoint copies"
        graph = double_component_graph(u, first)
        assert loopy_iso(graph, pat.to_loopy_graph()) is not None
    report(6, "double-edge components realize every small pattern",
           time.perf_counter() - t0, 60,
           f"{len(patterns)} patterns x 2 atom seeds, store={len(u)} sets")


def test_criterion_7_back_and_forth_games():
    t0 = time.perf_counter()
    u = Universe()
    left, right = bit_graph_oracle(), hf_membership_oracle(u)
    iso = back_and_forth(left, right, 10)
    assert len(iso) == 10
    assert iso.check(left, right)
    codes = {}
    for a, b in iso.pairs:
        try:
            codes[a] = ackermann_code(u, b)
        except DomainError:
            continue
    for a1, c1 in codes.items():
        for a2, c2 in codes.items():
            if a1 < a2:
                assert bit_adjacent(a1, a2) == bit_adjacent(c1, c2)

    ua, ub = Universe(), Universe()
    oa = hyperset_loopy_oracle(ua, seed=11)
    ob = hyperset_loopy_oracle(ub, seed=12)
    loopy_iso_game = back_and_forth(oa, ob, 8)
    assert len(loopy_iso_game) == 8
    assert loopy_iso_game.check(oa, ob)
    report(7, "back-and-forth games verified", time.perf_counter() - t0, 30,
           "10-round BIT/HF + 8-round loopy, brute re-verified")


PAIR_TEXT = "atom a = 0\natom b = 1\nx = {y,a}\ny = {x,b}\n"
FOUR_CYCLE_SYSTEM = (
    "atom a0 = 0\natom a1 = 1\natom a2 = 2\natom a3 = 3\n"
    "y0 = {a0,y0,y1,y3}\n"
    "y1 = {a1,y0,y2}\n"
    "y2 = {a2,y1,y3}\n"
    "y3 = {a3,y0,y2}\n"
)


def _random_system_text(rng):
    n = rng.randint(1, 6)
    names = [f"x{i}" for i in range(n)]
    lines = []
    atom_names = []
    for i in range(rng.randint(0, 3)):
        name = f"a{i}"
        atom_names.append(name)
        if rng.random() < 0.6:
            lines.append(f"atom {name} = {rng.randint(0, 6)}")
        else:
            inner = ",".join(str(rng.randint(0, 3))
                             for _ in range(rng.randint(0, 3)))
            lines.append(f"atom {name} = {{{inner}}}")
    for i, name in enumerate(names):
        refs = rng.sample(names, k=rng.randint(0, min(3, n)))
        refs += rng.sample(atom_names, k=rng.randint(0, len(atom_names)))
        lines.append(f"{name} = {{{','.join(sorted(set(refs)))}}}")
    return "\n".join(lines) + "\n"


def test_criterion_8_cli_round_trips(tmp_path, capsys):
    rng = random.Random(808)
    corpus = [PAIR_TEXT, FOUR_CYCLE_SYSTEM]
    corpus += [_random_system_text(rng) for _ in range(48)]
    t0 = time.perf_counter()
    for idx, text in enumerate(corpus):
        src = tmp_path / f"sys{idx}.hs"
        src.write_text(text, encoding="utf-8")
        code, gen1, err = run_cli(capsys, "solve", str(src))
        assert code == 0, f"corpus {idx}: {err}"
        mid = tmp_path / f"sys{idx}.gen1.hs"
        mid.write_text(gen1, encoding="utf-8")
        code, gen2, err = run_cli(capsys, "solve", str(mid))
        assert code == 0, f"corpus {idx} gen2: {err}"
        assert gen1.encode() == gen2.encode(), f"corpus {idx} not a fixpoint"
    report(8, "parse/solve/serialize round trips are byte-stable",
           time.perf_counter() - t0, 30, f"{len(corpus)} files")


def main():
    import pytest
    import sys as _sys
    _sys.exit(pytest.main([__file__, "-v", "-s"]))


if __name__ == "__main__":
    main()
