import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperset import universe
from hyperset.errors import MalformedGraph, UniverseFull, UnknownHandle, ValidationError
from hyperset.flat import FlatSystem, solve
from hyperset.reducts import closure
from hyperset.serialize import structural_ranks
from hyperset.sysfile import parse_set_literal, parse_system
from hyperset.universe import Apg, Universe, refine_ranks

from oracles import (
    apgs_bisimilar,
    bisimilar_variant,
    dfs_has_reachable_cycle,
    distinct_pairs_bisimilar,
    naive_numerals,
    naive_refine_ranks,
    naive_structural_ranks,
    picture_of,
    random_apg,
)

EMPTY = Apg(children={0: frozenset()}, root=0)
OMEGA = Apg(children={0: frozenset({0})}, root=0)
TWO_CYCLE = Apg(children={0: frozenset({1}), 1: frozenset({0})}, root=0)


def test_empty_picture_is_empty_set(u):
    s = u.canonicalize(EMPTY)
    assert u.elements(s) == ()


def test_self_loop_is_quine_atom(u):
    omega = u.canonicalize(OMEGA)
    assert u.elements(omega) == (omega,)
    assert u.is_member(omega, omega)


def test_two_cycle_collapses_to_quine_atom(u):
    omega = u.canonicalize(OMEGA)
    assert apgs_bisimilar(u, OMEGA, TWO_CYCLE)
    assert u.canonicalize(TWO_CYCLE) == omega


def test_canonicalize_is_idempotent_on_repeats(u):
    a = u.canonicalize(TWO_CYCLE)
    b = u.canonicalize(TWO_CYCLE)
    assert a == b


def test_elements_examples(u):
    empty = u.make_set([])
    assert u.elements(empty) == ()
    omega = u.canonicalize(OMEGA)
    assert u.elements(omega) == (omega,)
    two = u.vn(2)
    assert set(u.elements(two)) == {u.vn(0), u.vn(1)}


def test_is_member_examples(u):
    empty = u.make_set([])
    singleton = u.make_set([empty])
    omega = u.canonicalize(OMEGA)
    assert u.is_member(empty, singleton)
    assert u.is_member(omega, omega)
    assert not u.is_member(singleton, empty)


def test_von_neumann_naturals(u):
    assert u.vn(0) == u.make_set([])
    assert u.vn(1) == u.make_set([u.vn(0)])
    assert len(u.elements(u.vn(3))) == 3
    assert u.is_well_founded(u.vn(5))


def make_set_numerals(u, n):
    """vn(0..n) built the general way, each one through make_set."""
    nums = []
    while len(nums) <= n:
        nums.append(u.make_set(nums))
    return nums


def no_prefix(u):
    pass


def literal_prefix(u):
    parse_set_literal(u, "{{{}}, {{}, {{}}}, {{}, {{}}, {{}, {{}}}}}")


def solved_prefix(u):
    u.canonicalize(OMEGA)
    solve(u, FlatSystem(equations=[
        ("n0", frozenset()), ("n1", frozenset({"n0"})),
        ("n2", frozenset({"n0", "n1"})), ("x", frozenset({"x", "n2"}))]))


def pictured_prefix(u):
    children = {k: frozenset(range(k)) for k in range(6)}
    children[6] = frozenset({6, 3})
    u.canonicalize_all(children)


@pytest.mark.parametrize("prefix", [no_prefix, literal_prefix, solved_prefix,
                                    pictured_prefix])
def test_vn_matches_make_set_numerals(prefix):
    new, old = Universe(), Universe()
    prefix(new)
    prefix(old)
    expected = make_set_numerals(old, 300)
    assert new.vn(300) == expected[300]
    assert [new.vn(k) for k in range(301)] == expected
    assert [new.elements(s) for s in expected] == [old.elements(s) for s in expected]
    assert all(new.is_well_founded(s) for s in expected)
    assert len(new) == len(old)


def build_numerals(u, rng, route, k):
    """vn(0..k) built one of the ways other than ``vn``."""
    if route == "make_set":
        make_set_numerals(u, k)
    elif route == "literal":
        parse_set_literal(u, "{" + ",".join(map(str, range(k))) + "}")  # vn(k) via make_set
        if k < 7:  # spelled out: vn(j+1) is vn(j) with vn(j) added
            text = "{}"
            for _ in range(k):
                text = text[:-1] + ("," if text != "{}" else "") + text + "}"
            parse_set_literal(u, text)
    elif route == "solve":
        names = [f"n{j}" for j in range(k + 1)]
        eqs = [(names[j], frozenset(["z", *names[1:j]])) for j in range(1, k + 1)]
        rng.shuffle(eqs)
        top = names[-1] if k else "z"
        solve(u, FlatSystem(atoms={"z": u.make_set([])},
                            equations=eqs + [("w", frozenset({"w", top}))]))
    else:  # canonicalize_all, labels shuffled, low numerals as store refs
        labels = rng.sample(range(100, 200), k + 1)
        low = rng.randint(0, min(k, len(u.numerals())))
        children = {labels[j]: frozenset(labels[low:j]) for j in range(k + 1)}
        refs = {labels[j]: frozenset(u.numerals()[:min(j, low)]) for j in range(k + 1)}
        u.canonicalize_all(children, refs)


def test_numeral_cache_lists_every_stored_numeral():
    for seed in range(24):
        rng = random.Random(seed)
        u = Universe()
        builds = [(route, rng.randint(0, 25)) for route in
                  ("make_set", "literal", "solve", "pictured") for _ in range(3)]
        rng.shuffle(builds)
        for route, k in builds:
            build_numerals(u, rng, route, k)
            u.make_set([u.make_set(rng.sample(range(len(u)), 2))])  # numerals by chance only
            decoded = naive_numerals(u)
            assert list(u.numerals()) == sorted(decoded, key=decoded.get)
        for s in u.ids():
            assert u.numeral_of(s) == decoded.get(s)
        size, cached = len(u), u.numerals()
        assert tuple(u.vn(n) for n in range(len(cached))) == cached
        assert len(u) == size and u.numerals() == cached


def test_make_set_around_quine_atom(u):
    # The singleton of the Quine atom is the Quine atom again: x = {x}
    # is its defining equation, and the naive oracle agrees.
    omega = u.canonicalize(OMEGA)
    singleton_picture = Apg(children={0: frozenset({1}), 1: frozenset({1})}, root=0)
    assert apgs_bisimilar(u, OMEGA, singleton_picture)
    assert u.make_set([omega]) == omega
    # adding any second element does give a new set
    padded = u.make_set([omega, u.vn(0)])
    assert padded != omega
    assert set(u.elements(padded)) == {omega, u.vn(0)}


def test_union_of_von_neumann_order(u):
    assert u.union_of([u.vn(2), u.vn(3)]) == u.vn(3)
    assert u.union_of([]) == u.vn(0)


def test_well_foundedness_flags(u):
    omega = u.canonicalize(OMEGA)
    assert not u.is_well_founded(omega)
    mixed = u.make_set([omega, u.vn(1)])
    assert not u.is_well_founded(mixed)
    assert u.is_well_founded(u.vn(5))


def test_wf_flag_matches_dfs_oracle_on_store(u):
    u.canonicalize(OMEGA)
    u.vn(4)
    u.canonicalize(TWO_CYCLE)
    u.make_set([u.canonicalize(OMEGA), u.vn(2)])
    for s in u.ids():
        assert u.is_well_founded(s) == (not dfs_has_reachable_cycle(u, s))


def test_find_set_probes_without_growing(u):
    two = u.vn(2)
    size = len(u)
    assert u.find_set([u.vn(1), u.vn(0)]) == two
    assert u.find_set([two]) is None
    assert u.find_set([]) == u.vn(0)
    assert len(u) == size
    with pytest.raises(UnknownHandle):
        u.find_set([size + 5])


def test_store_ref_into_quine_atom(u):
    omega = u.canonicalize(OMEGA)
    # x = {x, Ω} forces x = Ω
    assert u.canonicalize_all({0: frozenset({0})}, {0: frozenset({omega})}) == {0: omega}


def test_store_ref_into_stored_two_cycle(u):
    a, b = u.vn(0), u.vn(1)
    stored = u.canonicalize_all({0: frozenset({1}), 1: frozenset({0})},
                                {0: frozenset({a}), 1: frozenset({b})})
    x, y = stored[0], stored[1]
    assert x != y
    size = len(u)
    # {a, y} is x, described through a reference to the stored y
    assert u.canonicalize_all({0: frozenset()}, {0: frozenset({a, y})}) == {0: x}
    # p0 = {p1, a}, p1 = {p0, b, x}: a cycle whose only solution is p0 = x
    again = u.canonicalize_all({0: frozenset({1}), 1: frozenset({0})},
                               {0: frozenset({a}), 1: frozenset({b, x})})
    assert again == stored
    assert len(u) == size


def test_store_ref_folds_into_a_cycle_its_colors_miss(u):
    # x = {x, Ω} is Ω, though x and Ω get different colors: x colored
    # with the Ω it names as a node gets Ω's, with a lookup before it
    u.canonicalize_all({0: frozenset({1}), 1: frozenset({0})},
                       {0: frozenset({u.vn(0)}), 1: frozenset({u.vn(1)})})
    omega = u.canonicalize(OMEGA)
    size = len(u)
    assert u.canonicalize_all({0: frozenset({0})}, {0: frozenset({omega})}) == {0: omega}
    assert len(u) == size


def test_re_encoded_cycle_is_refined_with_whole_stored_cycles_only(monkeypatch):
    # 200 five-node cycles, each holding the previous cycle and its own
    # numeral: the top one, encoded again, is refined with its stored
    # copy alone, 10 nodes, not with the cycle it names or with all
    # 1,000 stored cyclic sets below it
    u = Universe()
    ring = {i: frozenset({(i + 1) % 5}) for i in range(5)}
    below = frozenset()
    for k in range(200):
        refs = {0: below | {u.vn(k)}}
        top = u.canonicalize_all(ring, refs)
        below = frozenset({top[0]})
    size = len(u)
    sizes = counted_refinements(monkeypatch)
    assert u.canonicalize_all(ring, refs) == top
    assert len(u) == size
    assert sizes == [10]


def counted_refinements(monkeypatch) -> list:
    """The node count of every ``refine_ranks`` call from now on."""
    sizes = []
    kernel = universe.refine_ranks

    def counted(nodes, kids, key, chain=()):
        sizes.append(len(nodes))
        return kernel(nodes, kids, key, chain)

    monkeypatch.setattr(universe, "refine_ranks", counted)
    return sizes


def test_pieces_naming_a_long_stored_cycle_refine_only_themselves(monkeypatch):
    # c_j = {c_j+1, vn(j)} on 300 nodes, then x_i = {x_i, c_0, vn(i)}:
    # no x_i is a set of the cycle, so none is refined with it
    u = Universe()
    n = 300
    ring = {j: frozenset({(j + 1) % n}) for j in range(n)}
    cycle = u.canonicalize_all(ring, {j: frozenset({u.vn(j)}) for j in range(n)})
    sizes = counted_refinements(monkeypatch)
    for i in range(50):
        x = u.canonicalize_all({0: frozenset({0})},
                               {0: frozenset({cycle[0], u.vn(i)})})[0]
        assert x == len(u) - 1
    assert sizes == [1] * 50


@pytest.mark.parametrize("named", [[0], [7], [39], [3, 25], list(range(40))])
def test_re_encoding_that_names_its_own_cycle_folds_into_it(named):
    # c_j = {c_j+1, vn(j)} on 40 nodes, more than COLOR_ROUNDS, encoded
    # again with y_j also naming c_j+1 for j in ``named``: a handle far
    # along the cycle still finds it, and y_j naming c_j+2 instead does not
    u = Universe()
    n = 40
    ring = {j: frozenset({(j + 1) % n}) for j in range(n)}
    atoms = {j: {u.vn(j)} for j in range(n)}
    cycle = u.canonicalize_all(ring, {j: frozenset(atoms[j]) for j in range(n)})
    size = len(u)
    refs = {j: frozenset(atoms[j] | ({cycle[(j + 1) % n]} if j in named else set()))
            for j in range(n)}
    assert u.canonicalize_all(ring, refs) == cycle
    assert len(u) == size
    refs = {j: frozenset(atoms[j] | ({cycle[(j + 2) % n]} if j in named else set()))
            for j in range(n)}
    again = u.canonicalize_all(ring, refs)
    assert set(again.values()).isdisjoint(cycle.values())
    assert distinct_pairs_bisimilar(u) == []


def test_small_piece_naming_a_long_path_of_its_cycle_folds_into_it(u):
    # t = {t, p0, vn(0)} and the path p0 -> ... -> p14 -> t are one stored
    # cycle; y = {y, p0, vn(0)} is t, found only with p0's colors, which
    # read COLOR_ROUNDS - 1 steps down the path
    m = 15
    children = {0: frozenset({0, 1}), m: frozenset({0})}
    children.update({k: frozenset({k + 1}) for k in range(1, m)})
    refs = {0: frozenset({u.vn(0)})}
    t = u.canonicalize_all(children, refs)
    size = len(u)
    assert u.canonicalize_all({0: frozenset({0})}, {0: refs[0] | {t[1]}}) == {0: t[0]}
    assert len(u) == size


def test_re_encoding_that_names_two_cycles_folds_into_the_newer(monkeypatch):
    # b_j = {b_j+1, a_0, vn(j)} holds the cycle a; b encoded again with
    # b_0 also naming b_1 is b, refined with b alone
    u = Universe()
    ring = {j: frozenset({(j + 1) % 5}) for j in range(5)}
    a = u.canonicalize_all(ring, {j: frozenset({u.vn(j)}) for j in range(5)})
    b_refs = {j: frozenset({a[0], u.vn(j)}) for j in range(5)}
    b = u.canonicalize_all(ring, b_refs)
    size = len(u)
    sizes = counted_refinements(monkeypatch)
    assert u.canonicalize_all(ring, {**b_refs, 0: b_refs[0] | {b[1]}}) == b
    assert len(u) == size
    assert sizes == [10]


def unrolled_copy(system, offset):
    """Two interleaved copies of ``system``'s picture, on nodes from
    ``offset`` on: each copy points into the other, so the result is
    bisimilar to the original, node for node."""
    names = system.indeterminates()
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    children, refs = {}, {}
    for name, rhs in system.equations:
        for half in (0, 1):
            node = offset + half * n + index[name]
            other = offset + (1 - half) * n
            children[node] = frozenset(other + index[r] for r in rhs if r in index)
            refs[node] = frozenset(system.atoms[r] for r in rhs if r not in index)
    return children, refs


def test_lone_cycle_is_colored_only_when_a_lookup_needs_it(monkeypatch):
    u = Universe()
    text = (Path(__file__).parent / "golden" / "cycle40.hs").read_text()
    system = parse_system(u, text)
    colorings = []
    recurrence = Universe._color_rounds

    def counted(self, nodes, internal, external):
        colorings.append(len(nodes))
        return recurrence(self, nodes, internal, external)

    monkeypatch.setattr(Universe, "_color_rounds", counted)
    first = solve(u, system)
    assert colorings == []

    names = system.indeterminates()
    children, refs = unrolled_copy(system, 0)
    again = u.canonicalize_all(children, refs)
    assert colorings, "a store with a cyclic set must be looked up"
    for i, name in enumerate(names):
        assert again[i] == again[i + len(names)] == first[name]

    atom = u.vn(9)
    ring = {0: frozenset({1}), 1: frozenset({2}), 2: frozenset({0})}
    ring_refs = {0: frozenset({atom}), 1: frozenset(), 2: frozenset()}
    children, refs = unrolled_copy(system, 3)
    children.update(ring)
    refs.update(ring_refs)
    third = u.canonicalize_all(children, refs)
    assert third[0] not in first.values()
    for i, name in enumerate(names):
        assert third[3 + i] == third[3 + i + len(names)] == first[name]
    assert distinct_pairs_bisimilar(u) == []


def picture_with_refs(rng, uni, s):
    """A picture of stored ``s`` in which some membership edges are
    replaced by store references to the member, as (children, refs)."""
    handles = [s]
    seen = {s}
    for x in handles:
        for e in uni.elements(x):
            if e not in seen:
                seen.add(e)
                handles.append(e)
    idx = {x: i for i, x in enumerate(handles)}
    children, refs = {}, {}
    for x in handles:
        kids, rs = set(), set()
        for e in uni.elements(x):
            (rs if rng.random() < 0.3 else kids).add(e)
        children[idx[x]] = frozenset(idx[e] for e in kids)
        refs[idx[x]] = frozenset(rs)
    return children, refs


def test_store_refs_match_naive_oracle_on_random_pictures():
    rng = random.Random(23)
    for _ in range(8):
        uni = Universe()
        uni.canonicalize(OMEGA)
        uni.canonicalize(TWO_CYCLE)
        uni.vn(3)
        for trial in range(12):
            store = list(uni.ids())
            g1 = random_apg(rng, max_nodes=5, store=store)
            g2 = random_apg(rng, max_nodes=5, store=store)
            s1 = uni.canonicalize(g1)
            assert apgs_bisimilar(uni, g1, picture_of(uni, s1))
            expected = apgs_bisimilar(uni, g1, g2)
            assert (s1 == uni.canonicalize(g2)) == expected, f"trial {trial}"
            size = len(uni)
            children, refs = picture_with_refs(rng, uni, s1)
            assert uni.canonicalize_all(children, refs)[0] == s1
            assert len(uni) == size
        assert distinct_pairs_bisimilar(uni) == []


def test_malformed_pictures_rejected(u):
    with pytest.raises(MalformedGraph):
        u.canonicalize(Apg(children={}, root=0))
    with pytest.raises(MalformedGraph):
        u.canonicalize(Apg(children={0: frozenset({5})}, root=0))
    with pytest.raises(MalformedGraph):
        u.canonicalize(Apg(children={0: frozenset(), 1: frozenset()}, root=0))


def test_canonicalize_all_rejects_store_refs_of_unknown_nodes(u):
    e = u.make_set([])
    size = len(u)
    picture = Apg(children={0: frozenset()}, root=0, store_refs={7: frozenset({e})})
    assert picture.validate() == ["store_refs mentions unknown node 7"]
    with pytest.raises(MalformedGraph, match="^store_refs mentions unknown node 7$"):
        u.canonicalize_all({0: frozenset()}, {7: frozenset({e})})
    assert len(u) == size


def test_unknown_handles_rejected(u):
    with pytest.raises(UnknownHandle):
        u.elements(0)
    s = u.make_set([])
    with pytest.raises(UnknownHandle):
        u.is_member(s, 99)
    with pytest.raises(UnknownHandle):
        u.make_set([17])


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_handle(u, flag):
    # bool is a subclass of int, so True once passed for handle 1 and
    # could be stored inside an element tuple
    u.vn(3)
    size = len(u)
    assert flag not in u
    with pytest.raises(UnknownHandle, match=f"no such set handle: {flag}"):
        u.elements(flag)
    with pytest.raises(UnknownHandle):
        u.make_set([flag])
    with pytest.raises(UnknownHandle):
        u.find_set([u.vn(2), flag])
    with pytest.raises(UnknownHandle):
        u.canonicalize_all({0: [0]}, {0: [flag]})
    assert len(u) == size
    assert all(type(e) is int for s in u.ids() for e in u.elements(s))


def test_universe_cap():
    small = Universe(max_sets=2)
    small.vn(1)
    with pytest.raises(UniverseFull):
        small.vn(2)
    small = Universe(max_sets=3)
    with pytest.raises(UniverseFull):
        small.vn(5)  # mints vn(0..2), then hits the cap
    assert len(small) == 3
    assert small.vn(1) == 1 and small.elements(small.vn(2)) == (0, 1)
    assert len(small) == 3
    # a cyclic piece is checked whole before any of its sets is stored;
    # with vn(0) at node 0 the ring pictures three distinct sets
    ring, refs = {0: [1], 1: [2], 2: [0]}, {0: [0]}
    small = Universe(max_sets=3)
    small.vn(0)
    with pytest.raises(UniverseFull):
        small.canonicalize_all(ring, refs)
    assert len(small) == 1 and small._cycles == []
    exact = Universe(max_sets=4)
    exact.vn(0)
    assert sorted(exact.canonicalize_all(ring, refs).values()) == [1, 2, 3]
    assert len(exact) == 4 and exact._cycles == [range(1, 4)]


def test_append_only_element_lists(u):
    two = u.vn(2)
    before = u.elements(two)
    u.canonicalize(OMEGA)
    u.make_set([two, u.vn(1)])
    assert u.elements(two) == before


def test_extensionality_on_store(u):
    u.vn(3)
    u.canonicalize(OMEGA)
    u.canonicalize(TWO_CYCLE)
    u.make_set([u.canonicalize(OMEGA), u.vn(1)])
    for s in list(u.ids()):
        assert u.make_set(u.elements(s)) == s


def test_canonical_store_matches_naive_oracle_on_random_pairs(u):
    rng = random.Random(7)
    for trial in range(200):
        g1 = random_apg(rng, max_nodes=8)
        if trial % 2 == 0:
            g2 = bisimilar_variant(rng, g1)
        else:
            g2 = random_apg(rng, max_nodes=8)
        expected = apgs_bisimilar(u, g1, g2)
        got = u.canonicalize(g1) == u.canonicalize(g2)
        assert got == expected, f"trial {trial}: engine={got} oracle={expected}"


def _side_by_side(g: Apg, h: Apg):
    """Children and store refs of one picture holding ``g`` and ``h``,
    ``h``'s nodes shifted past ``g``'s; also the shift."""
    off = max(g.children) + 1
    children = dict(g.children)
    children.update({off + n: frozenset(off + c for c in cs) for n, cs in h.children.items()})
    refs = dict(g.store_refs)
    refs.update({off + n: rs for n, rs in h.store_refs.items()})
    return children, refs, off


def test_store_stays_minimal_after_random_insertions():
    uni = Universe()
    rng = random.Random(13)
    for _ in range(40):
        uni.canonicalize(random_apg(rng, max_nodes=6))
    uni.vn(4)
    uni.canonicalize(OMEGA)
    assert distinct_pairs_bisimilar(uni) == []

    # bisimilar copies inside one picture, in separate strongly connected
    # pieces: the later piece must find the sets minted for the earlier one
    for _ in range(40):
        g = random_apg(rng, max_nodes=6, store=list(uni.ids()))
        h = bisimilar_variant(rng, g)
        children, refs, off = _side_by_side(g, h)
        got = uni.canonicalize_all(children, refs)
        assert got[g.root] == got[off + h.root] == uni.canonicalize(g)
    for k, n in enumerate((1, 2, 3, 5, 8)):
        # an n-cycle carrying a fresh atom at node 0 next to its 2n
        # unrolling, each of the two first in one of the pictures
        for j, unrolled_first in enumerate((False, True)):
            atom = frozenset({uni.vn(10 + 2 * k + j)})
            cycle = Apg({i: frozenset({(i + 1) % n}) for i in range(n)}, 0, {0: atom})
            unrolled = Apg({i: frozenset({(i + 1) % (2 * n)}) for i in range(2 * n)}, 0,
                           {0: atom, n: atom})
            first, second = (unrolled, cycle) if unrolled_first else (cycle, unrolled)
            children, refs, off = _side_by_side(first, second)
            got = uni.canonicalize_all(children, refs)
            for i in children:
                assert got[i] == got[(i - off if i >= off else i) % n]
            assert len({got[i] for i in range(n)}) == n
    assert distinct_pairs_bisimilar(uni) == []


def random_keyed_digraph(rng: random.Random):
    """Random digraph with repeated keys, sinks, loops and copies.

    Some nodes get a copy with the same key and the same children, and
    some of those copies point at each other instead of at the
    originals, so the graph has bisimilar nodes to merge.
    """
    n = rng.randint(1, 25)
    keys = rng.choice([lambda: rng.randrange(2), lambda: rng.randrange(4),
                       lambda: tuple(rng.sample(range(5), rng.randint(0, 2)))])
    kids = {i: {rng.randrange(n) for _ in range(rng.randint(0, 3))} for i in range(n)}
    key = {i: keys() for i in range(n)}
    copy = {}
    for i in rng.sample(range(n), rng.randint(0, n)):
        copy[i] = len(kids)
        kids[copy[i]] = set(kids[i])
        key[copy[i]] = key[i]
    for c in copy.values():
        if rng.random() < 0.5:
            kids[c] = {copy.get(k, k) for k in kids[c]}
    nodes = list(kids)
    rng.shuffle(nodes)
    return nodes, {x: sorted(cs) for x, cs in kids.items()}, key


def test_refine_ranks_match_naive_on_keyed_digraphs():
    rng = random.Random(31)
    merged = 0
    for _ in range(300):
        nodes, kids, key = random_keyed_digraph(rng)
        got = refine_ranks(nodes, kids, key)
        assert got == naive_refine_ranks(nodes, kids, key)
        merged += len(set(got.values())) < len(nodes)
    assert merged > 100


def test_refine_ranks_keys_sinks_apart():
    # one key for all: the sink comes first, and the two loops merge
    kids = {0: [1, 3], 1: [1], 2: [2], 3: []}
    assert refine_ranks(kids, kids, dict.fromkeys(kids, 0)) == {0: 1, 1: 2, 2: 2, 3: 0}
    with pytest.raises(ValidationError):
        refine_ranks([0], {0: [1]}, {0: 0})


def random_chained_digraph(rng: random.Random):
    """Random keyed digraph around a chain, with the chain's nodes.

    Chain node k has the children ``chain[:k]`` and the other nodes
    copy a chain node, loop over a chain prefix (``{x} | chain[:m]``
    shares the last block with the chain above m for about m rounds),
    extend a prefix by one node, or point anywhere.  Names are shuffled.
    """
    K = rng.randint(0, 30)
    n = K + rng.randint(0, 20)
    name = rng.sample(range(10 * n + 1), n)
    chain = name[:K]
    kids = {chain[k]: chain[:k] for k in range(K)}
    key = dict.fromkeys(chain, 1)
    if chain:
        key[chain[0]] = rng.randrange(2)
    for x in name[K:]:
        m = rng.randint(0, K)
        kind = rng.randrange(4)
        if kind == 0:
            kids[x], key[x] = chain[:m], key[chain[m]] if m < K else 1
        elif kind == 1:
            kids[x], key[x] = chain[:m] + [x], 1
        elif kind == 2:
            kids[x], key[x] = chain[:m] + [rng.choice(name)], rng.choice((0, 1, 1, 2))
        else:
            kids[x], key[x] = rng.sample(name, rng.randint(0, 4)), rng.randrange(3)
    nodes = list(kids)
    rng.shuffle(nodes)
    return nodes, {x: sorted(set(cs)) for x, cs in kids.items()}, key, tuple(chain)


def test_refine_ranks_match_naive_with_chain():
    rng = random.Random(12)
    shared = 0
    for _ in range(400):
        nodes, kids, key, chain = random_chained_digraph(rng)
        got = refine_ranks(nodes, kids, key, chain)
        assert got == naive_refine_ranks(nodes, kids, key)
        ranks = {got[c] for c in chain}
        shared += any(got[x] in ranks for x in nodes if x not in chain)
    assert shared > 100


def random_sparse_chained_digraph(rng: random.Random):
    """Random keyed digraph around a chain whose other nodes hold 0-3
    scattered chain nodes and each other, with the chain's nodes.

    Between the chain nodes that other nodes hold, the chain's tail sheds
    one node per round with nothing else splitting: the quiet runs that
    :func:`refine_ranks` takes in one step, which chain prefixes (as in
    ``random_chained_digraph``) rarely leave.
    """
    K = rng.randint(0, 60)
    n = K + rng.randint(0, 8)
    name = rng.sample(range(10 * n + 1), n)
    chain, others = name[:K], name[K:]
    kids = {chain[k]: chain[:k] for k in range(K)}
    key = dict.fromkeys(chain, 1)
    if chain:
        key[chain[0]] = rng.randrange(2)
    for x in others:
        kids[x] = (rng.sample(chain, rng.randint(0, min(3, K)))
                   + rng.sample(others, rng.randint(0, min(2, len(others)))))
        key[x] = rng.choice((0, 1, 1, 2))
    nodes = list(kids)
    rng.shuffle(nodes)
    return nodes, {x: sorted(set(cs)) for x, cs in kids.items()}, key, tuple(chain)


def test_refine_ranks_match_naive_with_a_sparsely_held_chain():
    rng = random.Random(5)
    for _ in range(1000):
        nodes, kids, key, chain = random_sparse_chained_digraph(rng)
        assert refine_ranks(nodes, kids, key, chain) == naive_refine_ranks(nodes, kids, key)


def test_refine_ranks_rekeys_the_parents_of_a_chain_node_copy():
    # x copies chain[m], so it is shed from the tail together with it;
    # its parent y must then part from z, which holds chain[j] instead
    for K in range(4, 10):
        for m in range(K):
            for j in range(K):
                kids = {k: list(range(k)) for k in range(K)}
                x, y, z = K, K + 1, K + 2
                kids.update({x: list(range(m)), y: [x], z: [j]})
                key = {**dict.fromkeys(kids, 1), y: 2, z: 2}
                got = refine_ranks(kids, kids, key, tuple(range(K)))
                assert got == naive_refine_ranks(kids, kids, key), (K, m, j)


def test_refine_ranks_sheds_a_quiet_chain_in_bulk():
    # one round per numeral took seconds here; the quiet runs between the
    # chain nodes held off the chain are shed at once
    K = 20000
    kids = {k: range(k) for k in range(K)}
    for i, k in enumerate((K // 3, 2 * K // 3, K - 1)):
        kids[K + i] = [k]
    start = time.perf_counter()
    got = refine_ranks(kids, kids, dict.fromkeys(kids, 1), tuple(range(K)))
    assert time.perf_counter() - start < 1
    assert all(got[k] == k for k in range(K))


def test_refine_ranks_rejects_a_broken_chain():
    kids = {0: [], 1: [0], 2: [0, 1], 3: [1]}
    key = dict.fromkeys(kids, 1)
    assert refine_ranks(kids, kids, key, (0, 1, 2)) == naive_refine_ranks(kids, kids, key)
    for chain, k in (((0, 1, 3), key),  # node 3 has one child, not two
                     ((0, 2), key),  # node 2 has two children, not one
                     ((0, 1, 2, 4), key),  # 4 is not a node
                     ((0, 1, 2), {**key, 2: 2}),  # the chain above 0 is keyed apart
                     ((0, 1, 2), {**key, 0: 2})):  # chain node 0 is keyed above the rest
        with pytest.raises(ValidationError):
            refine_ranks(kids, kids, k, chain)


def chorded_cycle(rng: random.Random, n: int, chords: int, first: int = 0):
    """Children of the n-cycle first .. first+n-1 with ``chords`` random
    chords, about a third of them also reversed (a double edge)."""
    kids = {first + i: {first + (i + 1) % n} for i in range(n)}
    for _ in range(chords):
        a, b = rng.sample(range(first, first + n), 2)
        kids[a].add(b)
        if rng.random() < 1 / 3:
            kids[b].add(a)
    return kids


def tuple_keys(rng: random.Random, nodes, keyed: int) -> dict:
    """Key () on every node but ``keyed`` of them, which get small tuples."""
    key = dict.fromkeys(nodes, ())
    for x in rng.sample(sorted(nodes), keyed):
        key[x] = tuple(sorted(rng.sample(range(6), rng.randint(1, 2))))
    return key


def random_long_cycle(rng: random.Random):
    """A 50-400 node cycle like the workloads' system files: chords and
    reversed chords, tuple keys on a few nodes, and, half the time, a
    second copy of the cycle whose edges each go to the copy or back to
    the original, so that every copy is bisimilar to its original.  A
    few children are listed twice."""
    n = rng.randint(50, 400)
    kids = chorded_cycle(rng, n, rng.choice((0, rng.randint(1, n // 8), n // 8)))
    key = tuple_keys(rng, kids, rng.randint(1, 4))
    if rng.random() < 0.5:
        for i in range(n):
            kids[n + i] = {c + n if rng.random() < 0.5 else c for c in kids[i]}
            key[n + i] = key[i]
    kids = {x: sorted(cs) for x, cs in kids.items()}
    for x in rng.sample(sorted(kids), 3):
        kids[x].append(kids[x][0])
    nodes = list(kids)
    rng.shuffle(nodes)
    return nodes, kids, key


def test_refine_ranks_match_naive_on_long_chorded_cycles():
    # rounds of one-node splits around a long cycle, as in collapse and
    # in the structural order of the workloads' system files
    rng = random.Random(17)
    merged = 0
    for _ in range(12):
        nodes, kids, key = random_long_cycle(rng)
        got = refine_ranks(nodes, kids, key)
        assert got == naive_refine_ranks(nodes, kids, key)
        merged += len(set(got.values())) < len(nodes)
    assert 0 < merged < 12


def random_piece_and_region(rng: random.Random):
    """A cyclic piece and the stored region it is refined with, shaped
    as ``Universe._resolve_cluster`` builds them.

    The region holds a few chorded cycles, keyed by tuples.  The piece
    unrolls one of them twice, renames its nodes above the region's and
    sends some edges into the region instead, so that some piece nodes
    have copies in the region; half the time it also holds nodes of a
    fresh cycle with no copy stored.
    """
    region, first = {}, 0
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(20, 80)
        region.update(chorded_cycle(rng, n, rng.randint(0, n // 8), first))
        first += n
    key = tuple_keys(rng, region, rng.randint(1, 4))
    cycle = [x for x in region if x >= first - n]
    base = 1000
    copy = {x: base + i for i, x in enumerate(cycle)}
    copy2 = {x: base + n + i for i, x in enumerate(cycle)}
    kids = {x: set(cs) for x, cs in region.items()}
    for x in cycle:
        for own, other in ((copy, copy2), (copy2, copy)):
            kids[own[x]] = {c if rng.random() < 0.2 else other[c] for c in region[x]}
            key[own[x]] = key[x]
    if rng.random() < 0.5:
        m = rng.randint(10, 60)
        fresh = chorded_cycle(rng, m, rng.randint(0, m // 4), base + 2 * n)
        key.update(tuple_keys(rng, fresh, rng.randint(0, 2)))
        for x, cs in fresh.items():
            kids[x] = cs | {rng.choice(sorted(kids))} if rng.random() < 0.1 else cs
    kids = {x: sorted(cs) for x, cs in kids.items()}
    return list(kids), kids, key


def test_refine_ranks_match_naive_on_a_piece_and_its_stored_region():
    rng = random.Random(23)
    found = 0
    for _ in range(25):
        nodes, kids, key = random_piece_and_region(rng)
        got = refine_ranks(nodes, kids, key)
        assert got == naive_refine_ranks(nodes, kids, key)
        stored = {got[x] for x in nodes if x < 1000}
        found += any(got[x] in stored for x in nodes if x >= 1000)
    assert found == 25


def test_refine_ranks_scale_on_a_long_chorded_cycle():
    # three keyed nodes in a row, and chords that only point back along
    # the cycle and never at them, so that one node splits off per round
    # for 6,397 rounds; a kernel that relabels the rest of a block on
    # every split takes n²/2 steps here, about 20 times as long
    rng = random.Random(3)
    n = 6400
    kids = {i: {(i + 1) % n} for i in range(n)}
    for _ in range(n // 8):
        a = rng.randrange(4, n)
        kids[a].add(rng.randrange(3, a))
    kids = {x: sorted(cs) for x, cs in kids.items()}
    key = {**dict.fromkeys(kids, 0), 0: 1, 1: 1, 2: 1}
    start = time.perf_counter()
    got = refine_ranks(kids, kids, key)
    assert time.perf_counter() - start < 1
    assert sorted(got.values()) == list(range(n))


def numeral_cycle(rng: random.Random, n: int, big: int):
    """A store holding a chorded n-cycle shaped like the benchmark's
    system files, and the cycle's handles.  One node holds vn(big), and
    one to three nodes a small numeral, a singleton numeral {vn(k)} or a
    wide atom {{vn(0)}, ..., {vn(k-1)}}, so that some low numerals have
    parents off the chain and the rest do not."""
    u = Universe()
    kids = chorded_cycle(rng, n, max(1, n // 8))
    refs = {rng.randrange(n): {u.vn(big)}}
    for _ in range(rng.randint(1, 3)):
        kind, k = rng.randrange(3), rng.randint(0, 30)
        atom = (u.vn(k % 13) if kind == 0 else u.make_set([u.vn(k)]) if kind == 1
                else u.make_set(u.make_set([u.vn(j)]) for j in range(k)))
        refs.setdefault(rng.randrange(n), set()).add(atom)
    return u, list(u.canonicalize_all(kids, refs).values())


def test_chain_sheds_match_naive_while_a_cycle_splits():
    # the chain's tail sheds a numeral per round while the cycle still
    # splits, whether other sets hold that numeral or not, and vn(big)
    # outlasts the cycle's splits in some; a copy x of a chain node, with
    # a parent on the cycle, leaves the tail with it in a busy round
    rng = random.Random(41)
    for n, big in [(20, 0), (120, 1), (40, 12), (20, 60), (90, 30), (60, 150),
                   (30, 100), (120, 90), (50, 45), (80, 120)]:
        u, roots = numeral_cycle(rng, n, big)
        vertices = closure(u, roots)
        assert structural_ranks(u, roots) == naive_structural_ranks(u, vertices)
        chain = tuple(s for s in u.numerals() if s in vertices)
        kids = {s: list(u.elements(s)) for s in vertices}
        x, y = len(u), len(u) + 1
        kids[x] = list(chain[:rng.randrange(min(len(chain), 12))])
        kids[y] = [x, rng.choice(roots)]
        key = {s: bool(cs) for s, cs in kids.items()}
        assert refine_ranks(sorted(kids), kids, key, chain) == naive_refine_ranks(kids, kids, key)


def test_a_large_numeral_adds_little_while_a_cycle_splits():
    # vn(120) on a 200-node cycle sheds about 25 numerals in rounds in
    # which the cycle still splits; when each of them took a generic split
    # of the chain's tail, ranking this closure took 1.55-1.7 times as long
    # as with vn(1) on Pythons 3.10-3.13, and 1.1-1.3 once such a shed
    # takes a few steps (the numerals' set-up stays).  The ratio of the
    # best of 5 in process time, the two alternating; a slow spell on a
    # shared machine gets two more tries
    def held(k):
        u = Universe()
        kids = chorded_cycle(random.Random(1), 200, 50)
        return u, list(u.canonicalize_all(kids, {0: [u.vn(k)]}).values())

    def ratio():
        best = [float("inf")] * 2
        for _ in range(5):
            for i, (u, roots) in enumerate(pictures):
                start = time.process_time()
                structural_ranks(u, roots)
                best[i] = min(best[i], time.process_time() - start)
        return best[1] / best[0]

    pictures = [held(1), held(120)]
    assert min(ratio() for _ in range(3)) < 1.4


@st.composite
def small_apgs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    return random_apg(rng, max_nodes=6)


@settings(max_examples=60, deadline=None)
@given(small_apgs())
def test_idempotence_via_repicture(g):
    uni = Universe()
    s = uni.canonicalize(g)
    assert uni.canonicalize(picture_of(uni, s)) == s


@settings(max_examples=60, deadline=None)
@given(small_apgs())
def test_extensionality_of_canonical_roots(g):
    uni = Universe()
    s = uni.canonicalize(g)
    assert uni.make_set(uni.elements(s)) == s
