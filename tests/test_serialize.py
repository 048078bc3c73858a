import random
import time
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

from hyperset import serialize
from hyperset.cli import main
from hyperset.errors import DomainError, UnknownHandle, ValidationError
from hyperset.flat import FlatSystem, solve
from hyperset.rado import AckermannCoder
from hyperset.reducts import MultiGraph, closure, undirect
from hyperset.serialize import (
    emit_graph,
    format_system,
    normal_form,
    serialize_set,
    structural_ranks,
    wf_code_index,
    wf_literal,
)
from hyperset.sysfile import parse_set_literal, parse_system
from hyperset.universe import Apg, Universe
from hyperset.witnesses import PatternGraph, component, star

from oracles import naive_emit_graph, naive_structural_ranks, parse_graph_output, random_apg
from test_golden import CASES, GOLDEN, prefilled_universe

OMEGA = Apg(children={0: frozenset({0})}, root=0)

PAIR_TEXT = "atom a = 0\natom b = 1\nx = {y,a}\ny = {x,b}\n"


def test_wf_code_index_orders_by_code(u):
    from hyperset.rado import ackermann_decode
    sets = [ackermann_decode(u, n) for n in range(40)]
    idx = wf_code_index(u, sets)
    assert [idx[s] for s in sets] == list(range(40))


def test_wf_literal_of_numerals(u):
    assert serialize_set(u, u.vn(0)) == "{}"
    assert serialize_set(u, u.vn(1)) == "{{}}"
    assert serialize_set(u, u.vn(2)) == "{{},{{}}}"
    assert wf_literal(u, u.vn(3), numerals=True) == "3"


def test_numeral_detection(u):
    assert u.numeral_of(u.vn(7)) == 7
    odd = u.make_set([u.vn(1)])
    assert u.numeral_of(odd) is None
    # numerals stored without going through vn are in the numeral cache too
    numerals = [u.vn(k) for k in range(8)]
    while len(numerals) <= 10:
        numerals.append(u.make_set(numerals))
    size = len(u)
    assert u.numeral_of(numerals[10]) == 10
    assert u.numeral_of(u.make_set(numerals[1:])) is None
    assert len(u) == size + 1


def forbid_orders(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an order was computed where nothing is chosen")
    monkeypatch.setattr(serialize, "structural_ranks", forbidden)
    monkeypatch.setattr(serialize, "wf_code_index", forbidden)


def test_numerals_past_the_probe_cap_print_as_decimals(u, monkeypatch):
    big = u.vn(4097)
    assert u.numeral_of(big) == 4097
    assert wf_literal(u, big, numerals=True) == "4097"
    system = FlatSystem(atoms={"a": big}, equations=[("x", frozenset({"x", "a"}))])
    assert format_system(u, system) == "atom a = 4097\nx = {a,x}\n"
    # Both orders over the closure of vn(4097) (8.4 million memberships)
    # would take most of a minute and decide nothing for one atom and
    # one equation, so neither may be computed.
    forbid_orders(monkeypatch)
    x = solve(u, system)["x"]
    assert normal_form(u, [("x", x)]) == "atom a0 = 4097\nx = {a0,x}\n"


def test_solved_numeral_atom_prints_without_orders(u, monkeypatch):
    x = solve(u, parse_system(u, "atom a = 3000\nx = {x,a}\n"))["x"]
    forbid_orders(monkeypatch)
    assert normal_form(u, [("x", x)]) == "atom a0 = 3000\nx = {a0,x}\n"


def test_wf_code_index_of_a_numeral_chain_needs_no_stack(u):
    top = u.vn(1000)
    tracemalloc.start()
    try:
        index = wf_code_index(u, [top])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # a DFS stack of every membership peaks at about 32 MB
    assert [index[u.vn(k)] for k in range(1001)] == list(range(1001))


def test_serialization_never_grows_the_store(u):
    text = "atom a = {{0},{1},{2},{3},{4},{5},{6},{7}}\nx = {x,a}\n"
    system = parse_system(u, text)
    x = solve(u, system)["x"]
    sl = closure(u, [x])
    size = len(u)
    assert normal_form(u, [("x", x)]) == (
        "atom a0 = {1,{1},{2},{3},{4},{5},{6},{7}}\nx = {a0,x}\n")
    serialize_set(u, x)
    serialize_set(u, system.atoms["a"])
    emit_graph(u, undirect(u, sl, "loopy"))
    assert len(u) == size


def test_quine_atom_normal_form(u):
    omega = u.canonicalize(OMEGA)
    assert serialize_set(u, omega) == "ν0 = {ν0}\n"


def test_membership_pair_normal_form(u):
    sol = solve(u, parse_system(u, PAIR_TEXT))
    assert serialize_set(u, sol["x"]) == (
        "atom a0 = 0\n"
        "atom a1 = 1\n"
        "ν0 = {a0,ν1}\n"
        "ν1 = {a1,ν0}\n"
    )


def test_serialization_is_history_free():
    # same hyperset, two very different construction orders
    u1 = Universe()
    u1.vn(6)
    sol1 = solve(u1, parse_system(u1, PAIR_TEXT))
    text1 = serialize_set(u1, sol1["x"])

    u2 = Universe()
    sys2 = parse_system(u2, "atom b = 1\natom a = 0\ny = {x,b}\nx = {y,a}\n")
    sol2 = solve(u2, sys2)
    u2.canonicalize(OMEGA)
    text2 = serialize_set(u2, sol2["x"])
    assert text1 == text2


def test_serialization_stable_under_growth(u):
    omega = u.canonicalize(OMEGA)
    before = serialize_set(u, omega)
    u.vn(9)
    solve(u, parse_system(u, PAIR_TEXT))
    assert serialize_set(u, omega) == before


def test_normal_form_keeps_root_names(u):
    sol = solve(u, parse_system(u, PAIR_TEXT))
    text = normal_form(u, [("x", sol["x"]), ("y", sol["y"])])
    assert text == (
        "atom a0 = 0\n"
        "atom a1 = 1\n"
        "x = {a0,y}\n"
        "y = {a1,x}\n"
    )


def test_normal_form_drops_aliases(u):
    omega = u.canonicalize(OMEGA)
    text = normal_form(u, [("x", omega), ("y", omega)])
    assert text == "x = {x}\n"


def test_normal_form_well_founded_root(u):
    text = normal_form(u, [("x", u.vn(2))])
    assert text == "atom a0 = 0\natom a1 = 1\nx = {a0,a1}\n"


def test_structural_ranks_walk_from_roots(u):
    zero, one = u.vn(0), u.vn(1)
    assert structural_ranks(u, [one]) == {zero: 0, one: 1}
    assert structural_ranks(u, [one, zero, one]) == {zero: 0, one: 1}
    with pytest.raises(UnknownHandle):
        structural_ranks(u, [one, 999])
    with pytest.raises(UnknownHandle):
        wf_code_index(u, [999])


@pytest.mark.parametrize("bad", [True, False, -1, 999, 1.5, "0"])
def test_orders_and_graph_output_check_every_handle(u, bad):
    # the given handles are checked one by one, so the error names the
    # first bad one; a bool is no handle, nor is a value no int compares with
    two = u.vn(2)  # no bool equals it
    size = len(u)
    for order in (structural_ranks, wf_code_index):
        with pytest.raises(UnknownHandle, match=f"no such set handle: {bad!r}$"):
            order(u, [two, bad, 998])
    with pytest.raises(UnknownHandle, match=f"no such set handle: {bad!r}$"):
        emit_graph(u, MultiGraph(frozenset([two, bad]), {}))
    assert len(u) == size


def test_wf_code_index_walks_through_non_well_founded_roots():
    from hyperset.rado import AckermannCoder
    rng = random.Random(5)
    u = Universe()
    coder = AckermannCoder(u)
    for _ in range(80):
        store = list(u.ids()) if rng.random() < 0.7 else ()
        roots = [u.canonicalize(random_apg(rng, max_nodes=rng.randint(2, 12), store=store))
                 for _ in range(rng.randint(1, 3))]
        index = wf_code_index(u, roots)
        assert set(index) == {s for s in closure(u, roots) if u.is_well_founded(s)}
        codes = {}
        for s in index:
            try:
                codes[s] = coder.code(s)
            except DomainError:
                pass
        assert sorted(codes, key=index.__getitem__) == sorted(codes, key=codes.__getitem__)


def test_format_system_round_trip(u):
    sys = parse_system(u, PAIR_TEXT)
    text = format_system(u, sys)
    sys2 = parse_system(u, text)
    sol, sol2 = solve(u, sys), solve(u, sys2)
    assert sol == sol2


def test_format_system_rejects_hyperset_atom(u):
    omega = u.canonicalize(OMEGA)
    bad = FlatSystem(atoms={"w": omega}, equations=[("x", frozenset({"w"}))])
    with pytest.raises(ValidationError):
        format_system(u, bad)


def test_emit_graph_shapes(u):
    sol = solve(u, parse_system(u, PAIR_TEXT))
    text = emit_graph(u, undirect(u, sol.values(), "double_only"))
    verts, edges = parse_graph_output(text)
    labels = [lab for _, lab, _ in verts]
    assert labels[:2] == ["0", "1"]            # vn(0), vn(1) by code
    assert all(lab.startswith("nu") for lab in labels[2:])
    assert len(edges) == 1 and edges[0][2] == 2
    assert not any(loop for _, _, loop in verts)


def test_emit_graph_loop_flag(u):
    omega = u.canonicalize(OMEGA)
    sl = closure(u, [omega])
    text = emit_graph(u, undirect(u, sl, "loopy"))
    verts, edges = parse_graph_output(text)
    assert verts == [(0, "nu0", True)]
    assert edges == []


def test_emit_graph_multi_mode(u):
    sol = solve(u, parse_system(u, PAIR_TEXT))
    text = emit_graph(u, undirect(u, sol.values(), "multi"))
    verts, edges = parse_graph_output(text)
    mult_by_pair = {(i, j): m for i, j, m in edges}
    assert 2 in mult_by_pair.values()
    assert 1 in mult_by_pair.values()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_emit_graph_matches_the_triple_reference(data):
    # any vertex set of stored sets, any edges and loops: emit_graph does
    # not check that edges are memberships
    u = prefilled_universe(data.draw(st.integers(0, 3)))
    verts = data.draw(st.lists(st.sampled_from(sorted(u.ids())), max_size=12, unique=True))
    mult = {}
    if verts:
        vertex = st.sampled_from(verts)
        pairs = data.draw(st.dictionaries(st.tuples(vertex, vertex), st.sampled_from([1, 2]),
                                          max_size=30))
        mult = {(a, b): 1 if a == b else m for (a, b), m in pairs.items()}
    for mults in (mult, dict.fromkeys(mult, 1), dict.fromkeys(mult, 2)):
        graph = MultiGraph(vertices=frozenset(verts), multiplicity=mults)
        assert emit_graph(u, graph) == naive_emit_graph(u, graph)


def test_emit_graph_refuses_a_multiplicity_other_than_1_or_2(u):
    # a row cell stands for one of the two multiplicities, so any other
    # would print as a different edge
    a, b = u.vn(0), u.vn(1)
    for m in (0, 3, -1, "2"):
        graph = MultiGraph(vertices=frozenset({a, b}), multiplicity={(a, b): m})
        with pytest.raises(ValidationError, match="not 1 or 2"):
            emit_graph(u, graph)
    graph = MultiGraph(vertices=frozenset({a, b}), multiplicity={(a, a): 2, (a, b): 2})
    assert emit_graph(u, graph) == "v 0 0 loop\nv 1 1\ne 0 1 2\n"


@pytest.mark.parametrize("seed", range(8))
def test_labels_stop_coding_at_the_first_overflow(seed, monkeypatch):
    # codes rise along code order, so the well-founded vertices whose
    # code passes 2^64 are a suffix of it: emit_graph codes up to the
    # first of them, once each, and labels the rest wf<i> uncoded
    rng = random.Random(seed)
    u = Universe()
    pool = [u.vn(k) for k in range(8)] + [u.make_set([u.vn(5)])]
    pool += [parse_set_literal(u, text) for text in ("{4}", "{4,{2}}", "{{3}}", "{{{3}}}", "{6}")]
    for _ in range(20):
        pool.append(u.make_set(rng.sample(pool, rng.randint(1, 3))))
    # vn(5) overflows first; {4} codes 2^2059, below vn(5); {{3}} codes 2^2048
    firsts = []
    for roots in ([u.vn(7), pool[8]], rng.sample(pool, 3), rng.sample(pool, 6)):
        graph = undirect(u, roots, "multi")
        calls = []
        with monkeypatch.context() as m:
            code = AckermannCoder.code
            m.setattr(AckermannCoder, "code", lambda self, s: calls.append(s) or code(self, s))
            text = emit_graph(u, graph)
        assert text == naive_emit_graph(u, graph)
        labels = [line.split()[2] for line in text.splitlines() if line.startswith("v ")]
        coded = [label for label in labels if label.isdigit()]
        overflowing = [label for label in labels if label.startswith("wf")]
        assert coded and overflowing  # the vertices straddle 2^64
        assert labels[:len(coded)] == coded
        assert len(calls) == len(coded) + 1
        firsts.append(u.numeral_of(calls[-1]))
    assert firsts[0] == 5
    assert None in firsts  # a first overflow off the chain


def test_emit_graph_peak_memory_per_edge(u):
    # each edge is one int until its line is formatted, and the text is
    # built once: about 120 B per edge, of which the lines take 68
    sol = solve(u, parse_system(u, "atom a = 700\nx = {x,a}\ny = {x,a,y}\n"))
    graph = undirect(u, sol.values(), "multi")
    assert len(graph.multiplicity) == 245352
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = emit_graph(u, graph)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert text.count("\n") == len(graph.vertices) + sum(a != b for a, b in graph.multiplicity)
    assert peak / len(graph.multiplicity) < 135


def test_parse_graph_output_validates():
    with pytest.raises(ValidationError):
        parse_graph_output("v 0 x\ne 0 0 3\n")
    with pytest.raises(ValidationError):
        parse_graph_output("v 1 x\n")
    with pytest.raises(ValidationError):
        parse_graph_output("nonsense\n")


# -- structural_ranks against the naive refinement loop ------------------------


def assert_ranks_match(u, vertices):
    assert structural_ranks(u, vertices) == naive_structural_ranks(u, vertices)


def assert_ranks_match_from_roots(u, roots):
    """Ranks from the closure and from the roots alone, against the naive
    loop on the closure; the well-founded code index likewise."""
    vertices = closure(u, roots)
    assert_ranks_match(u, vertices)
    assert structural_ranks(u, roots) == naive_structural_ranks(u, vertices)
    wf = [s for s in vertices if u.is_well_founded(s)]
    assert wf_code_index(u, roots) == wf_code_index(u, wf)


def test_structural_ranks_match_naive_on_random_pictures():
    rng = random.Random(20)
    u = Universe()
    for _ in range(120):
        store = list(u.ids()) if rng.random() < 0.5 else ()
        root = u.canonicalize(random_apg(rng, max_nodes=rng.randint(2, 30), store=store))
        assert_ranks_match(u, closure(u, [root]))
    assert_ranks_match(u, list(u.ids()))


def test_structural_ranks_match_naive_on_numerals(u):
    for n in range(81):
        assert_ranks_match(u, closure(u, [u.vn(n)]))


def test_structural_ranks_match_naive_on_cycles_with_one_atom():
    for n in range(1, 151):
        u = Universe()  # one store per cycle: long cycles share lookup buckets
        atom = u.make_set([u.vn(3)])
        cycle = Apg(children={i: frozenset({(i + 1) % n}) for i in range(n)}, root=0,
                    store_refs={0: frozenset({atom})})
        assert_ranks_match(u, closure(u, [u.canonicalize(cycle)]))


def test_structural_ranks_match_naive_on_chorded_cycles_with_wide_atoms():
    rng = random.Random(7)
    for _ in range(40):
        u = Universe()
        n = rng.randint(3, 90)
        children = {i: {(i + 1) % n} for i in range(n)}
        for _ in range(rng.randint(1, 4)):
            children[rng.randrange(n)].add(rng.randrange(n))
        refs = {}
        for _ in range(rng.randint(1, 3)):
            wide = u.make_set(u.vn(rng.randint(0, 25)) for _ in range(rng.randint(2, 9)))
            refs.setdefault(rng.randrange(n), set()).add(wide)
        root = u.canonicalize(Apg(children=children, root=0, store_refs=refs))
        assert_ranks_match(u, closure(u, [root]))


# -- the numeral chain is ranked in bulk -----------------------------------------

PENTAGON_WITH_CHORD = PatternGraph(
    size=5, edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)}),
    loops=frozenset({2}))


def test_structural_ranks_match_naive_on_star_and_component_closures():
    for seed in range(61):
        u = Universe()
        y, _ = star(u, 1 + seed % 5, atom_seed=seed)
        assert_ranks_match_from_roots(u, [y])
        assert_ranks_match_from_roots(u, component(u, PENTAGON_WITH_CHORD, seed)[0])


def test_structural_ranks_match_naive_on_sets_in_the_numeral_tail():
    # x = {x, vn(0..m-1)} shares the last block with the numerals above
    # m for about m rounds, and so do two-cycles over numeral prefixes
    for m in range(41):
        u = Universe()
        x = u.canonicalize(Apg({0: frozenset({0})}, 0, {0: frozenset(map(u.vn, range(m)))}))
        assert_ranks_match_from_roots(u, [x, u.vn(m + 5)])
    for a in range(0, 30, 3):
        for b in range(0, 30, 4):
            u = Universe()
            refs = {0: frozenset(map(u.vn, range(a))), 1: frozenset(map(u.vn, range(b)))}
            x = u.canonicalize(Apg({0: frozenset({1}), 1: frozenset({0})}, 0, refs))
            assert_ranks_match_from_roots(u, [x, u.vn(31)])


def test_structural_ranks_match_naive_with_singleton_numeral_atoms():
    for k in range(0, 40, 3):
        u = Universe()
        atom = u.make_set(u.make_set([u.vn(i)]) for i in range(k))
        x = u.canonicalize(Apg({0: frozenset({0})}, 0, {0: frozenset({atom})}))
        assert_ranks_match_from_roots(u, [x])


def test_numeral_chain_is_ranked_in_bulk(u):
    # two million memberships, which took seconds when walked one by one
    vertices = closure(u, [u.vn(2000)])
    start = time.perf_counter()
    ranks = structural_ranks(u, vertices)
    assert time.perf_counter() - start < 2
    assert all(ranks[u.vn(n)] == n for n in range(2001))
    assert structural_ranks(u, [u.vn(2000)]) == ranks


# -- an order is computed only where a set has a choice to make ----------------


def reverse_order(monkeypatch, name):
    """Make ``serialize.<name>`` return its order reversed, still dense."""
    original = getattr(serialize, name)

    def reversed_order(u, vs):
        order = original(u, vs)
        return {s: len(order) - 1 - i for s, i in order.items()}
    monkeypatch.setattr(serialize, name, reversed_order)


GOLDEN_SOLVE = sorted(name for name, argv in CASES.items() if argv[0] == "solve")


@pytest.mark.parametrize("name", GOLDEN_SOLVE)
def test_golden_solve_output_ignores_the_structural_order(name, monkeypatch, capsys):
    reverse_order(monkeypatch, "structural_ranks")
    argv = [arg.replace("{dir}", str(GOLDEN)) for arg in CASES[name]]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", sorted(p for p in GOLDEN.glob("*.hs")
                                         if not p.name.startswith("err-")),  # do not parse
                         ids=lambda p: p.name)
def test_solve_never_ranks(path, monkeypatch, capsys):
    # solve names every non-well-founded set it prints
    calls = []
    original = serialize.structural_ranks
    monkeypatch.setattr(serialize, "structural_ranks",
                        lambda *args: calls.append(args) or original(*args))
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("name", ["structural_ranks", "wf_code_index"])
def test_normal_form_reads_an_order_only_to_choose(u, monkeypatch, name):
    sol = solve(u, parse_system(u, PAIR_TEXT))
    roots = [
        sol["x"],  # one atom and one unnamed non-well-founded child per set
        u.make_set([sol["x"], sol["y"]]),  # two unnamed non-well-founded children
        u.make_set([u.canonicalize(OMEGA), u.vn(1), u.make_set([u.vn(2)])]),  # two atoms
    ]
    before = [serialize_set(u, s) for s in roots]
    reverse_order(monkeypatch, name)
    changed = 1 if name == "structural_ranks" else 2
    assert [serialize_set(u, s) == text for s, text in zip(roots, before)] == [
        i != changed for i in range(3)]


@pytest.mark.parametrize("name", ["structural_ranks", "wf_code_index"])
def test_emit_graph_reads_an_order_only_to_choose(u, monkeypatch, name):
    one_nw = solve(u, parse_system(u, "atom a = 1\nx = {x,a}\n"))["x"]
    one_wf = solve(u, parse_system(u, "atom a = 0\nx = {y,a}\ny = {x}\n"))["x"]
    graphs = [undirect(u, closure(u, [s]), "multi") for s in (one_nw, one_wf)]
    before = [emit_graph(u, g) for g in graphs]
    reverse_order(monkeypatch, name)
    changed = 1 if name == "structural_ranks" else 0
    assert [emit_graph(u, g) == text for g, text in zip(graphs, before)] == [
        i != changed for i in range(2)]


# -- each order walks its own closure, once ------------------------------------


@pytest.mark.parametrize("name", ["star4-seed2000", "pattern5.seed200.component",
                                  "cycle40.multi", "cycle40.double", "witness.loopy"])
def test_graph_and_normal_form_output_build_no_closure(name, monkeypatch, capsys):
    # star, component and undirect graphs need both orders, and the loopy
    # witness's normal form needs the code index; each order walks the
    # closure of what it sorts, so serialization never calls closure
    def forbidden(*args):
        raise AssertionError("serialization built a closure")
    monkeypatch.setattr(serialize, "closure", forbidden)
    argv = [arg.replace("{dir}", str(GOLDEN)) for arg in CASES[name]]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
