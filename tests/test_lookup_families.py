"""Lookup stress families: stores on which finding the stored cycle
that a new cyclic piece equals is hard.

A lookup that misses a candidate mints a second handle for a stored
set, and nothing reports it: handle equality just stops being set
equality.  So every family is checked three ways:

* encoding it again gives back the same handles and mints nothing;
* at small sizes, the naive bisimulation fixpoint relates no two
  stored handles;
* with every color made the same, so that every stored cycle is a
  candidate, the same handles come back: colors only filter the
  candidates, and refinement alone decides equality.

The count guards say how much a re-encoding lookup refines: its piece
plus the stored cycle it equals, and nothing else.  Where the colors
today make more cycles candidates, the guard is a strict xfail that
names the ROADMAP item that removes the cliff.

The time guards say how encoding a family scales: best of three at
size n and at 2n, the ratio below 3.  A ratio does not depend on how
fast the machine is, and a lookup that refines whole stored cycles it
names reads about 4 per doubling on ``named``.

Families, each a fixed function of its size:

* ``w2``: K cycles of 30 nodes, cycle k holding vn(k) at one node.
  Most nodes are more than ``COLOR_ROUNDS`` steps from that label, so
  they share one color in every cycle.
* ``chain``: the same, with cycle k also holding cycle k-1.
* ``named``: pieces x_i = {x_i, c_0, vn(i)} against one long cycle
  c_j = {c_j+1, vn(j)}.
* ``fold_omega``: x = {x, Ω} is Ω.
* ``fold_path``: y = {y, p0, vn(0)} is t, where t = {t, p0, vn(0)}
  and the path p0 -> ... -> p14 -> t are one stored cycle.
* ``collision``: one N-cycle per split of N into three gaps of at
  least 11, up to rotation, with vn(1) at the three split nodes.  No
  node sees two labels within ``COLOR_ROUNDS`` steps, so every cycle
  gets the same colors.
"""

from time import process_time

import pytest

from hyperset.universe import COLOR_ROUNDS, Universe

import test_universe
from oracles import distinct_pairs_bisimilar
from test_universe import counted_refinements

LONG = 3 * COLOR_ROUNDS  # the w2 and chain cycle length
GAP = COLOR_ROUNDS + 1  # the least collision gap


def ring(n: int) -> dict:
    return {j: frozenset({(j + 1) % n}) for j in range(n)}


def w2(u, k, encode):
    for i in range(k):
        encode(ring(LONG), {0: frozenset({u.vn(i)})})


def chain(u, k, encode):
    below = frozenset()
    for i in range(k):
        below = frozenset({encode(ring(LONG), {0: below | {u.vn(i)}})[0]})


def named(u, n, encode):
    c = encode(ring(n), {j: frozenset({u.vn(j)}) for j in range(n)})
    for i in range(n // 4):
        encode({0: frozenset({0})}, {0: frozenset({c[0], u.vn(i)})})


def fold_omega(u, _, encode):
    omega = encode({0: frozenset({0})}, {})[0]
    assert encode({0: frozenset({0})}, {0: frozenset({omega})}) == {0: omega}


def fold_path(u, m, encode):
    children = {0: frozenset({0, 1}), m: frozenset({0})}
    children.update({k: frozenset({k + 1}) for k in range(1, m)})
    refs = {0: frozenset({u.vn(0)})}
    t = encode(children, refs)
    assert encode({0: frozenset({0})}, {0: refs[0] | {t[1]}}) == {0: t[0]}


def splits(n: int):
    """Each (g1, g2, g3) of gaps at least ``GAP`` summing to ``n``, one
    per class under rotation: the least rotation."""
    for g1 in range(GAP, n):
        for g2 in range(GAP, n - g1 - GAP + 1):
            gaps = (g1, g2, n - g1 - g2)
            if gaps == min(gaps[i:] + gaps[:i] for i in range(3)):
                yield gaps


def collision(u, n, encode):
    for g1, g2, _ in splits(n):
        encode(ring(n), dict.fromkeys((0, g1, g1 + g2), frozenset({u.vn(1)})))


# family, tier-1 size, small size for the naive fixpoint
FAMILIES = {
    "w2": (w2, 12, 3),
    "chain": (chain, 12, 3),
    "named": (named, 60, 16),
    "fold_omega": (fold_omega, 0, 0),
    "fold_path": (fold_path, 15, 15),
    "collision": (collision, 39, 36),
}
# the count guards that the colors fail today, and the item removing each
CLIFFS = {"w2": 15, "chain": 15, "collision": 3}
# the size n of each time guard, timed at n and 2n
DOUBLING = {"named": 480, "fold_path": 120}


def encode_family(u, name, size):
    """Encode family ``name`` at ``size`` in ``u``: its pictures as
    (children, refs), and what each resolved to."""
    pictures, handles = [], []

    def encode(children, refs):
        pictures.append((children, refs))
        handles.append(u.canonicalize_all(children, refs))
        return handles[-1]

    FAMILIES[name][0](u, size, encode)
    return pictures, handles


def color_blind(monkeypatch):
    """Give every node the same color, so every stored cycle is filed
    under it and is a candidate of every lookup."""
    monkeypatch.setattr(Universe, "_color_rounds",
                        lambda self, piece, *args: dict.fromkeys(piece, 0))


@pytest.mark.parametrize("name", FAMILIES)
def test_re_encoding_gives_the_same_handles(name):
    u = Universe()
    pictures, handles = encode_family(u, name, FAMILIES[name][1])
    size = len(u)
    assert [u.canonicalize_all(c, r) for c, r in pictures] == handles
    assert len(u) == size


@pytest.mark.parametrize("name", FAMILIES)
def test_small_family_store_is_minimal(name):
    u = Universe()
    encode_family(u, name, FAMILIES[name][2])
    assert distinct_pairs_bisimilar(u) == []


@pytest.mark.parametrize("name", FAMILIES)
def test_color_blind_lookup_gives_the_same_handles(name, monkeypatch):
    u = Universe()
    pictures, handles = encode_family(u, name, FAMILIES[name][1])
    size = len(u)
    color_blind(monkeypatch)
    blind = Universe()
    assert encode_family(blind, name, FAMILIES[name][1]) == (pictures, handles)
    assert len(blind) == size
    assert [blind.canonicalize_all(c, r) for c, r in pictures] == handles
    assert len(blind) == size


@pytest.mark.parametrize("test", [
    test_universe.test_store_refs_match_naive_oracle_on_random_pictures,
    lambda: test_universe.test_canonical_store_matches_naive_oracle_on_random_pairs(Universe()),
    test_universe.test_store_stays_minimal_after_random_insertions,
], ids=["random_pictures", "random_pairs", "random_insertions"])
def test_color_blind_random_stores_match_the_oracle(test, monkeypatch):
    color_blind(monkeypatch)
    test()


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason=f"every cycle shares colors; ROADMAP item {CLIFFS[name]}"))
    if name in CLIFFS else name for name in FAMILIES])
def test_re_encoding_refines_only_its_piece_and_its_cycle(name, monkeypatch):
    u = Universe()
    pictures, handles = encode_family(u, name, FAMILIES[name][1])
    sizes = counted_refinements(monkeypatch)
    for (children, refs), resolved in zip(pictures, handles):
        sizes.clear()
        u.canonicalize_all(children, refs)
        cycle = u._cycle_of(resolved[0])
        assert len(sizes) == 1 and sizes[0] <= len(children) + len(cycle)


@pytest.mark.parametrize("name", DOUBLING)
def test_encoding_time_less_than_triples_per_doubling(name):
    def best(size):
        times = []
        for _ in range(3):
            t0 = process_time()
            encode_family(Universe(), name, size)
            times.append(process_time() - t0)
        return min(times)

    n = DOUBLING[name]
    assert best(2 * n) / best(n) < 3
