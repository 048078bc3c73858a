"""Model test: one store driven by random sequences of operations.

A Hypothesis state machine builds sets every way the library allows --
numerals, element lists, unions, random pictures with store refs, their
bisimilar variants, copies of stored sets whose edges partly become
store refs, and near-numerals -- and sends them through the text
formats and back.  Checked throughout:

* the store is bisimulation-minimal (by the naive fixpoint, up to the
  step at which the store outgrows ``MINIMALITY_CAP``);
* ``numerals()`` is exactly the stored numerals in order, an immutable
  snapshot, and ``numeral_of`` agrees with a frozenset decode;
* queries, serialization and round trips never grow the store, and
  round trips and re-pictures give back the same handle;
* the store's list of cycles is exactly its strongly connected pieces
  that lie on a membership cycle, and the color index files stored
  cycles: each once per color, and all of them once it files any.

The machine runs a second time, with fewer examples, on a store that
gives every node the same color, so that every stored cycle is a
candidate of every lookup: the checks above must still hold.
"""

import random

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from hyperset.flat import solve
from hyperset.reducts import closure
from hyperset.serialize import normal_form, serialize_set
from hyperset.sysfile import parse_set_literal, parse_system
from hyperset.universe import Universe, _sccs

from oracles import bisimilar_variant, distinct_pairs_bisimilar, naive_numerals, random_apg

MINIMALITY_CAP = 40  # the naive fixpoint is quadratic in the store
SEEDS = st.integers(0, 2 ** 32 - 1)


class StoreMachine(RuleBasedStateMachine):
    sets = Bundle("sets")

    def __init__(self):
        super().__init__()
        self.u = Universe()
        self.snapshot = ((), [])
        self.minimality_checked = False

    def unchanged_size(self, size):
        assert len(self.u) == size, "a query or round trip grew the store"

    @initialize(target=sets, seed=SEEDS)
    def first_picture(self, seed):
        return self.picture(seed, [])

    @rule(target=sets, n=st.integers(0, 9))
    def vn(self, n):
        s = self.u.vn(n)
        assert self.u.numeral_of(s) == n
        return s

    @rule(target=sets, members=st.lists(sets, max_size=4))
    def make_set(self, members):
        size = len(self.u)
        found = self.u.find_set(members)
        self.unchanged_size(size)
        s = self.u.make_set(members)
        assert set(self.u.elements(s)) == set(members)
        if found is None:
            assert len(self.u) == size + 1
        else:
            assert s == found
            self.unchanged_size(size)
        return s

    @rule(target=sets, parts=st.lists(sets, max_size=3))
    def union_of(self, parts):
        s = self.u.union_of(parts)
        assert set(self.u.elements(s)) == {e for p in parts for e in self.u.elements(p)}
        return s

    @rule(target=sets, d=st.integers(-3, 2), i=st.integers(0, 7), other=sets)
    def near_numeral(self, d, i, other):
        """vn(k) with one element below its top swapped for a stored set
        that is not a numeral, k near the number of stored numerals."""
        if self.u.numeral_of(other) is not None:
            return multiple()
        k = max(2, len(self.u.numerals()) + d)
        members = [self.u.vn(j) for j in range(k)]
        members[i % (k - 1)] = other
        return self.u.make_set(members)

    @rule(target=sets, seed=SEEDS, refs=st.lists(sets, max_size=4))
    def picture(self, seed, refs):
        """A random picture with store refs, then a bisimilar variant of it."""
        rng = random.Random(seed)
        g = random_apg(rng, max_nodes=5, store=refs)
        resolved = self.u.canonicalize_all(g.children, g.store_refs)
        size = len(self.u)
        assert self.u.canonicalize(bisimilar_variant(rng, g)) == resolved[g.root]
        self.unchanged_size(size)
        return multiple(*sorted(set(resolved.values())))

    @rule(s=sets, seed=SEEDS)
    def repicture(self, s, seed):
        """A copy of the closure of ``s`` in which some memberships are
        store refs to the stored element instead of picture edges."""
        rng = random.Random(seed)
        share = rng.random()
        verts = sorted(closure(self.u, [s]))
        children, refs = {}, {}
        for x in verts:
            kids, rs = children.setdefault(x, set()), refs.setdefault(x, set())
            for e in self.u.elements(x):
                (rs if rng.random() < share else kids).add(e)
        size = len(self.u)
        resolved = self.u.canonicalize_all(children, refs)
        self.unchanged_size(size)
        assert resolved == {x: x for x in verts}

    @rule(s=sets)
    def text_round_trips(self, s):
        u = self.u
        size = len(u)
        text = serialize_set(u, s)
        self.unchanged_size(size)
        if u.is_well_founded(s):
            assert parse_set_literal(u, text) == s
        else:
            assert solve(u, parse_system(u, text))["ν0"] == s
        text = normal_form(u, [("r", s)])
        self.unchanged_size(size)
        assert solve(u, parse_system(u, text))["r"] == s
        self.unchanged_size(size)

    def check_minimal(self):
        """No two stored handles are bisimilar.  Sets never change, so a
        duplicate stays one: a single check, once the store outgrows the
        cap or at teardown, sees every duplicate minted before it."""
        if not self.minimality_checked:
            self.minimality_checked = True
            assert distinct_pairs_bisimilar(self.u) == []

    @invariant()
    def store_is_minimal(self):
        if len(self.u) > MINIMALITY_CAP:
            self.check_minimal()

    def teardown(self):
        self.check_minimal()

    @invariant()
    def numerals_are_the_stored_numerals(self):
        u = self.u
        size = len(u)
        decoded = naive_numerals(u)
        numerals = u.numerals()
        assert isinstance(numerals, tuple)
        assert numerals == tuple(sorted(decoded, key=decoded.get))
        assert all(u.numeral_of(s) == decoded.get(s) for s in u.ids())
        self.unchanged_size(size)
        earlier, copy = self.snapshot
        assert list(earlier) == copy, "an earlier numerals() snapshot changed"
        self.snapshot = numerals, list(numerals)

    @invariant()
    def cycles_are_the_cyclic_pieces(self):
        """``_cycles`` is exactly the strongly connected pieces of the
        store that lie on a membership cycle, in handle order."""
        u = self.u
        kids = {s: u.elements(s) for s in u.ids()}
        pieces = [sorted(c) for c in _sccs(kids, kids)
                  if len(c) > 1 or c[0] in kids[c[0]]]
        assert sorted(pieces) == [list(c) for c in u._cycles]

    @invariant()
    def bucket_files_stored_cycles(self):
        """Every ``_bucket`` list holds distinct indices into ``_cycles``.
        The first cycle is filed at the first lookup and every later one
        at its mint, so once anything is filed every cycle is."""
        u = self.u
        assert all(len(set(ks)) == len(ks) for ks in u._bucket.values())
        if u._bucket:
            assert set().union(*u._bucket.values()) == set(range(len(u._cycles)))


class ColorBlindUniverse(Universe):
    """A store whose colors file every stored cycle under one color, so
    every stored cycle is a candidate of every lookup."""

    def _color_rounds(self, piece, *args):
        return dict.fromkeys(piece, 0)


class ColorBlindStoreMachine(StoreMachine):
    """The same rules and invariants on a :class:`ColorBlindUniverse`:
    colors only pick the candidates, and refinement alone decides which
    stored set a piece equals."""

    def __init__(self):
        super().__init__()
        self.u = ColorBlindUniverse()


TestStoreModel = StoreMachine.TestCase
TestStoreModel.settings = settings(max_examples=100, stateful_step_count=25, deadline=None,
                                   suppress_health_check=[HealthCheck.too_slow])
TestColorBlindStoreModel = ColorBlindStoreMachine.TestCase
TestColorBlindStoreModel.settings = settings(max_examples=50, stateful_step_count=25,
                                             deadline=None,
                                             suppress_health_check=[HealthCheck.too_slow])
