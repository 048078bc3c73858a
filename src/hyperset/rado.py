"""BIT-predicate graph, Ackermann coding, and back-and-forth games.

The BIT graph has the naturals as vertices, a < b adjacent exactly when
bit a of b is set.  Coding a hereditarily finite well-founded set by
code(x) = sum of 2^code(y) over its elements y turns the undirected
membership graph into precisely that graph, which is what the
correspondence check below verifies on every pair of codes, reading
each membership once.

``back_and_forth`` plays the classical extension game between any two
oracles exposing an enumeration, adjacency, loops and a witness
procedure, and returns the partial isomorphism it built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from .errors import ContractViolation, DomainError, PreconditionError
from .reducts import adjacent, has_loop
from .universe import SetId, Universe
from .witnesses import (PatternGraph, _disjoint_sorted, arp_witness_loopy, arp_witness_simple,
                        component, star)

DEFAULT_CODE_BOUND = 2 ** 64


def bit_adjacent(a: int, b: int) -> bool:
    """Symmetric, irreflexive: for a < b, bit a of b decides."""
    if a == b:
        return False
    if a > b:
        a, b = b, a
    return (b >> a) & 1 == 1


def bit_positions(n: int):
    """Indices of set bits, ascending; linear in the popcount."""
    while n:
        low = n & -n
        yield low.bit_length() - 1
        n ^= low


def bit_witness(us, vs) -> int:
    """BIT-graph extension witness: sum of 2^u plus a fresh top bit.

    The top bit exponent is max(U union V) + 1, which forces the result
    above everything given, so only the low-bit conditions matter.
    """
    us, vs = _disjoint_sorted(us, vs)
    if any(a < 0 for a in us + vs):
        raise PreconditionError("vertices are naturals")
    m = max(us + vs, default=-1) + 1
    return sum(1 << a for a in us) + (1 << m)


class AckermannCoder:
    """Bijection between well-founded stored sets and naturals.

    ``bound`` caps code values (default 2^64) so that accidentally deep
    sets fail fast instead of materializing towers of exponentials;
    pass ``bound=None`` to lift the cap.  Overflow is remembered: a set
    whose code exceeds the bound raises ``DomainError`` at once on every
    later call, and so does a set with such an element, so labelling a
    whole closure in code order looks at each set about once.
    """

    def __init__(self, u: Universe, bound: int | None = DEFAULT_CODE_BOUND):
        self.u = u
        self.bound = bound
        self._codes: dict[SetId, int] = {}
        self._decodes: dict[int, SetId] = {}
        self._overflow: set[SetId] = set()

    def _overflowed(self, x: SetId) -> DomainError:
        self._overflow.add(x)
        return DomainError(f"code of set {x} exceeds the bound of {self.bound}")

    def code(self, s: SetId) -> int:
        u = self.u
        if not u.is_well_founded(s):
            raise DomainError("Ackermann coding is undefined on hypersets")
        known = self._codes
        over = self._overflow
        stack = [s]
        while stack:
            x = stack[-1]
            if x in known:
                stack.pop()
                continue
            elems = u.elements(x)
            if x in over or elems and elems[-1] in over:  # vn(k) holds vn(k-1) last
                raise self._overflowed(x)
            pending = [e for e in elems if e not in known]
            if pending:
                if not over.isdisjoint(pending):
                    raise self._overflowed(x)
                stack.extend(pending)
                continue
            total = 0
            for e in elems:
                ce = known[e]
                if self.bound is not None and ce >= self.bound.bit_length():
                    raise self._overflowed(x)
                total += 1 << ce
            if self.bound is not None and total > self.bound:
                raise self._overflowed(x)
            known[x] = total
            stack.pop()
        return known[s]

    def decode(self, n: int) -> SetId:
        if n < 0:
            raise DomainError("codes are naturals")
        known = self._decodes
        if n not in known:
            members = [known[p] if p in known else self.decode(p) for p in bit_positions(n)]
            known[n] = self.u.make_set(members)
            self._codes.setdefault(known[n], n)
        return known[n]


def ackermann_code(u: Universe, s: SetId, bound: int | None = DEFAULT_CODE_BOUND) -> int:
    return AckermannCoder(u, bound).code(s)


def ackermann_decode(u: Universe, n: int) -> SetId:
    return AckermannCoder(u).decode(n)


def coding_correspondence(u: Universe, max_code: int):
    """Compare membership adjacency with BIT adjacency on 0..max_code.

    Returns (number of sets, number of pairs, list of mismatching code
    pairs (a, b), a < b, in order); an empty list realizes the
    `precisely Rado's graph` claim at this scale.

    Each membership is read once.  Row b holds a bit for every code
    a < b whose set is adjacent to that of b, and for a < b BIT
    adjacency is bit a of b, so the mismatches of b are the set bits of
    row ^ b.  A set with an element of a larger code never occurs in a
    correct coding; such a membership waits in ``later`` for the row of
    that code.
    """
    if max_code < 0:
        raise PreconditionError("max_code must be a natural number")
    coder = AckermannCoder(u)
    sets = [coder.decode(n) for n in range(max_code + 1)]
    codes: dict[SetId, list[int]] = {}
    for n, s in enumerate(sets):
        codes.setdefault(s, []).append(n)
    later: dict[int, int] = {}
    mismatches = []
    for b, s in enumerate(sets):
        row = later.pop(b, 0)
        for e in u.elements(s):
            for a in codes.get(e, ()):
                if a < b:
                    row |= 1 << a
                elif a > b:
                    later[a] = later.get(a, 0) | 1 << b
        mismatches.extend((a, b) for a in bit_positions(row ^ b))
    mismatches.sort()
    return len(codes), max_code * (max_code + 1) // 2, mismatches


# -- extension oracles and the game -------------------------------------


@dataclass
class ExtensionOracle:
    """Vertex enumeration plus the predicates the game needs.

    ``witness(us, vs)`` must return a vertex adjacent to everything in
    ``us`` and nothing in ``vs`` and distinct from both; loopy oracles
    return a pair (loopless witness, looped witness) instead.
    """

    kind: str  # "simple" | "loopy"
    vertex: Callable[[int], Any]
    adjacent: Callable[[Any, Any], bool]
    has_loop: Callable[[Any], bool]
    witness: Callable[[list, list], Any]
    label: Callable[[Any], str] = field(default=str)


@dataclass
class PartialIso:
    """Finite partial isomorphism built by the game, in match order."""

    pairs: list[tuple]

    def as_dict(self) -> dict:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def check(self, oa: ExtensionOracle, ob: ExtensionOracle) -> bool:
        """Brute-force re-verification of the preservation invariants."""
        lefts = [a for a, _ in self.pairs]
        rights = [b for _, b in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            return False
        for i, (a, b) in enumerate(self.pairs):
            if oa.has_loop(a) != ob.has_loop(b):
                return False
            for a2, b2 in self.pairs[i + 1:]:
                if oa.adjacent(a, a2) != ob.adjacent(b, b2):
                    return False
        return True


def _next_unmatched(oracle: ExtensionOracle, matched, start: int):
    i = start
    while True:
        v = oracle.vertex(i)
        i += 1
        if v not in matched:
            return v, i


def _checked_witness(oracle: ExtensionOracle, us, vs, want_loop, matched, round_no):
    got = oracle.witness(us, vs)
    if oracle.kind == "loopy":
        z1, z2 = got
        w = z2 if want_loop else z1
    else:
        w = got
    context = f"round {round_no}: witness(U={us}, V={vs})"
    if w in matched:
        raise ContractViolation(f"{context} returned already-matched {w}")
    if oracle.has_loop(w) != (want_loop if oracle.kind == "loopy" else False):
        raise ContractViolation(f"{context} returned {w} with wrong loop status")
    for a in us:
        if not oracle.adjacent(w, a):
            raise ContractViolation(f"{context} returned {w} not adjacent to {a}")
    for b in vs:
        if oracle.adjacent(w, b):
            raise ContractViolation(f"{context} returned {w} adjacent to {b}")
    return w


def back_and_forth(oa: ExtensionOracle, ob: ExtensionOracle, rounds: int) -> PartialIso:
    """Alternating extension game; one matched pair per round.

    Even rounds pull the next unmatched enumerated vertex on the left
    and match it through the right oracle's witness procedure, odd
    rounds go the other way.  U collects the images of the pulled
    vertex's matched neighbors, V the images of the matched
    non-neighbors; in loopy mode the witness is picked by loop status.
    """
    if rounds < 0:
        raise PreconditionError("rounds must be a natural number")
    if oa.kind != ob.kind:
        raise PreconditionError(
            f"oracles disagree on loop mode: {oa.kind} vs {ob.kind}")
    pairs: list[tuple] = []
    sides = ((oa, {}), (ob, {}))  # each oracle with its matched vertex -> image
    start = [0, 0]
    for r in range(rounds):
        side = r % 2  # this side pulls a vertex, the other answers with a witness
        (pull, pulled), (answer, answered) = sides[side], sides[1 - side]
        v, start[side] = _next_unmatched(pull, pulled, start[side])
        us = [pulled[a] for a in pulled if pull.adjacent(v, a)]
        vs = [pulled[a] for a in pulled if not pull.adjacent(v, a)]
        w = _checked_witness(answer, us, vs, pull.has_loop(v), answered, r)
        pulled[v] = w
        answered[w] = v
        pairs.append((w, v) if side else (v, w))
    return PartialIso(pairs)


# -- concrete oracles -----------------------------------------------------


def _bit_game_witness(us, vs) -> int:
    """Deterministic fresh BIT witness that resists exponential blowup.

    Scans small vertices first, then the set-bit positions of any huge
    members of U (a fresh witness below them must be one of their
    bits), then small sums with a fresh top bit; the textbook
    :func:`bit_witness` is the last resort and is refused once it stops
    being representable.
    """
    us, vs = _disjoint_sorted(us, vs)
    us_set, vs_set = set(us), set(vs)

    def ok(z):
        return (z not in us_set and z not in vs_set
                and all(bit_adjacent(z, a) for a in us)
                and not any(bit_adjacent(z, b) for b in vs))

    for z in range(4096):
        if ok(z):
            return z
    big = [a for a in us if a >= 4096]
    if big:
        shared = None
        for a in big:
            bits = set(bit_positions(a))
            shared = bits if shared is None else shared & bits
        for z in sorted(shared or ()):
            if ok(z):
                return z
    else:
        base = sum(1 << a for a in us)
        for m in range(4096):
            if m in us_set:
                continue
            z = base + (1 << m)
            if ok(z):
                return z
    top = max(us + vs, default=-1) + 1
    if top > 5_000_000:
        raise ContractViolation(
            "no representable BIT witness for this configuration")
    return bit_witness(us, vs)


def bit_graph_oracle() -> ExtensionOracle:
    """The BIT graph itself: vertices are the naturals in order."""
    return ExtensionOracle(
        kind="simple",
        vertex=lambda i: i,
        adjacent=bit_adjacent,
        has_loop=lambda v: False,
        witness=_bit_game_witness,
        label=str,
    )


def hf_membership_oracle(u: Universe) -> ExtensionOracle:
    """Undirected membership on well-founded sets, in decode order."""
    coder = AckermannCoder(u)

    def label(v):
        try:
            return str(coder.code(v))
        except DomainError:
            return f"s{v}"

    return ExtensionOracle(
        kind="simple",
        vertex=coder.decode,
        adjacent=partial(adjacent, u),
        has_loop=partial(has_loop, u),
        witness=lambda us, vs: arp_witness_simple(u, us, vs),
        label=label,
    )


_SMALL_PATTERNS = [
    PatternGraph(size=1, edges=frozenset(), loops=frozenset({0})),
    PatternGraph(size=2, edges=frozenset({(0, 1)}), loops=frozenset()),
    PatternGraph(size=2, edges=frozenset({(0, 1)}), loops=frozenset({0})),
    PatternGraph(size=3, edges=frozenset({(0, 1), (1, 2), (0, 2)}),
                 loops=frozenset({1})),
]


def hyperset_loopy_oracle(u: Universe, seed: int = 0) -> ExtensionOracle:
    """Loopy membership oracle over a seeded mix of constructions.

    The enumeration interleaves small well-founded sets, double-degree
    stars, and pattern components, so games exercise loops and double
    edges; the witness procedure is the loopy extension construction.
    """
    cache: dict[int, SetId] = {}
    labels: dict[SetId, str] = {}  # the first label built for each set

    def build(i: int) -> tuple:
        rng = random.Random(f"loopy:{seed}:{i}")
        kind = rng.randrange(4)
        if kind == 0:
            n = rng.randrange(8)
            return u.vn(n), f"vn{n}"
        if kind == 1:
            ks = rng.sample(range(8), rng.randint(0, 3))
            return u.make_set([u.vn(k) for k in ks]), "wf" + "".join(map(str, sorted(ks)))
        if kind == 2:
            n = rng.randint(0, 3)
            base = 100 + (17 * i) % 311
            y, xs = star(u, n, atom_seed=base)
            if xs and rng.random() < 0.5:
                j = rng.randrange(len(xs))
                return xs[j], f"star{n}.x{j}@{base}"
            return y, f"star{n}.y@{base}"
        pat = rng.choice(_SMALL_PATTERNS)
        base = 500 + (29 * i) % 377
        ys, _ = component(u, pat, atom_seed=base)
        j = rng.randrange(len(ys))
        return ys[j], f"comp{pat.size}.v{j}@{base}"

    def vertex(i: int):
        if i not in cache:
            cache[i], lab = build(i)
            labels.setdefault(cache[i], lab)
        return cache[i]

    def label(v):
        return labels.get(v) or f"s{v}"

    return ExtensionOracle(
        kind="loopy",
        vertex=vertex,
        adjacent=partial(adjacent, u),
        has_loop=partial(has_loop, u),
        witness=lambda us, vs: arp_witness_loopy(u, us, vs)[:2],
        label=label,
    )
