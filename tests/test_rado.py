import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hyperset import cli
from hyperset.errors import ContractViolation, DomainError, PreconditionError
from hyperset.rado import (
    AckermannCoder,
    ExtensionOracle,
    ackermann_code,
    ackermann_decode,
    back_and_forth,
    bit_adjacent,
    bit_graph_oracle,
    bit_witness,
    coding_correspondence,
    hf_membership_oracle,
    hyperset_loopy_oracle,
)
from hyperset.reducts import closure, undirect
from hyperset.serialize import emit_graph
from hyperset.universe import Apg, Universe

from oracles import naive_coding_correspondence, random_apg

OMEGA = Apg(children={0: frozenset({0})}, root=0)


# -- BIT predicate -------------------------------------------------------


def test_bit_adjacent_examples():
    assert bit_adjacent(0, 1)       # 1 = 0b1, bit 0 set
    assert bit_adjacent(1, 2)       # 2 = 0b10, bit 1 set
    assert not bit_adjacent(0, 2)   # bit 0 of 2 unset


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_bit_adjacent_symmetric_irreflexive(a, b):
    assert bit_adjacent(a, b) == bit_adjacent(b, a)
    assert not bit_adjacent(a, a)


# -- Ackermann coding ------------------------------------------------------


def test_coding_small_examples(u):
    assert ackermann_code(u, u.vn(0)) == 0
    assert ackermann_code(u, u.make_set([u.vn(0)])) == 1
    assert ackermann_code(u, u.vn(2)) == 3  # 2^0 + 2^1
    assert ackermann_decode(u, 0) == u.vn(0)
    assert ackermann_decode(u, 1) == u.vn(1)
    assert ackermann_decode(u, 3) == u.vn(2)


def test_coding_round_trip(u):
    for n in range(300):
        assert ackermann_code(u, ackermann_decode(u, n)) == n


def test_code_direction_matches_bit(u):
    for a in range(40):
        for b in range(a + 1, 40):
            sa, sb = ackermann_decode(u, a), ackermann_decode(u, b)
            assert u.is_member(sa, sb) == bit_adjacent(a, b)
            assert not u.is_member(sb, sa)


def test_coding_undefined_on_hypersets(u):
    omega = u.canonicalize(OMEGA)
    with pytest.raises(DomainError):
        ackermann_code(u, omega)


def test_code_bound_guard(u):
    # code(vn(5)) = 2059 + 2^2059 blows the default 2^64 bound
    with pytest.raises(DomainError):
        ackermann_code(u, u.vn(5))
    unbounded = AckermannCoder(u, bound=None)
    assert unbounded.code(u.vn(4)) == 2059
    assert unbounded.code(u.vn(5)) == 2059 + 2 ** 2059


def test_code_remembers_overflow(u, monkeypatch):
    with pytest.raises(DomainError):
        ackermann_code(u, u.vn(5))
    coder = AckermannCoder(u)
    for _ in range(2):
        with pytest.raises(DomainError):
            coder.code(u.vn(5))

    numerals = [u.vn(k) for k in range(241)]
    calls = []
    elements = u.elements
    monkeypatch.setattr(u, "elements", lambda s: calls.append(s) or elements(s))
    coder = AckermannCoder(u)
    labels = []
    for s in numerals:
        try:
            labels.append(coder.code(s))
        except DomainError:
            labels.append(None)
    assert labels[:5] == [0, 1, 3, 11, 2059]
    assert labels[5:] == [None] * 236
    assert len(calls) <= 3 * 241


def test_correspondence_sweep(u):
    nsets, pairs, mismatches = coding_correspondence(u, 256)
    assert nsets == 257
    assert pairs == 257 * 256 // 2
    assert mismatches == []


def tampered_coding(monkeypatch, seed):
    """A store of random well-founded sets and cyclic pieces with store
    refs, and a code bound, with ``AckermannCoder.decode`` patched to
    send some codes to random stored handles, repeats included."""
    rng = random.Random(seed)
    u = Universe()
    pool = [u.vn(k) for k in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 6)):
        pool.append(u.make_set(rng.sample(pool, rng.randint(0, len(pool)))))
    for _ in range(rng.randint(0, 3)):
        g = random_apg(rng, max_nodes=5, store=pool)
        pool.extend(u.canonicalize_all(g.children, g.store_refs).values())
    max_code = rng.randint(0, 40)
    share = rng.random()
    table = {n: rng.choice(pool) for n in range(max_code + 1) if rng.random() < share}
    decode = AckermannCoder.decode
    monkeypatch.setattr(AckermannCoder, "decode",
                        lambda self, n: table[n] if n in table else decode(self, n))
    return u, max_code


def test_correspondence_equals_pairwise_oracle_on_tampered_decodes(monkeypatch):
    for seed in range(300):
        with monkeypatch.context() as m:
            u, max_code = tampered_coding(m, seed)
            expected = naive_coding_correspondence(u, max_code)
            assert coding_correspondence(u, max_code) == expected, f"seed {seed}"


def test_cli_rado_reports_the_first_mismatch(monkeypatch, capsys):
    checked = 0
    for seed in range(40):
        with monkeypatch.context() as m:
            u, max_code = tampered_coding(m, seed)
            _, _, mismatches = naive_coding_correspondence(u, max_code)
            m.setattr(cli, "_universe", lambda: u)
            code = cli.main(["rado", "--check", str(max_code)])
        captured = capsys.readouterr()
        if not mismatches:
            assert code == 0
            continue
        checked += 1
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: {len(mismatches)} pairs disagree with BIT "
                                f"adjacency, first {mismatches[0]}\n")
    assert checked > 10


def test_correspondence_reads_memberships_not_pairs(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a pair was probed with is_member")
    monkeypatch.setattr(Universe, "is_member", forbidden)
    assert coding_correspondence(Universe(), 20000) == (20001, 200010000, [])


def test_correspondence_decodes_each_code_once(monkeypatch):
    # decoding 0..N in order finds every bit's member decoded already
    calls = []
    decode = AckermannCoder.decode
    monkeypatch.setattr(AckermannCoder, "decode",
                        lambda self, n: calls.append(n) or decode(self, n))
    u = Universe()
    assert coding_correspondence(u, 214) == (215, 214 * 215 // 2, [])
    assert sorted(calls) == list(range(215))
    # out of order, a code is decoded where its bit is first met, depth
    # first over ascending bits, and never again
    calls.clear()
    AckermannCoder(Universe()).decode(2 ** 11 + 2 ** 3 + 2 ** 0)
    assert calls == [2057, 0, 3, 1, 11]


def test_coding_keeps_no_universe_alive():
    uni = Universe()
    ref = weakref.ref(uni)
    ackermann_code(uni, ackermann_decode(uni, 11))
    coding_correspondence(uni, 16)
    oracle = hf_membership_oracle(uni)
    oracle.label(oracle.vertex(3))
    sl = closure(uni, [ackermann_decode(uni, 5)])
    emit_graph(uni, undirect(uni, sl, "loopy"))
    del uni, oracle, sl
    gc.collect()
    assert ref() is None


# -- BIT witnesses ---------------------------------------------------------


def test_bit_witness_examples():
    assert bit_witness([0], []) == 3         # 2^0 + 2^1
    assert bit_witness([], [0]) == 2         # 2^1, bit 0 unset
    assert bit_witness([1, 2], [3]) == 22    # 2^1 + 2^2 + 2^4


def test_bit_witness_rejects_overlap():
    with pytest.raises(PreconditionError):
        bit_witness([1], [1])


def test_bit_witness_soundness_sweep():
    rng = random.Random(41)
    for _ in range(1000):
        pool = rng.sample(range(31), rng.randint(0, 8))
        cut = rng.randint(0, len(pool))
        us, vs = pool[:cut], pool[cut:]
        z = bit_witness(us, vs)
        assert z not in us and z not in vs
        for a in us:
            assert bit_adjacent(z, a)
        for b in vs:
            assert not bit_adjacent(z, b)


def test_game_witness_falls_back_to_bit_witness():
    # every small vertex and every small fresh top bit is taken by U
    witness = bit_graph_oracle().witness
    us = range(4096)
    assert witness(us, []) == bit_witness(us, []) == (1 << 4097) - 1
    with pytest.raises(ContractViolation):
        witness(us, [5_000_000])


# -- back-and-forth games ----------------------------------------------------


def test_game_zero_rounds(u):
    iso = back_and_forth(bit_graph_oracle(), hf_membership_oracle(u), 0)
    assert len(iso) == 0 and iso.as_dict() == {}


def test_game_bit_vs_hf_with_coding_cross_check(u):
    left, right = bit_graph_oracle(), hf_membership_oracle(u)
    iso = back_and_forth(left, right, 10)
    assert len(iso) == 10
    assert iso.check(left, right)
    codes = {}
    for a, b in iso.pairs:
        try:
            codes[a] = ackermann_code(u, b)
        except DomainError:
            continue  # witness sets may outgrow the code bound
    assert len(codes) >= 2
    for a1, c1 in codes.items():
        for a2, c2 in codes.items():
            if a1 < a2:
                assert bit_adjacent(a1, a2) == bit_adjacent(c1, c2)


def test_game_loopy_oracles_with_different_seeds():
    ua, ub = Universe(), Universe()
    oa = hyperset_loopy_oracle(ua, seed=3)
    ob = hyperset_loopy_oracle(ub, seed=4)
    iso = back_and_forth(oa, ob, 8)
    assert len(iso) == 8
    assert iso.check(oa, ob)
    # loop status must agree pair by pair
    for a, b in iso.pairs:
        assert ua.is_member(a, a) == ub.is_member(b, b)


def test_game_rejects_mixed_modes(u):
    with pytest.raises(PreconditionError):
        back_and_forth(bit_graph_oracle(), hyperset_loopy_oracle(u), 2)


def test_game_flags_defective_oracle(u):
    # a witness that ignores V breaks the contract as soon as V is nonempty
    broken = ExtensionOracle(
        kind="simple",
        vertex=lambda i: i,
        adjacent=bit_adjacent,
        has_loop=lambda v: False,
        witness=lambda us, vs: sum(1 << a for a in us) + (1 << (max(us + vs, default=-1) + 1)) + (1 << vs[0] if vs else 0),
        label=str,
    )
    with pytest.raises(ContractViolation) as err:
        back_and_forth(bit_graph_oracle(), broken, 6)
    assert "witness" in str(err.value)


def test_partial_iso_check_catches_corruption(u):
    left, right = bit_graph_oracle(), hf_membership_oracle(u)
    iso = back_and_forth(left, right, 6)
    assert iso.check(left, right)
    broken = iso.pairs[:]
    broken[0] = (broken[0][0], broken[1][1])
    from hyperset.rado import PartialIso
    assert not PartialIso(broken).check(left, right)
