"""Byte-for-byte CLI output on fixed inputs.

Each case runs one CLI command on an input under ``tests/golden/`` and
compares stdout with the committed ``.out`` file.  The expected files
are CLI output, not hand-written: they change only when an output
format changes on purpose, and never as a side effect of a store or
lookup change, since canonical output depends only on the sets.
``cycle200`` and ``star3.seed120`` need many refinement rounds to
order their non-well-founded vertices (about 100 for the 200-node cycle
with two chords; the star's closure holds the numerals up to 122).
``star4.seed250`` and ``pattern5.seed200.component`` use atom seeds at
the top of the benchmark's ``star``/``component`` range, so their atoms
are the numerals vn(250..253) and vn(200..204).
``pattern5.seed1500.component`` ranks a closure that holds the numerals
up to 1504, of which only the five atoms have parents off the chain, so
it checks that the runs of numerals between them are ranked in one step
each, not in one refinement round per numeral.  ``solve-numeral3000``
is one equation over the numeral 3000: nothing in it has an order to
choose, so it prints at once, while ranking its closure of 4.5 million
memberships takes seconds.  ``star4-seed2000`` does have an order to
choose, over a closure that holds the numerals up to 2003: ranking
their two million memberships one by one took seconds, so it checks
that the numeral chain is ranked in bulk.  ``rado.check20000`` compares
membership with BIT adjacency on the 200 million pairs of codes up to
20000, which takes minutes pair by pair, so it checks that the comparison
reads each membership once.  In ``alias.hs`` two names denote one set,
so ``undirect`` is given a handle twice: each of its memberships must
still count once, and its double edge keep multiplicity 2.

Each case also runs on stores that already hold other sets, so that
handles differ from a fresh store's: the output must not change.

The ``err-*`` cases are system files that do not parse.  ``solve`` on
each must exit 1, print nothing to stdout and print exactly the
committed ``.err`` text to stderr, so a parse error keeps its message,
line and column.  They cover a trailing comment with no final newline
(the error is at the column of ``#``), a form feed and a non-ASCII
letter (neither is whitespace or part of a name; columns count
characters, and a tab is one column), an undeclared name and a
duplicate equation.
"""

import random
from pathlib import Path

import pytest

from hyperset import cli
from hyperset.cli import main
from hyperset.universe import Universe

from oracles import random_apg

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "alias.multi": ["undirect", "{dir}/alias.hs", "--mode", "multi"],
    "cycle40.solve": ["solve", "{dir}/cycle40.hs"],
    "solve-numeral3000": ["solve", "{dir}/numeral3000.hs"],
    "cycle40.multi": ["undirect", "{dir}/cycle40.hs", "--mode", "multi"],
    "cycle40.loopy": ["undirect", "{dir}/cycle40.hs", "--mode", "loopy"],
    "cycle40.double": ["undirect", "{dir}/cycle40.hs", "--mode", "double"],
    "cycle200.multi": ["undirect", "{dir}/cycle200.hs", "--mode", "multi"],
    "star5.seed30": ["star", "5", "--seed", "30"],
    "star3.seed120": ["star", "3", "--seed", "120"],
    "star4.seed250": ["star", "4", "--seed", "250"],
    "star4-seed2000": ["star", "4", "--seed", "2000"],
    "pattern5.component": ["component", "{dir}/pattern5.txt"],
    "pattern5.seed200.component": ["component", "{dir}/pattern5.txt", "--seed", "200"],
    "pattern5.seed1500.component": ["component", "{dir}/pattern5.txt", "--seed", "1500"],
    "witness.loopy": ["witness", "--loopy", "--u", "0,{2},{{3}}", "--v", "1,{4}"],
    "census6.seed40": ["census", "--max-n", "6", "--seed", "40"],
    "rado.check20000": ["rado", "--check", "20000"],
    "game6.loopy1.loopy2": ["game", "--rounds", "6", "--left", "loopy:1", "--right", "loopy:2"],
}

ERROR_CASES = {name: ["solve", f"{{dir}}/{name}.hs"] for name in (
    "err-trailing-comment", "err-form-feed", "err-non-ascii", "err-undeclared",
    "err-duplicate")}


def check_case(name, capsys):
    argv = [arg.replace("{dir}", str(GOLDEN)) for arg in CASES[name]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert captured.out == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, capsys):
    check_case(name, capsys)


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_cli_parse_error_is_byte_identical(name, capsys):
    argv = [arg.replace("{dir}", str(GOLDEN)) for arg in ERROR_CASES[name]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


def prefilled_universe(seed: int) -> Universe:
    """A store with a seeded history: random pictures with store refs,
    numerals built by ``make_set`` over the smaller ones in shuffled
    order, and random sets of stored sets."""
    rng = random.Random(seed)
    u = Universe()
    numerals = []
    for _ in range(60):
        step = rng.randrange(3)
        if step == 0:
            u.canonicalize(random_apg(rng, max_nodes=8, store=list(u.ids())))
        elif step == 1:
            numerals.append(u.make_set(rng.sample(numerals, len(numerals))))
        else:
            u.make_set(rng.sample(range(len(u)), min(len(u), rng.randint(0, 3))))
    return u


# game labels a witness whose code overflows by its handle, s<handle>,
# so its output depends on the store's history (CHANGES.md FOUND line;
# a handle-free label, ROADMAP item 6, removes this mark)
HISTORY_BOUND = {"game6.loopy1.loopy2"}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="game labels overflowing witnesses by handle"))
    if name in HISTORY_BOUND else name for name in sorted(CASES)])
def test_cli_output_does_not_depend_on_store_history(name, seed, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_universe", lambda: prefilled_universe(seed))
    check_case(name, capsys)
