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
each, not in one refinement round per numeral.  ``pattern12.component``
has 12 vertices, more than the 10 up to which the CLI once re-checked a
component by backtracking search; its output, written before that
re-check went, checks that large and small patterns print alike.
``pattern5m.component`` reads ``pattern5`` as a space-separated 0/1
matrix and prints exactly what ``pattern5.component`` prints.
``solve-numeral3000`` is one equation over the numeral 3000: nothing in
it has an order to choose, so it prints at once, while ranking its
closure of 4.5 million memberships takes seconds.  ``numeral3000.double`` prints the
double-edge reduct of the same closure, whose only edge is the loop on
x, so it checks that ``undirect`` reads none of the 4.5 million
numeral memberships, which took seconds too.  ``star4-seed2000`` does
have an order to choose, over a closure that holds the numerals up to
2003: ranking their two million memberships one by one took seconds,
so it checks that the numeral chain is ranked in bulk.  ``rado.check20000`` compares
membership with BIT adjacency on the 200 million pairs of codes up to
20000, which takes minutes pair by pair, so it checks that the comparison
reads each membership once.  In ``alias.hs`` two names denote one set,
so ``undirect`` is given a handle twice: each of its memberships must
still count once, and its double edge keep multiplicity 2.
``chord400`` is shaped like the largest system files of the benchmark:
a 400-node cycle with chords, some of which reverse a cycle edge, and
a numeral, a nested and a wide literal as atoms.  With ``cycle200.solve``
it pins the output of the path from ``flat.solve`` through the cyclic
piece's refinement to the fresh stored cycle, the path every ``solve``
and ``undirect`` of a system file takes; being in ``CASES``, these also
run through the installed ``hyperset`` console script in CI, under two
hash seeds.  Its three graph modes pin how edge rows are built: loopy
rows mix the numeral chain's tail with other edges, all of
multiplicity 1, and the double-edge graph has no chain at all.

Each case also runs on stores that already hold other sets, so that
handles differ from a fresh store's: the output must not change.

The ``err-*`` cases are inputs that do not parse.  The CLI on each
must exit 1, print nothing to stdout and print exactly the committed
``.err`` text to stderr, so a parse error keeps its message, line and
column.  ``solve`` reads system files with a trailing comment and no
final newline (the error is at the column of ``#``), a form feed and a
non-ASCII letter (neither is whitespace or part of a name; columns
count characters, and a tab is one column), an undeclared name and a
duplicate equation.  ``component`` reads a 0/1 matrix whose rows 2
and 3 disagree, an error reported at the later row, line 3.
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
    "numeral3000.double": ["undirect", "{dir}/numeral3000.hs", "--mode", "double"],
    "cycle40.multi": ["undirect", "{dir}/cycle40.hs", "--mode", "multi"],
    "cycle40.loopy": ["undirect", "{dir}/cycle40.hs", "--mode", "loopy"],
    "cycle40.double": ["undirect", "{dir}/cycle40.hs", "--mode", "double"],
    "cycle200.multi": ["undirect", "{dir}/cycle200.hs", "--mode", "multi"],
    "cycle200.solve": ["solve", "{dir}/cycle200.hs"],
    "chord400.solve": ["solve", "{dir}/chord400.hs"],
    "chord400.multi": ["undirect", "{dir}/chord400.hs", "--mode", "multi"],
    "chord400.loopy": ["undirect", "{dir}/chord400.hs", "--mode", "loopy"],
    "chord400.double": ["undirect", "{dir}/chord400.hs", "--mode", "double"],
    "star5.seed30": ["star", "5", "--seed", "30"],
    "star3.seed120": ["star", "3", "--seed", "120"],
    "star4.seed250": ["star", "4", "--seed", "250"],
    "star4-seed2000": ["star", "4", "--seed", "2000"],
    "pattern5.component": ["component", "{dir}/pattern5.txt"],
    "pattern5.seed200.component": ["component", "{dir}/pattern5.txt", "--seed", "200"],
    "pattern5.seed1500.component": ["component", "{dir}/pattern5.txt", "--seed", "1500"],
    "pattern12.component": ["component", "{dir}/pattern12.txt"],
    "pattern5m.component": ["component", "{dir}/pattern5m.txt", "--pattern-format", "matrix"],
    "witness.loopy": ["witness", "--loopy", "--u", "0,{2},{{3}}", "--v", "1,{4}"],
    "census6.seed40": ["census", "--max-n", "6", "--seed", "40"],
    "rado.check20000": ["rado", "--check", "20000"],
    "game6.loopy1.loopy2": ["game", "--rounds", "6", "--left", "loopy:1", "--right", "loopy:2"],
}

ERROR_CASES = {name: ["solve", f"{{dir}}/{name}.hs"] for name in (
    "err-trailing-comment", "err-form-feed", "err-non-ascii", "err-undeclared",
    "err-duplicate")}
ERROR_CASES["err-matrix-asymmetric"] = [
    "component", "{dir}/err-matrix-asymmetric.txt", "--pattern-format", "matrix"]


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
