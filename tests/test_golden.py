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
are the numerals vn(250..253) and vn(200..204).  ``solve-numeral3000``
is one equation over the numeral 3000: nothing in it has an order to
choose, so it prints at once, while ranking its closure of 4.5 million
memberships takes seconds.  ``star4-seed2000`` does have an order to
choose, over a closure that holds the numerals up to 2003: ranking
their two million memberships one by one took seconds, so it checks
that the numeral chain is ranked in bulk.  ``rado.check20000`` compares
membership with BIT adjacency on the 200 million pairs of codes up to
20000, which takes minutes pair by pair, so it checks that the comparison
reads each membership once.
"""

from pathlib import Path

import pytest

from hyperset.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
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
    "witness.loopy": ["witness", "--loopy", "--u", "0,{2},{{3}}", "--v", "1,{4}"],
    "census6.seed40": ["census", "--max-n", "6", "--seed", "40"],
    "rado.check20000": ["rado", "--check", "20000"],
    "game6.loopy1.loopy2": ["game", "--rounds", "6", "--left", "loopy:1", "--right", "loopy:2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, capsys):
    argv = [arg.replace("{dir}", str(GOLDEN)) for arg in CASES[name]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert captured.out == expected
