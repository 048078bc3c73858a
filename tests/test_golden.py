"""Byte-for-byte CLI output on fixed inputs.

Each case runs one CLI command on an input under ``tests/golden/`` and
compares stdout with the committed ``.out`` file.  The expected files
are CLI output, not hand-written: they change only when an output
format changes on purpose, and never as a side effect of a store or
lookup change, since canonical output depends only on the sets.
``cycle200`` and ``star3.seed120`` need many refinement rounds to
order their non-well-founded vertices (about 100 for the 200-node cycle
with two chords; the star's closure holds the numerals up to 122).
"""

from pathlib import Path

import pytest

from hyperset.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "cycle40.solve": ["solve", "{dir}/cycle40.hs"],
    "cycle40.multi": ["undirect", "{dir}/cycle40.hs", "--mode", "multi"],
    "cycle40.loopy": ["undirect", "{dir}/cycle40.hs", "--mode", "loopy"],
    "cycle40.double": ["undirect", "{dir}/cycle40.hs", "--mode", "double"],
    "cycle200.multi": ["undirect", "{dir}/cycle200.hs", "--mode", "multi"],
    "star5.seed30": ["star", "5", "--seed", "30"],
    "star3.seed120": ["star", "3", "--seed", "120"],
    "pattern5.component": ["component", "{dir}/pattern5.txt"],
    "witness.loopy": ["witness", "--loopy", "--u", "0,{2},{{3}}", "--v", "1,{4}"],
    "census6.seed40": ["census", "--max-n", "6", "--seed", "40"],
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
