import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyperset import cli, witnesses
from hyperset.cli import main
from hyperset.reducts import undirect

from oracles import element_reads, parse_graph_output

PAIR_TEXT = "atom a = 0\natom b = 1\nx = {y,a}\ny = {x,b}\n"

FOUR_CYCLE = """\
vertices 4
edge 0 1
edge 1 2
edge 2 3
edge 3 0
loop 0
"""


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_process(*argv):
    """Run the CLI in a child interpreter, so a crash shows as a traceback
    on stderr and not as an exception in the test."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "hyperset", *argv], capture_output=True,
                          text=True, encoding="utf-8", timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_membership_pair(tmp_path, capsys):
    f = tmp_path / "pair.hs"
    f.write_text(PAIR_TEXT)
    code, out, err = run(capsys, "solve", str(f))
    assert code == 0 and err == ""
    assert out == "atom a0 = 0\natom a1 = 1\nx = {a0,y}\ny = {a1,x}\n"


def test_solve_round_trip_fixpoint(tmp_path, capsys):
    f = tmp_path / "pair.hs"
    f.write_text(PAIR_TEXT)
    code, gen1, _ = run(capsys, "solve", str(f))
    assert code == 0
    f2 = tmp_path / "gen1.hs"
    f2.write_text(gen1)
    code, gen2, _ = run(capsys, "solve", str(f2))
    assert code == 0
    assert gen1 == gen2


def test_solve_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.hs"
    f.write_text("x = {missing}\n")
    code, out, err = run(capsys, "solve", str(f))
    assert code == 1
    assert "missing" in err and out == ""


def test_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/path.hs")
    assert code == 1 and "error" in err


def test_undirect_modes(tmp_path, capsys):
    f = tmp_path / "pair.hs"
    f.write_text(PAIR_TEXT)
    for mode in ("loopy", "multi", "double"):
        code, out, err = run(capsys, "undirect", str(f), "--mode", mode)
        assert code == 0, err
        verts, edges = parse_graph_output(out)
        assert len(verts) == 4  # x, y, vn0, vn1
        if mode == "double":
            assert len(edges) == 1 and edges[0][2] == 2
        if mode == "multi":
            assert sorted(m for _, _, m in edges)[-1] == 2


@pytest.mark.parametrize("mode", ["loopy", "multi", "double"])
@pytest.mark.parametrize("name", ["alias", "cycle40"])
def test_undirect_reads_each_membership_once(capsys, monkeypatch, name, mode):
    # undirect takes the element tuple of each closure vertex from the
    # store once, except that it reads no numeral's: their memberships
    # are the chain's
    graphs, reads = [], []

    def probed(u, sets, mode):
        with element_reads(u) as read:
            graph = undirect(u, sets, mode)
        reads.append(read)
        return graph

    monkeypatch.setattr(cli, "undirect", probed)
    monkeypatch.setattr(cli, "emit_graph",
                        lambda u, graph: graphs.append((u, graph)) or "")
    path = GOLDEN / f"{name}.hs"
    code, _, err = run(capsys, "undirect", str(path), "--mode", mode)
    assert code == 0, err
    ((u, graph),), (read,) = graphs, reads
    numerals = {v for v in graph.vertices if u.numeral_of(v) is not None}
    assert numerals  # both files have numeral atoms
    assert sorted(read) == sorted(graph.vertices - numerals)


def test_undirect_of_a_large_numeral_keeps_its_chain_implicit():
    # numeral3000.hs holds 4.5 million numeral memberships and prints
    # them all, 59.7 MB; reading and keying each of them took about 1 GB
    # of RSS, and printing them from the chain about 220 MB while the
    # text layer encoded the whole output at once; written in 1 MiB
    # slices it takes about 170 MB
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    golden = GOLDEN / "numeral3000.hs"
    proc = subprocess.Popen([sys.executable, "-m", "hyperset", "undirect", str(golden),
                             "--mode", "multi"], stdout=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))
    digest, size = hashlib.sha256(), 0
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
        size += len(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert size == 59730821
    assert digest.hexdigest() == (
        "1afaadd968e8df03809fe4b5260af58dae48afdfc0db16707cc6ffaf26391de9")
    peak_mb = usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mb < 200, peak_mb


def test_witness_simple(capsys):
    code, out, err = run(capsys, "witness", "--simple", "--u", "0,1", "--v", "2")
    assert code == 0, err
    assert out.startswith("set z\n")
    assert "check" in out
    assert "FAIL" not in out


def test_witness_loopy(capsys):
    code, out, err = run(capsys, "witness", "--loopy", "--u", "0", "--v", "1")
    assert code == 0, err
    for section in ("set z1", "set z2", "set x"):
        assert section in out
    assert "FAIL" not in out
    assert "check z2_loop pass" in out


def test_witness_overlap_is_error(capsys):
    code, _, err = run(capsys, "witness", "--simple", "--u", "1", "--v", "1")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("mode, u_text, v_text, items", [
    ("--loopy", "{1}", "2,{1}", (1, 2)),
    ("--simple", "2", "{0,1}", (1, 1)),  # one set written two ways
    ("--loopy", "0,{0,1}", "3,{1,0},2", (2, 2)),
    ("--simple", "5,{{0}},1", "{{0}},4,1", (2, 1)),
])
def test_witness_overlap_names_list_items_not_handles(capsys, mode, u_text, v_text, items):
    # the first --u item that is also in --v, and the first such --v item:
    # handles depend on what the store built first
    code, out, err = run(capsys, "witness", mode, "--u", u_text, "--v", v_text)
    i, j = items
    assert (code, out, err) == (1, "", f"error: --u item {i} and --v item {j} are the same set\n")


@pytest.mark.parametrize("option, text, error", [
    ("--u", "0,{2,$}", "1:6: unexpected character '$'"),
    ("--u", "1,,2", "1:3: expected a set literal, found ','"),
    ("--v", "{", "1:2: expected a set literal, found 'end of input'"),
    ("--u", "1 #,2", "1:3: unexpected character '#'"),
    ("--v", "{3,#}", "1:4: unexpected character '#'"),
    ("--v", "4\n#", "2:1: unexpected character '#'"),
])
def test_witness_list_error_names_the_option(capsys, option, text, error):
    lists = {"--u": "0", "--v": "1", option: text}
    code, out, err = run(capsys, "witness", "--loopy", "--u", lists["--u"], "--v", lists["--v"])
    assert (code, out, err) == (1, "", f"error: {option}: {error}\n")


@pytest.mark.parametrize("u_text, v_text, error", [
    ("1 #,2", "3", "error: --u: 1:3: unexpected character '#'\n"),
    ("1,2", "3 # a comment", "error: --v: 1:3: unexpected character '#'\n"),
])
def test_witness_option_value_has_no_comments(capsys, u_text, v_text, error):
    # an option value is not a file: `#` there is an error, not a comment
    # that drops the rest of the list
    code, out, err = run(capsys, "witness", "--simple", "--u", u_text, "--v", v_text)
    assert (code, out, err) == (1, "", error)


def test_system_file_comments_still_parse(tmp_path, capsys):
    f = tmp_path / "commented.hs"
    f.write_text("# a loop over one\natom a = 1 # the numeral\nx = {x,a} # x in x\n# end",
                 encoding="utf-8")
    code, out, err = run(capsys, "solve", str(f))
    assert (code, out, err) == (0, "atom a0 = 1\nx = {a0,x}\n", "")


def test_witness_empty_list_is_no_sets(capsys):
    for v in ("", "  "):
        code, out, err = run(capsys, "witness", "--loopy", "--u", "0", "--v", v)
        assert code == 0, err
        assert "FAIL" not in out and "not_adjacent_v" not in out


def parse_witness_output(u, out):
    """Machine-check of the witness grammar; returns (sets, checks)."""
    from hyperset.sysfile import parse_set_literal, parse_system
    sets = {}
    checks = []
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("set "):
            name = line.split(" ", 1)[1]
            body = []
            i += 1
            while lines[i] != "end":
                body.append(lines[i])
                i += 1
            text = "\n".join(body)
            if "=" in text:
                sets[name] = parse_system(u, text)
            else:
                sets[name] = parse_set_literal(u, text)
        else:
            kind, cond, verdict = line.split(" ")
            assert kind == "check" and verdict in ("pass", "FAIL")
            checks.append((cond, verdict))
        i += 1
    return sets, checks


def test_witness_output_grammar(capsys, u):
    code, out, _ = run(capsys, "witness", "--loopy", "--u", "0,{2}", "--v", "1")
    assert code == 0
    sets, checks = parse_witness_output(u, out)
    assert set(sets) == {"z1", "z2", "x"}
    assert checks and all(v == "pass" for _, v in checks)


def test_star_output_shape(capsys):
    code, out, err = run(capsys, "star", "3")
    assert code == 0, err
    verts, edges = parse_graph_output(out)
    assert len(verts) == 4
    assert len(edges) == 3
    assert all(m == 2 for _, _, m in edges)
    degree = {}
    for i, j, _ in edges:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    assert sorted(degree.values()) == [1, 1, 1, 3]  # star shape
    assert not any(loop for _, _, loop in verts)


def test_star_zero(capsys):
    code, out, err = run(capsys, "star", "0")
    assert code == 0
    verts, edges = parse_graph_output(out)
    assert len(verts) == 1 and edges == []


def test_component_command(tmp_path, capsys):
    f = tmp_path / "pattern.txt"
    f.write_text(FOUR_CYCLE)
    code, out, err = run(capsys, "component", str(f))
    assert code == 0, err
    graph_text = out.split("check")[0]
    verts, edges = parse_graph_output(graph_text)
    assert len(verts) == 4
    assert len(edges) == 4
    assert sum(1 for _, _, loop in verts if loop) == 1
    assert "check isomorphic pass" in out


def test_component_matrix_format(tmp_path, capsys):
    f = tmp_path / "pattern.txt"
    f.write_text("1 1\n1 0\n")
    code, out, err = run(capsys, "component", str(f), "--pattern-format", "matrix")
    assert code == 0, err
    verts, edges = parse_graph_output(out.split("check")[0])
    assert len(verts) == 2 and len(edges) == 1


@pytest.mark.parametrize("text, error", [
    ("vertices 3\nedge 0 1\nedge 1 2\nedge 2 7\n", "error: 4:1: bad edge (2, 7)\n"),
    ("vertices 2\nedge 0 1\nloop 4\n", "error: 3:1: bad loop vertex 4\n"),
])
def test_component_pattern_range_error_names_its_line(tmp_path, capsys, text, error):
    f = tmp_path / "pattern.txt"
    f.write_text(text)
    assert run(capsys, "component", str(f)) == (1, "", error)


def test_component_disconnected_pattern(tmp_path, capsys):
    f = tmp_path / "pattern.txt"
    f.write_text("vertices 2\nloop 0\nloop 1\n")
    code, _, err = run(capsys, "component", str(f))
    assert code == 1 and "error" in err


def test_component_walks_the_double_edge_component_once(tmp_path, capsys, monkeypatch):
    calls = []
    walk = witnesses.double_component
    monkeypatch.setattr(witnesses, "double_component",
                        lambda u, start: calls.append(start) or walk(u, start))
    f = tmp_path / "pattern.txt"
    f.write_text(FOUR_CYCLE)
    code, out, err = run(capsys, "component", str(f))
    assert code == 0, err
    assert len(calls) == 1
    assert out.endswith("check isomorphic pass\ncheck component_exact pass\n"
                        "check distinct pass\n")


def test_component_broken_post_condition_is_one_line_error(capsys, monkeypatch):
    # a walk that loses a vertex breaks component's post-condition: the
    # call prints no graph and no check line, only one error line
    walk = witnesses.double_component
    monkeypatch.setattr(witnesses, "double_component",
                        lambda u, start: frozenset(sorted(walk(u, start))[1:]))
    code, out, err = run(capsys, "component", str(GOLDEN / "pattern12.txt"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_component_on_a_long_path_is_linear(tmp_path):
    # neighbours were found by scanning every vertex, so a 4,000-vertex
    # path (40 KB) took 8.5 s; listed once from the edges it takes about 1 s
    f = tmp_path / "path.txt"
    f.write_text("vertices 4000\n" + "".join(f"edge {i} {i + 1}\n" for i in range(3999)))
    t0 = time.perf_counter()
    proc = run_process("component", str(f))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("check isomorphic pass\ncheck component_exact pass\n"
                                "check distinct pass\n")
    assert elapsed < 3, elapsed


def test_rado_check(capsys):
    code, out, err = run(capsys, "rado", "--check", "128")
    assert code == 0, err
    assert out == "rado check max=128 sets=129 pairs=8256 ok\n"


def test_game_bit_vs_hf(capsys):
    code, out, err = run(capsys, "game", "--rounds", "6", "--left", "bit",
                         "--right", "hf")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len([l for l in lines if l.startswith("pair ")]) == 6
    assert lines[-1] == "game ok size=6"


def test_game_loopy_seeds(capsys):
    code, out, err = run(capsys, "game", "--rounds", "4", "--left", "loopy:1",
                         "--right", "loopy:2")
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "game ok size=4"


def test_game_mode_mismatch(capsys):
    code, _, err = run(capsys, "game", "--rounds", "2", "--left", "bit",
                       "--right", "loopy")
    assert code == 1 and "loop mode" in err


def test_census(capsys):
    code, out, err = run(capsys, "census", "--max-n", "5")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "census n=0 double_degree=0 loop=false"
    assert lines[5] == "census n=5 double_degree=5 loop=false"
    assert lines[-1] == "census distinct=6"


@pytest.mark.parametrize("argv", [
    ["game", "--rounds", "3", "--left", "loopy:abc", "--right", "bit"],
    ["game", "--rounds", "3", "--left", "loopy:", "--right", "bit"],
    ["star", "2", "--seed", "-5"],
    ["component", "{pattern}", "--seed", "-5"],
    ["census", "--max-n", "3", "--seed", "-5"],
    ["solve", "{dir}"],
    ["component", "{dir}"],
    ["solve", "{latin1}"],
    ["rado", "--check", "-1"],
    ["census", "--max-n", "-1"],
    ["game", "--rounds", "-1", "--left", "bit", "--right", "bit"],
], ids=["game-loopy-abc", "game-loopy-empty", "star", "component", "census",
        "solve-directory", "component-directory", "solve-not-utf8",
        "rado-negative-check", "census-negative-max-n", "game-negative-rounds"])
def test_bad_seed_is_one_line_error(tmp_path, argv):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(FOUR_CYCLE)
    latin1 = tmp_path / "latin1.hs"
    latin1.write_bytes(b"atom a = 0\nx = {a}\n# caf\xe9 \xff\n")
    places = {"{pattern}": pattern, "{dir}": tmp_path, "{latin1}": latin1}
    proc = run_process(*(str(places.get(arg, arg)) for arg in argv))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    if "{latin1}" in argv:
        assert "latin1.hs" in proc.stderr and "offset 24" in proc.stderr, proc.stderr


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    f = tmp_path / "pair.hs"
    f.write_text(PAIR_TEXT)
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    outs = [run(capsys, "solve", str(f)) for _ in range(3)]
    assert len(built) == 1
    assert outs[0][0] == 0 and outs.count(outs[0]) == 3


def test_universe_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERSET_MAX_SETS", "3")
    f = tmp_path / "big.hs"
    f.write_text("atom a = 9\nx = {a}\n")
    code, _, err = run(capsys, "solve", str(f))
    assert code == 1 and "cap" in err


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_universe_cap_env_malformed(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("HYPERSET_MAX_SETS", value)
    f = tmp_path / "pair.hs"
    f.write_text(PAIR_TEXT)
    code, out, err = run(capsys, "solve", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: HYPERSET_MAX_SETS") and err.count("\n") == 1


DEEP = 1500  # well past the default recursion limit


def test_witness_with_deeply_nested_literal():
    deep = "{" * DEEP + "}" * DEEP
    proc = run_process("witness", "--simple", "--u", deep, "--v", "1")
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "set z" and lines[2] == "end"
    assert lines[1].count("{") == 1 + 3 + DEEP  # z = {{{{}}}, u0}


def test_solve_and_undirect_with_deeply_nested_atom(tmp_path):
    f = tmp_path / "deep.hs"
    f.write_text("atom a = " + "{" * DEEP + "}" * DEEP + "\nx = {x,a}\n")
    proc = run_process("solve", str(f))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "atom a0 = " + "{" * (DEEP - 2) + "1" + "}" * (DEEP - 2) + (
        "\nx = {a0,x}\n")
    proc = run_process("undirect", str(f), "--mode", "multi")
    assert proc.returncode == 0 and proc.stderr == ""
    assert sum(line.startswith("v ") for line in proc.stdout.splitlines()) == DEEP + 1
