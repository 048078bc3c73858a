"""The benchmark's span recorder still finds every name it patches.

``perfbench/spans.py`` times the layers by swapping module attributes of
hyperset by name (``serialize.closure``, ``witnesses.undirect`` ...), so
a rename or a dropped import breaks ``perfbench/run.py --trace 1``.
Installing and uninstalling the recorder catches that in the test suite;
CLI calls run under the installed recorder catch a wrapper or hook that
breaks what a wrapped function returns.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
GOLDEN = Path(__file__).resolve().parent / "golden"
MODULES = ("cli", "flat", "rado", "reducts", "serialize", "sysfile", "universe", "witnesses")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_recorder_installs_and_uninstalls():
    hs = SimpleNamespace(**{m: importlib.import_module(f"hyperset.{m}") for m in MODULES})
    before = {m: dict(vars(getattr(hs, m))) for m in MODULES}
    rec = load_spans().Recorder()
    rec.install(hs)
    try:
        assert hs.serialize.closure is not before["serialize"]["closure"]
        assert hs.serialize.structural_ranks.__wrapped__ is before["serialize"]["structural_ranks"]
    finally:
        rec.uninstall()
    assert {m: dict(vars(getattr(hs, m))) for m in MODULES} == before


def test_wrapped_cli_calls_keep_their_output(capsys):
    hs = SimpleNamespace(**{m: importlib.import_module(f"hyperset.{m}") for m in MODULES})
    cases = {  # golden output name: argv
        "pattern5.component": ["component", str(GOLDEN / "pattern5.txt")],
        # three loopy-oracle vertices are pattern components
        "game6.loopy1.loopy2": ["game", "--rounds", "6", "--left", "loopy:1",
                                "--right", "loopy:2"],
    }
    rec = load_spans().Recorder()
    rec.install(hs)
    try:
        for name, argv in cases.items():
            assert hs.cli.main(argv) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name
    finally:
        rec.uninstall()
    calls = rec.totals()[2]
    assert calls["witnesses.component"] == 4
    assert calls["reducts.double_component"] == 4


def test_wrapped_emit_graph_keeps_its_output(capsys):
    # the recorder wraps serialize.emit_graph for the CLI: one span per
    # printed graph, and the wrapped call prints what the golden files hold
    hs = SimpleNamespace(**{m: importlib.import_module(f"hyperset.{m}") for m in MODULES})
    cases = {f"cycle40.{mode}": ["undirect", str(GOLDEN / "cycle40.hs"), "--mode", mode]
             for mode in ("loopy", "multi", "double")}
    cases["star5.seed30"] = ["star", "5", "--seed", "30"]
    rec = load_spans().Recorder()
    rec.install(hs)
    try:
        for name, argv in cases.items():
            assert hs.cli.main(argv) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name
    finally:
        rec.uninstall()
    assert rec.totals()[2]["serialize.emit_graph"] == 4
