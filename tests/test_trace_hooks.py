"""The benchmark's span recorder still finds every name it patches.

``perfbench/spans.py`` times the layers by swapping module attributes of
hyperset by name (``serialize.closure``, ``witnesses.undirect`` ...), so
a rename or a dropped import breaks ``perfbench/run.py --trace 1``.
Installing and uninstalling the recorder, with nothing run in between,
catches that in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
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
