"""Store internals stay inside ``universe.py``.

How the store keeps its sets (the numeral cache, the colour buckets,
the element tuples) is decided in ``universe.py`` alone, so that it can
change there without touching the modules built on it.  Every other
module reads private attributes only of its own objects (``self`` or
``cls``); a scan of their syntax trees checks that.

Membership is read pairwise (``is_member``) only in ``universe.py``
and in ``reducts.py``, which defines the rules the reducts, witnesses
and games share: adjacency, loops and double edges.  Another scan
checks that.

No module keeps an import it never reads, save the names that
``perfbench/spans.py`` patches on it to time a layer; a second scan
checks that, against an allowlist that must shrink as those go.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperset"


def foreign_private_reads(path: Path) -> list[str]:
    """``file:line: x._name`` for each private attribute read off an
    object other than ``self`` or ``cls``; dunders are not private."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or name.startswith("__") and name.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return hits


def test_no_module_reads_another_objects_private_attributes():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "universe.py")
    assert len(paths) > 5
    hits = [hit for p in paths for hit in foreign_private_reads(p)]
    assert hits == []


def member_calls(path: Path) -> list[str]:
    """``file:line`` of each call of a method named ``is_member``."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "is_member"]


def test_only_the_store_and_the_reducts_read_membership_pairs():
    paths = sorted(p for p in SRC.glob("*.py") if p.name not in ("universe.py", "reducts.py"))
    assert len(paths) > 5
    assert [hit for p in paths for hit in member_calls(p)] == []


# Imported only so that perfbench/spans.py can patch them by name; no
# code calls them through these modules.
PATCHED_ONLY = {"cli.closure", "cli.parse_set_literal", "serialize.closure",
                "witnesses.closure", "witnesses.undirect"}


def unread_imports(path: Path) -> set[str]:
    """``module.name`` for each name ``path`` imports and never reads;
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {f"{path.stem}.{name}" for name in imported - read}


def test_no_module_keeps_an_import_it_never_reads():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(paths) > 5
    assert set().union(*map(unread_imports, paths)) == PATCHED_ONLY
