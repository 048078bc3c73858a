"""Parser for the equation-system text format and pattern files.

System files contain atom declarations, equations and comments::

    # the mutual-membership pair
    atom a = 0
    atom b = 1
    x = {y,a}
    y = {x,b}

Set literals are naturals (von Neumann shorthand) or nested braces.
Names match ``[A-Za-z_ν][A-Za-z0-9_ν]*``; ``ν`` is allowed so that the
serializer's canonical names parse back.  ``atom`` is reserved.  The
grammar is whitespace-insensitive; ``#`` comments run to end of line.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .flat import FlatSystem
from .universe import SetId, Universe
from .witnesses import PatternGraph

_NAME = re.compile(r"[A-Za-z_ν][A-Za-z0-9_ν]*")
_NAT = re.compile(r"[0-9]+")

RESERVED = {"atom"}


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, str, int, int]] = []  # kind, value, line, col
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch in " \t\r":
                i += 1
                col += 1
                continue
            if ch == "#":
                while i < len(text) and text[i] != "\n":
                    i += 1
                continue
            if ch in "{},=":
                self.toks.append((ch, ch, line, col))
                i += 1
                col += 1
                continue
            m = _NAT.match(text, i)
            if m:
                self.toks.append(("nat", m.group(), line, col))
                col += len(m.group())
                i = m.end()
                continue
            m = _NAME.match(text, i)
            if m:
                self.toks.append(("name", m.group(), line, col))
                col += len(m.group())
                i = m.end()
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.toks.append(("eof", "", line, col))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2], tok[3])
        return tok


def _parse_literal(u: Universe, toks: _Tokens) -> SetId:
    # Iterative, so nesting depth is bounded by memory, not the stack:
    # ``open_sets`` holds the members read so far of each unclosed brace.
    open_sets: list[list[SetId]] = []
    while True:
        kind, value, line, col = toks.next()
        if kind == "nat":
            s = u.vn(int(value))
        elif kind == "{":
            if toks.peek()[0] != "}":
                open_sets.append([])
                continue
            toks.next()
            s = u.make_set([])
        else:
            raise ParseError(f"expected a set literal, found {value or 'end of input'!r}",
                             line, col)
        while open_sets:
            open_sets[-1].append(s)
            if toks.peek()[0] == ",":
                toks.next()
                break
            toks.expect("}")
            s = u.make_set(open_sets.pop())
        else:
            return s


def parse_system(u: Universe, text: str) -> FlatSystem:
    """Parse a system file into a validated FlatSystem.

    Atom literals are materialized in ``u`` immediately; all scope
    errors (duplicates, undeclared names, atom/indeterminate clashes)
    are reported with positions.
    """
    toks = _Tokens(text)
    atoms: dict[str, SetId] = {}
    atom_pos: dict[str, tuple[int, int]] = {}
    equations: list[tuple[str, frozenset[str]]] = []
    eq_pos: dict[str, tuple[int, int]] = {}
    rhs_refs: list[tuple[str, str, int, int]] = []

    while toks.peek()[0] != "eof":
        kind, value, line, col = toks.next()
        if kind != "name":
            raise ParseError(f"expected a declaration, found {value!r}", line, col)
        if value == "atom":
            _, name, nline, ncol = toks.expect("name")
            if name in RESERVED:
                raise ParseError(f"{name!r} is reserved", nline, ncol)
            if name in atoms:
                raise ParseError(f"duplicate atom {name}", nline, ncol)
            toks.expect("=")
            atoms[name] = _parse_literal(u, toks)
            atom_pos[name] = (nline, ncol)
            continue
        name = value
        if name in RESERVED:
            raise ParseError(f"{name!r} is reserved", line, col)
        if name in eq_pos:
            raise ParseError(f"duplicate equation for {name}", line, col)
        toks.expect("=")
        toks.expect("{")
        rhs = []
        if toks.peek()[0] != "}":
            while True:
                tok = toks.expect("name")
                rhs.append(tok[1])
                rhs_refs.append((name, tok[1], tok[2], tok[3]))
                if toks.peek()[0] != ",":
                    break
                toks.next()
        toks.expect("}")
        equations.append((name, frozenset(rhs)))
        eq_pos[name] = (line, col)

    declared = set(eq_pos)
    for owner, ref, line, col in rhs_refs:
        if ref not in declared and ref not in atoms:
            raise ParseError(f"equation for {owner} mentions undeclared name {ref}",
                             line, col)
    for name in eq_pos:
        if name in atoms:
            line, col = eq_pos[name]
            raise ParseError(f"{name} is declared both as atom and indeterminate",
                             line, col)
    return FlatSystem(atoms=atoms, equations=equations)


def parse_set_literal(u: Universe, text: str) -> SetId:
    """Parse a single standalone set literal (CLI argument helper)."""
    toks = _Tokens(text)
    s = _parse_literal(u, toks)
    tok = toks.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    return s


def split_literals(text: str) -> list[str]:
    """Split a comma-separated list of literals at top-level commas."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def parse_pattern(text: str, fmt: str = "edges") -> PatternGraph:
    """Parse a pattern graph in ``edges`` or ``matrix`` format.

    edges format::

        vertices 4
        edge 0 1
        loop 0

    matrix format: one 0/1 row per line, symmetric, diagonal = loops.
    """
    if fmt == "edges":
        return _parse_pattern_edges(text)
    if fmt == "matrix":
        return _parse_pattern_matrix(text)
    raise ParseError(f"unknown pattern format {fmt!r}", 1, 1)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_pattern_edges(text: str) -> PatternGraph:
    size = None
    edges = set()
    loops = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices" and len(parts) == 2 and parts[1].isdigit():
            if size is not None:
                raise ParseError("duplicate vertices line", lineno, 1)
            size = int(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("edge endpoints must be naturals", lineno, 1)
            if i == j:
                raise ParseError("use `loop` for self-edges", lineno, 1)
            edges.add((min(i, j), max(i, j)))
        elif parts[0] == "loop" and len(parts) == 2:
            try:
                loops.add(int(parts[1]))
            except ValueError:
                raise ParseError("loop vertex must be a natural", lineno, 1)
        else:
            raise ParseError(f"unrecognized pattern line {line!r}", lineno, 1)
    if size is None:
        raise ParseError("missing `vertices N` line", 1, 1)
    try:
        return PatternGraph(size=size, edges=frozenset(edges), loops=frozenset(loops))
    except Exception as exc:
        raise ParseError(str(exc), 1, 1)


def _parse_pattern_matrix(text: str) -> PatternGraph:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        entries = line.split() if " " in line else list(line)
        if not all(e in ("0", "1") for e in entries):
            raise ParseError(f"matrix rows are 0/1, got {line!r}", lineno, 1)
        rows.append([int(e) for e in entries])
    if not rows:
        raise ParseError("empty matrix", 1, 1)
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix must be square", 1, 1)
    try:
        return PatternGraph.from_matrix(rows)
    except Exception as exc:
        raise ParseError(str(exc), 1, 1)
