"""Parser for the equation-system text format and pattern files.

System files contain atom declarations, equations and comments::

    # the mutual-membership pair
    atom a = 0
    atom b = 1
    x = {y,a}
    y = {x,b}

Set literals are naturals (von Neumann shorthand) or nested braces.
Names match ``[A-Za-z_ν][A-Za-z0-9_ν]*``; ``ν`` is allowed so that the
serializer's canonical names parse back.  ``atom`` is reserved.
``#`` comments run to end of line.  Whitespace is space, tab, CR and
LF, and may appear between any two tokens; any other character outside
a token or comment is an ``unexpected character`` error.  Errors are
positioned as ``line:column``, with columns counted in characters.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import ParseError
from .flat import FlatSystem
from .universe import SetId, Universe
from .witnesses import PatternGraph

# One pattern splits a text into tokens and comments; any other character
# outside whitespace (space, tab, CR, LF) is a token of its own, and an error.
_TOKEN = re.compile(r"[{},=]|[0-9]+|[A-Za-z_ν][A-Za-z0-9_ν]*|#[^\n]*|[^ \t\r\n]")
_KIND = {c: c for c in "{},=#"}
_KIND.update(dict.fromkeys("0123456789", "nat"))
_KIND.update(dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_ν", "name"))

RESERVED = {"atom"}


class _Tokens:
    """The tokens of a text as (kind, value) pairs, ending with
    ``("eof", "")``.  Tokens carry no position: an error recomputes the
    line and column of the token it names with :meth:`where`."""

    def __init__(self, text: str):
        self.text = text
        values = _TOKEN.findall(text)
        kinds = list(map(_KIND.get, map(itemgetter(0), values)))
        toks = list(zip(kinds, values))
        if "#" in kinds:  # drop the comments
            toks = [tok for tok in toks if tok[0] != "#"]
        toks.append(("eof", ""))
        self.toks = toks
        if None in kinds:  # a character that starts no token
            k = next(k for k, tok in enumerate(toks) if tok[0] is None)
            raise self.error(f"unexpected character {toks[k][1]!r}", k)

    def where(self, k: int) -> tuple[int, int]:
        """Line and column (in characters, from 1) of token ``k``.  The
        end of input is at the end of the text, or at the ``#`` of a
        comment that runs to it."""
        text = self.text
        at = None
        for m in _TOKEN.finditer(text):
            if m.group()[0] == "#":
                continue
            if k == 0:
                at = m.start()
                break
            k -= 1
        if at is None:  # end of input
            line_start = text.rfind("\n") + 1
            comment = text.find("#", line_start)
            at = len(text) if comment < 0 else comment
        line_start = text.rfind("\n", 0, at) + 1
        return text.count("\n", 0, at) + 1, at - line_start + 1

    def error(self, message: str, k: int) -> ParseError:
        return ParseError(message, *self.where(k))

    def expected(self, kind: str, k: int) -> ParseError:
        return self.error(f"expected {kind!r}, found {self.toks[k][1] or 'end of input'!r}", k)


def _parse_literal(u: Universe, tokens: _Tokens, i: int) -> tuple[SetId, int]:
    """The set literal that starts at token ``i``, and the index of the
    token after it."""
    # Iterative, so nesting depth is bounded by memory, not the stack:
    # ``open_sets`` holds the members read so far of each unclosed brace.
    toks = tokens.toks
    open_sets: list[list[SetId]] = []
    while True:
        kind, value = toks[i]
        if kind == "nat":
            s = u.vn(int(value))
        elif kind == "{":
            i += 1
            if toks[i][0] != "}":
                open_sets.append([])
                continue
            s = u.make_set([])
        else:
            raise tokens.error(f"expected a set literal, found {value or 'end of input'!r}", i)
        i += 1
        while open_sets:
            open_sets[-1].append(s)
            kind = toks[i][0]
            if kind != "}":
                if kind != ",":
                    raise tokens.expected("}", i)
                i += 1
                break
            i += 1
            s = u.make_set(open_sets.pop())
        else:
            return s, i


def parse_system(u: Universe, text: str) -> FlatSystem:
    """Parse a system file into a validated FlatSystem.

    Atom literals are materialized in ``u`` immediately; all scope
    errors (duplicates, undeclared names, atom/indeterminate clashes)
    are reported with positions.
    """
    tokens = _Tokens(text)
    toks = tokens.toks
    atoms: dict[str, SetId] = {}
    equations: list[tuple[str, frozenset[str]]] = []
    eq_pos: dict[str, int] = {}  # token index of each equation's name

    i = 0
    while True:
        kind, name = toks[i]
        if kind != "name":
            if kind == "eof":
                break
            raise tokens.error(f"expected a declaration, found {name!r}", i)
        if name == "atom":
            i += 1
            kind, name = toks[i]
            if kind != "name":
                raise tokens.expected("name", i)
            if name in RESERVED:
                raise tokens.error(f"{name!r} is reserved", i)
            if name in atoms:
                raise tokens.error(f"duplicate atom {name}", i)
            if toks[i + 1][0] != "=":
                raise tokens.expected("=", i + 1)
            atoms[name], i = _parse_literal(u, tokens, i + 2)
            continue
        if name in RESERVED:
            raise tokens.error(f"{name!r} is reserved", i)
        if name in eq_pos:
            raise tokens.error(f"duplicate equation for {name}", i)
        eq_pos[name] = i
        if toks[i + 1][0] != "=":
            raise tokens.expected("=", i + 1)
        if toks[i + 2][0] != "{":
            raise tokens.expected("{", i + 2)
        i += 3
        rhs = []
        kind, value = toks[i]
        if kind != "}":
            while True:
                if kind != "name":
                    raise tokens.expected("name", i)
                rhs.append(value)
                kind = toks[i + 1][0]
                if kind != ",":
                    i += 1
                    break
                i += 2
                kind, value = toks[i]
            if kind != "}":
                raise tokens.expected("}", i)
        i += 1
        equations.append((name, frozenset(rhs)))

    declared = eq_pos.keys() | atoms.keys()
    for owner, rhs in equations:
        if not rhs <= declared:
            # the first undeclared name in the equation, in text order
            i = eq_pos[owner] + 3
            while toks[i][1] in declared:
                i += 2
            raise tokens.error(
                f"equation for {owner} mentions undeclared name {toks[i][1]}", i)
    for name, i in eq_pos.items():
        if name in atoms:
            raise tokens.error(f"{name} is declared both as atom and indeterminate", i)
    return FlatSystem(atoms=atoms, equations=equations)


def parse_set_literal(u: Universe, text: str) -> SetId:
    """Parse a single standalone set literal (CLI argument helper)."""
    tokens = _Tokens(text)
    s, i = _parse_literal(u, tokens, 0)
    kind, value = tokens.toks[i]
    if kind != "eof":
        raise tokens.error(f"trailing input {value!r}", i)
    return s


def parse_set_literals(u: Universe, text: str) -> list[SetId]:
    """Parse a comma-separated list of set literals (CLI argument helper).

    Blank text is the empty list; errors are positioned within ``text``.
    """
    tokens = _Tokens(text)
    toks = tokens.toks
    sets: list[SetId] = []
    i = 0
    while toks[0][0] != "eof":
        s, i = _parse_literal(u, tokens, i)
        sets.append(s)
        if toks[i][0] != ",":
            break
        i += 1
    kind, value = toks[i]
    if kind != "eof":
        raise tokens.error(f"trailing input {value!r}", i)
    return sets


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
