"""Output checks written without any hyperset code.

The reference model is plain Python: well-founded sets are nested
frozensets, cyclic systems are adjacency lists, and bisimulation is
naive signature refinement.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import itertools

from gen import numeral

CODE_BOUND = 2 ** 64


def bisim_classes(kids: list[list[int]], consts: list) -> list[int]:
    """Class index per node of the coarsest partition that respects
    ``consts`` and is stable under ``kids`` (maximum bisimulation)."""
    keys = {}
    color = [keys.setdefault(c, len(keys)) for c in consts]
    count = len(keys)
    while True:
        keys = {}
        fresh = [keys.setdefault((color[j], frozenset(color[c] for c in kids[j])), len(keys))
                 for j in range(len(kids))]
        if len(keys) == count:
            return fresh
        color, count = fresh, len(keys)


def wf_closure(values) -> set:
    seen = set()
    todo = list(values)
    while todo:
        s = todo.pop()
        if s not in seen:
            seen.add(s)
            todo.extend(s)
    return seen


def ackermann_label(s: frozenset, memo: dict) -> int | None:
    """Ackermann code of ``s`` when it is at most 2^64, else None."""
    if s in memo:
        return memo[s]
    total = 0
    for e in s:
        ce = ackermann_label(e, memo)
        if ce is None or ce > 64:
            total = None
            break
        total += 1 << ce
    if total is not None and total > CODE_BOUND:
        total = None
    memo[s] = total
    return total


def bit_adjacent(a: int, b: int) -> bool:
    if a == b:
        return False
    lo, hi = min(a, b), max(a, b)
    return (hi >> lo) & 1 == 1


def parse_graph(text: str):
    """``v``/``e`` lines -> (labels, loop flags, {(i, j): multiplicity}).

    Raises ValueError on any line out of format."""
    labels, loops, edges = [], [], {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) in (3, 4) and parts[0] == "v" and parts[1] == str(len(labels)) \
                and parts[3:] in ([], ["loop"]):
            labels.append(parts[2])
            loops.append(len(parts) == 4)
        elif len(parts) == 4 and parts[0] == "e" and parts[3] in ("1", "2"):
            i, j = int(parts[1]), int(parts[2])
            if (i, j) in edges or not 0 <= i < j < len(labels):
                raise ValueError(f"bad edge line {line!r}")
            edges[(i, j)] = int(parts[3])
        else:
            raise ValueError(f"bad graph line {line!r}")
    return labels, loops, edges


def parse_literal(text: str) -> frozenset:
    """Brace literal or decimal numeral -> nested frozensets."""
    stack: list[list] = [[]]
    num = ""
    for ch in text.strip() + " ":
        if ch.isdigit():
            num += ch
            continue
        if num:
            stack[-1].append(numeral(int(num)))
            num = ""
        if ch == "{":
            stack.append([])
        elif ch == "}":
            done = frozenset(stack.pop())
            stack[-1].append(done)
        elif ch not in ", \n":
            raise ValueError(f"unexpected {ch!r} in literal")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced literal")
    return stack[0][0]


# -- cli_files ----------------------------------------------------------------


def check_system_outputs(sysfile, solved: str, graph: str) -> list[str]:
    """Counts in ``solve`` and ``undirect --mode multi`` output against
    the benchmark's own quotient of the generated system."""
    n = len(sysfile.kids)
    cls = bisim_classes(sysfile.kids, [frozenset(a) for a in sysfile.atoms])
    n_cls = max(cls) + 1
    rep = {}
    for j in range(n):
        rep.setdefault(cls[j], j)
    qkids = {c: {cls[k] for k in sysfile.kids[j]} for c, j in rep.items()}
    atom_values = {a for atoms in sysfile.atoms for a in atoms}
    wf = wf_closure(atom_values)

    problems = []
    lines = solved.splitlines()
    n_atom_lines = sum(1 for line in lines if line.startswith("atom "))
    if n_atom_lines != len(atom_values):
        problems.append(f"solve: {n_atom_lines} atom lines, expected {len(atom_values)}")
    if len(lines) - n_atom_lines != n_cls:
        problems.append(f"solve: {len(lines) - n_atom_lines} equations, expected {n_cls}")

    single = sum(len(s) for s in wf)
    single += sum(len(sysfile.atoms[j]) for j in rep.values())
    double = loops = 0
    for c, ks in qkids.items():
        for d in ks:
            if d == c:
                loops += 1
            elif c not in qkids[d]:
                single += 1
            elif c < d:
                double += 1
    memo: dict = {}
    codes = sorted(code for code in (ackermann_label(s, memo) for s in wf) if code is not None)
    try:
        labels, loop_flags, edges = parse_graph(graph)
    except ValueError as exc:
        return problems + [f"undirect: {exc}"]
    got_codes = sorted(int(lab) for lab in labels if lab.isdigit())
    n_nu = sum(1 for lab in labels if lab.startswith("nu"))
    n_big = sum(1 for i, lab in enumerate(labels) if lab == f"wf{i}")
    expect = {"vertices": (len(labels), n_cls + len(wf)),
              "nu labels": (n_nu, n_cls),
              "wf labels": (n_big, len(wf) - len(codes)),
              "loops": (sum(loop_flags), loops),
              "double edges": (sum(1 for m in edges.values() if m == 2), double),
              "single edges": (sum(1 for m in edges.values() if m == 1), single)}
    for what, (got, want) in expect.items():
        if got != want:
            problems.append(f"undirect: {got} {what}, expected {want}")
    if got_codes != codes:
        problems.append("undirect: Ackermann labels differ from the reference codes")
    return problems


# -- constructions -------------------------------------------------------------


def _graph_or_problem(text: str):
    try:
        return parse_graph(text), None
    except ValueError as exc:
        return None, f"graph output: {exc}"


def check_star(n: int, out: str) -> list[str]:
    parsed, problem = _graph_or_problem(out)
    if problem:
        return [problem]
    labels, loops, edges = parsed
    degree = [0] * len(labels)
    for (i, j), m in edges.items():
        if m != 2:
            return [f"star: edge {i}-{j} has multiplicity {m}"]
        degree[i] += 1
        degree[j] += 1
    if len(labels) != n + 1 or len(edges) != n or any(loops) or max(degree) != n:
        return [f"star {n}: not a star with double degree {n}"]
    return []


def check_component(pattern, out: str) -> list[str]:
    graph_text = "\n".join(line for line in out.splitlines() if not line.startswith("check "))
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    want = ["check isomorphic pass", "check component_exact pass", "check distinct pass"]
    if checks != want:
        return [f"component: check lines {checks}"]
    parsed, problem = _graph_or_problem(graph_text)
    if problem:
        return [problem]
    labels, loops, edges = parsed
    if len(labels) != pattern.size or any(m != 2 for m in edges.values()):
        return ["component: wrong vertex count or a non-double edge"]
    target = {frozenset(e) for e in pattern.edges}
    got = {frozenset(e) for e in edges}
    for perm in itertools.permutations(range(pattern.size)):
        if ({frozenset((perm[a], perm[b])) for a, b in target} == got
                and all(loops[perm[i]] == (i in pattern.loops) for i in range(pattern.size))):
            return []
    return ["component: emitted graph is not isomorphic to the pattern"]


def check_census(n: int, out: str) -> list[str]:
    want = [f"census n={i} double_degree={i} loop=false" for i in range(n + 1)]
    want.append(f"census distinct={n + 1}")
    return [] if out.splitlines() == want else ["census: double degree differs from n"]


def check_rado(m: int, out: str) -> list[str]:
    want = f"rado check max={m} sets={m + 1} pairs={m * (m + 1) // 2} ok\n"
    return [] if out == want else [f"rado: got {out.strip()!r}"]


def check_game(rounds: int, out: str, bit_hf: bool) -> list[str]:
    lines = out.splitlines()
    if lines[-1:] != [f"game ok size={rounds}"] or len(lines) != rounds + 1:
        return ["game: wrong summary or pair count"]
    pairs = [line.split() for line in lines[:-1]]
    if any(len(p) != 3 or p[0] != "pair" for p in pairs):
        return ["game: malformed pair line"]
    if not bit_hf:
        return []
    # HF labels are Ackermann codes, or s<handle> once a code passes 2^64
    try:
        left = [int(p[1]) for p in pairs]
    except ValueError:
        return ["game: non-numeric BIT label"]
    right = [p[2] for p in pairs]
    if len(set(left)) != rounds or len(set(right)) != rounds:
        return ["game: a vertex is matched twice"]
    coded = [k for k in range(rounds) if right[k].isdigit()]
    for a, b in itertools.combinations(coded, 2):
        if bit_adjacent(left[a], left[b]) != bit_adjacent(int(right[a]), int(right[b])):
            return [f"game: pairs {a} and {b} disagree on BIT adjacency"]
    return []


def _sections(out: str):
    sections, checks = {}, []
    lines = iter(out.splitlines())
    for line in lines:
        if line.startswith("set "):
            body = []
            for inner in lines:
                if inner == "end":
                    break
                body.append(inner)
            sections[line[4:]] = "\n".join(body)
        elif line.startswith("check "):
            checks.append(line.split())
    return sections, checks


def check_witness(spec: dict, out: str, loopy: bool) -> list[str]:
    us, vs = spec["u"], spec["v"]
    sections, checks = _sections(out)
    want_checks = (12 + 2 * len(us) + 2 * len(vs)) if loopy else (3 + len(us) + len(vs))
    if len(checks) != want_checks or any(c[2:] != ["pass"] for c in checks):
        return [f"witness: {len(checks)} check lines, expected {want_checks} passing"]
    try:
        if not loopy:
            z = parse_literal(sections["z"])
            if z != frozenset(us) | {frozenset(vs)}:
                return ["witness: z differs from U union {V}"]
            if not all(z in m or m in z for m in us) or any(z in m or m in z for m in vs):
                return ["witness: z fails the extension property"]
            return []
        x = parse_literal(sections["x"])
    except (KeyError, ValueError) as exc:
        return [f"witness: unreadable output ({exc})"]
    sizes = sorted(len(e) for e in x)
    if x != {numeral(k) for k in sizes} or sizes != list(range(sizes[0], sizes[0] + len(us) + 3)):
        return ["witness: x is not a block of consecutive numerals"]
    union_u = set().union(*us)
    union_v = set().union(*vs)
    banned = set(us) | set(vs) | union_u | union_v | set().union(*union_v)
    if x in banned:
        return ["witness: x is not fresh"]
    return []
