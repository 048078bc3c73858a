"""Seeded input generators for the three workloads.

Every generator takes the workload seed and a size ("full" or "tiny")
and returns plain data; nothing here imports hyperset.  Quantities that
drive cost (cycle lengths, numeral sizes, atom seeds) are drawn by
stratified sampling, so every seed gets the same spread of easy and hard
inputs and only their order and details differ.  That keeps run-to-run
spread across seeds small.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field


def stratified(rng: random.Random, n: int, lo: int, hi: int, spread: float = 1.0) -> list[int]:
    """n integers in [lo, hi], one from each of n equal strata, shuffled.

    Each value lies within ``spread`` of its stratum around the stratum's
    middle.  Costs that grow steeply with the value (cubically with a
    numeral's size, for instance) use a small spread, so the cost of a
    pass varies little from seed to seed.
    """
    width = hi - lo + 1
    out = [lo + int((j + 0.5 + spread * (rng.random() - 0.5)) * width / n) for j in range(n)]
    rng.shuffle(out)
    return out


@functools.lru_cache(maxsize=None)
def numeral(k: int) -> frozenset:
    """Von Neumann numeral k as nested frozensets (the reference model).

    Cached so equal numerals are one object: comparing two separately
    built copies of numeral k recurses into every pair of members and
    takes time exponential in k.
    """
    return numeral(k - 1) | {numeral(k - 1)} if k else frozenset()


# -- ingest -------------------------------------------------------------------


@dataclass
class IngestOp:
    """One flat system for ``flat.solve``.

    ``atoms`` maps atom names to numeral indices.  For a new cycle
    (``kind == "mint"``) ``nodes`` lists its indeterminates in cycle
    order.  For a re-encoding (``kind == "hit"``) ``nodes`` pairs each
    indeterminate with the cycle position of the original it must equal.
    """

    kind: str
    cycle: int  # length of the minimal cycle the system denotes
    atoms: dict[str, int]
    equations: list[tuple[str, frozenset[str]]]
    nodes: list
    source: int = -1  # index of the original op, for re-encodings
    fresh_numerals: int = 0


@dataclass
class IngestStream:
    ops: list[IngestOp]
    final_size: int  # sum of new cycle lengths plus numerals minted


INGEST_LEN = {"full": 120, "tiny": 9}
INGEST_BLOCK = 8


def _blocked(rng: random.Random, values: list, block: int) -> list:
    """``values`` reordered so that every run of ``block`` consecutive
    items holds one item from each of ``block`` equal slices of the list.

    Store lookups cost more as the store fills with long cycles, so the
    stream's cost depends on where the long cycles fall; this order puts
    them at the same rate through every seed's stream.
    """
    per = len(values) // block
    slices = [values[i * per:(i + 1) * per] for i in range(block)]
    slices[-1].extend(values[block * per:])
    for part in slices:
        rng.shuffle(part)
    out = []
    for b in range(max(len(part) for part in slices)):
        group = [part[b] for part in slices if b < len(part)]
        rng.shuffle(group)
        out.extend(group)
    return out


def ingest_stream(seed: int, size: str) -> IngestStream:
    """About two thirds new cycles of length 8-40 with 1-2 fresh numeral
    atoms, one third renamed, shuffled, doubly unrolled re-encodings of
    an earlier cycle.  Every third op is a re-encoding."""
    rng = random.Random(f"ingest:{seed}")
    total = INGEST_LEN[size]
    n_new = total - total // 3
    lengths = iter(_blocked(rng, sorted(stratified(rng, n_new, 8, 40)), INGEST_BLOCK))
    atom_counts = iter(_blocked(rng, [1 + j % 2 for j in range(n_new)], INGEST_BLOCK))
    ops: list[IngestOp] = []
    originals: list[int] = []
    next_numeral = 0
    cycle_total = 0
    for i in range(total):
        if i % 3 == 2:
            src_index = rng.choice(originals)
            ops.append(_reencode(rng, i, src_index, ops[src_index]))
            continue
        length = next(lengths)
        k = next(atom_counts)
        at = rng.sample(range(length), k)
        atoms = {f"a{i}_{j}": next_numeral + j for j in range(k)}
        next_numeral += k
        names = [f"c{i}_{j}" for j in range(length)]
        equations = []
        for j in range(length):
            rhs = {names[(j + 1) % length]}
            rhs.update(f"a{i}_{t}" for t in range(k) if at[t] == j)
            equations.append((names[j], frozenset(rhs)))
        ops.append(IngestOp("mint", length, atoms, equations, names,
                            fresh_numerals=k))
        originals.append(i)
        cycle_total += length
    return IngestStream(ops, cycle_total + next_numeral)


def _reencode(rng: random.Random, i: int, src_index: int, src: IngestOp) -> IngestOp:
    length = src.cycle
    atom_at = {}
    for name, rhs in src.equations:
        pos = src.nodes.index(name)
        atom_at[pos] = [r for r in rhs if r in src.atoms]
    rename = {a: f"b{i}_{t}" for t, a in enumerate(src.atoms)}
    labels = list(range(2 * length))
    rng.shuffle(labels)
    names = [f"r{i}_{labels[j]}" for j in range(2 * length)]
    equations = []
    for j in range(2 * length):
        rhs = {names[(j + 1) % (2 * length)]}
        rhs.update(rename[a] for a in atom_at[j % length])
        equations.append((names[j], frozenset(rhs)))
    rng.shuffle(equations)
    atoms = {rename[a]: k for a, k in src.atoms.items()}
    nodes = [(names[j], j % length) for j in range(2 * length)]
    return IngestOp("hit", length, atoms, equations, nodes, source=src_index)


# -- cli_files ----------------------------------------------------------------


@dataclass
class SystemFile:
    """A cyclic system with chords and atoms, plus its reference model.

    ``kids[j]`` are the node indices node j points at and ``atoms[j]``
    the frozenset values of its atoms; the benchmark's checks read these,
    never the program's own parse.
    """

    band: int
    text: str
    kids: list[list[int]]
    atoms: list[list[frozenset]]
    path: str = ""


CLI_BANDS = {"full": ((50, 100, 200, 400), 6), "tiny": ((6, 12, 24, 48), 1)}  # sizes, files each
MAX_NUMERAL = 120
WIDE_MAX = 30


def _brace_literal(rng: random.Random, depth: int) -> tuple[str, frozenset]:
    parts, values = [], []
    for _ in range(rng.randint(1, 3)):
        if depth > 0 and rng.random() < 0.4:
            text, value = _brace_literal(rng, depth - 1)
        else:
            k = rng.randint(0, 10)
            text, value = str(k), numeral(k)
        parts.append(text)
        values.append(value)
    return "{" + ",".join(parts) + "}", frozenset(values)


def cli_corpus(seed: int, size: str) -> list[SystemFile]:
    """Cycles in doubling size bands with random chords and 1-4 atoms,
    each atom a numeral, a nested brace literal or a wide literal.

    Every band holds the same mix: the same atom counts, and one large
    numeral per file drawn from the same strata of 0..MAX_NUMERAL.  The large numeral sets most of a file's cost, so the
    bands differ only in cycle size, which the doubling ratios need.
    """
    rng = random.Random(f"cli_files:{seed}")
    bands, per_band = CLI_BANDS[size]
    top = MAX_NUMERAL if size == "full" else 12
    files = []
    for n in bands:
        counts = [1 + j % 4 for j in range(per_band)]
        rng.shuffle(counts)
        for count, big in zip(counts, stratified(rng, per_band, 0, top, spread=0.2)):
            files.append(_system_file(rng, n, count, big))
    return files


def _system_file(rng: random.Random, n: int, count: int, big: int) -> SystemFile:
    kids = [[(j + 1) % n] for j in range(n)]
    for _ in range(max(1, n // 8)):
        a, b = rng.randrange(n), rng.randrange(n)
        if b not in kids[a]:
            kids[a].append(b)
    # chords that reverse a cycle edge give mutual members: double edges
    for _ in range(max(1, n // 16)):
        a = rng.randrange(n)
        if a not in kids[(a + 1) % n]:
            kids[(a + 1) % n].append(a)
    atoms: list[list[frozenset]] = [[] for _ in range(n)]
    decls = []
    for t in range(count):
        kind = rng.random()
        if t == 0:
            text, value = str(big), numeral(big)
        elif kind < 0.5:
            k = rng.randint(0, 12)
            text, value = str(k), numeral(k)
        elif kind < 0.8:
            text, value = _brace_literal(rng, 2)
        else:
            # {{0},{1},...,{k-1}}: when k exceeds every numeral the file
            # builds, printing it makes the serializer mint numeral k
            k = rng.randint(2, WIDE_MAX)
            text = "{" + ",".join(f"{{{j}}}" for j in range(k)) + "}"
            value = frozenset(frozenset({numeral(j)}) for j in range(k))
        if any(value == v for _, _, v in decls):
            continue
        atoms[rng.randrange(n)].append(value)
        decls.append((f"at{t}", text, value))
    return SystemFile(n, _system_text(rng, kids, atoms, decls), kids, atoms)


def _system_text(rng, kids, atoms, decls) -> str:
    n = len(kids)
    labels = list(range(n))
    rng.shuffle(labels)
    name = [f"v{labels[j]}" for j in range(n)]
    atom_name = {value: aname for aname, _, value in decls}
    lines = ["# generated cyclic system"]
    lines += [f"atom {aname} = {text}" for aname, text, _ in decls]
    eqs = []
    for j in range(n):
        rhs = [name[c] for c in kids[j]] + [atom_name[a] for a in atoms[j]]
        rng.shuffle(rhs)
        eqs.append(f"{name[j]} = {{{','.join(rhs)}}}")
    rng.shuffle(eqs)
    return "\n".join(lines + eqs) + "\n"


# -- constructions ------------------------------------------------------------


@dataclass
class ConstructionOp:
    """One ``hyperset`` CLI call; ``spec`` holds what the checks need."""

    kind: str
    argv: list[str]
    spec: dict = field(default_factory=dict)
    atom_seed: int | None = None


@dataclass
class Pattern:
    size: int
    edges: list[tuple[int, int]]
    loops: list[int]
    fmt: str

    def text(self) -> str:
        if self.fmt == "matrix":
            rows = []
            for i in range(self.size):
                row = ["0"] * self.size
                for a, b in self.edges:
                    if i in (a, b):
                        row[b if i == a else a] = "1"
                if i in self.loops:
                    row[i] = "1"
                rows.append(" ".join(row))
            return "\n".join(rows) + "\n"
        lines = [f"vertices {self.size}"]
        lines += [f"edge {a} {b}" for a, b in self.edges]
        lines += [f"loop {i}" for i in self.loops]
        return "\n".join(lines) + "\n"


def random_pattern(rng: random.Random, size: int) -> Pattern:
    """Connected pattern: a random spanning tree plus extra edges and loops."""
    order = list(range(size))
    rng.shuffle(order)
    edges = set()
    for t in range(1, size):
        a, b = order[t], order[rng.randrange(t)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, size // 2)):
        a, b = rng.sample(range(size), 2)
        edges.add((min(a, b), max(a, b)))
    loops = sorted(rng.sample(range(size), rng.randint(0, 2)))
    return Pattern(size, sorted(edges), loops, rng.choice(["edges", "matrix"]))


def _small_literal(rng: random.Random) -> tuple[str, frozenset]:
    if rng.random() < 0.6:
        k = rng.randint(0, 6)
        return str(k), numeral(k)
    ks = sorted(rng.sample(range(5), rng.randint(1, 2)))
    return "{" + ",".join(map(str, ks)) + "}", frozenset(numeral(k) for k in ks)


def _disjoint_lists(rng: random.Random, nu: int, nv: int):
    picked: dict[frozenset, str] = {}
    while len(picked) < nu + nv:
        text, value = _small_literal(rng)
        picked.setdefault(value, text)
    items = list(picked.items())
    rng.shuffle(items)
    return items[:nu], items[nu:]


# (left oracle seed, right oracle seed, rounds).  A loopy game's cost is
# set by how many pattern components its oracles happen to enumerate, a
# draw too coarse to average out within a pass, so these stay fixed.
LOOPY_GAMES = {"full": ((1, 2, 6), (3, 4, 4)), "tiny": ((1, 2, 2),)}
# (kind, ops per pass) at full size; "tiny" runs one of each.  More than
# half the ops (witnesses, bit/hf games) are short, as in interactive use,
# so the median op is a short one and the median does not fall in the gap
# between two ops of very different cost.
CONSTRUCTION_MIX = (("star", 6), ("component", 6), ("census", 4), ("rado", 3),
                    ("game_bit_hf", 6), ("game_loopy", len(LOOPY_GAMES["full"])),
                    ("witness_simple", 9), ("witness_loopy", 9))
CONSTRUCTION_SIZES = {"star": (1, 10), "component": (3, 7), "census": (2, 8),
                      "game_bit_hf": (6, 12)}
MAX_ATOM_SEED = {"full": 250, "tiny": 20}
PATTERN_ARG = "<pattern file>"


def construction_ops(seed: int, size: str) -> tuple[list[ConstructionOp], list[Pattern]]:
    """A shuffled pass of CLI calls.  A ``component`` argv holds
    PATTERN_ARG where the path of pattern ``spec["pattern"]`` goes."""
    rng = random.Random(f"constructions:{seed}")
    full = size == "full"
    top = MAX_ATOM_SEED[size]
    ops: list[ConstructionOp] = []
    patterns: list[Pattern] = []
    for kind, count in CONSTRUCTION_MIX:
        count = count if full else 1
        seeds = stratified(rng, count, 0, top, spread=0.2)
        lo, hi = CONSTRUCTION_SIZES.get(kind, (0, 0)) if full else (2, 3)
        params = stratified(rng, count, lo, hi)  # star n, pattern size, census n, rounds
        for t in range(count):
            if kind == "star":
                ops.append(ConstructionOp(kind, ["star", str(params[t]), "--seed", str(seeds[t])],
                                          {"n": params[t]}, seeds[t]))
            elif kind == "component":
                pat = random_pattern(rng, params[t])
                argv = ["component", PATTERN_ARG, "--seed", str(seeds[t])]
                if pat.fmt == "matrix":
                    argv += ["--pattern-format", "matrix"]
                ops.append(ConstructionOp(kind, argv, {"pattern": len(patterns)}, seeds[t]))
                patterns.append(pat)
            elif kind == "census":
                ops.append(ConstructionOp(kind, ["census", "--max-n", str(params[t]),
                                                 "--seed", str(seeds[t])], {"n": params[t]}, seeds[t]))
            elif kind == "rado":
                m = 50 + seeds[t] * 4 // 5 if full else 20
                ops.append(ConstructionOp(kind, ["rado", "--check", str(m)], {"m": m}))
            elif kind == "game_bit_hf":
                ops.append(ConstructionOp(kind, ["game", "--rounds", str(params[t]),
                                                 "--left", "bit", "--right", "hf"],
                                          {"rounds": params[t]}))
            elif kind == "game_loopy":
                a, b, rounds = LOOPY_GAMES[size][t]
                ops.append(ConstructionOp(kind, ["game", "--rounds", str(rounds),
                                                 "--left", f"loopy:{a}", "--right", f"loopy:{b}"],
                                          {"rounds": rounds}))
            else:
                loopy = kind == "witness_loopy"
                us, vs = _disjoint_lists(rng, rng.randint(1, 3), rng.randint(0, 2))
                argv = ["witness", "--loopy" if loopy else "--simple",
                        "--u", ",".join(text for _, text in us),
                        "--v", ",".join(text for _, text in vs)]
                ops.append(ConstructionOp(kind, argv, {"u": [v for v, _ in us],
                                                       "v": [v for v, _ in vs]}))
    rng.shuffle(ops)
    return ops, patterns
