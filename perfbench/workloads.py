"""The three workloads.

Load is a closed loop: one caller, no threads, each op issued when the
previous one returns.  A pass replays the workload's whole generated
input once; the timed phase repeats passes until its time is up and
always finishes the pass it is in, so every pass measures the same work.

``run_pass`` times each op and checks what is cheap to check at once;
``verify`` runs the expensive independent checks once per distinct op,
after the timed phases, on the output of the first pass (later passes
must reproduce it byte for byte).  ``tamper(index, output)`` lets the
self-test corrupt an output before it is checked.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

import check
import gen


@dataclass
class Op:
    op_id: int  # running count over the process; spans carry it too
    index: int  # position in the pass
    start: float  # perf_counter() when the op was issued
    latency: float  # wall seconds
    ok: bool
    group: object = None  # mint/hit for ingest, size band for cli_files, kind otherwise
    minted: int = 0  # sets the op added to the stores it used
    note: str = ""


def cli_call(main, argv) -> tuple[object, str]:
    """Run ``main(argv)`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            rc = "raised: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()[:200]}"
    return rc, out.getvalue()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: str, clock=None):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.clock = clock  # a RefClock, sampled between ops
        self.op_seq = 0

    def bind(self, hs, rec=None) -> None:
        """Call into ``hs`` directly, or through ``rec``'s wrappers."""
        self.hs, self.rec = hs, rec
        self.main = rec.wrapped["cli.main"] if rec else hs.cli.main

    def _next_op(self) -> int:
        if self.clock is not None:
            self.clock.maybe_sample()
        if self.rec is not None:
            self.rec.op = self.op_seq
            self.rec.universes.clear()
        self.op_seq += 1
        return self.op_seq - 1

    def _minted(self) -> int:
        if self.rec is None:
            return 0
        return sum(len(u) for u in self.rec.universes)

    def verify(self) -> dict[int, str]:
        return {}

    def properties(self, ops) -> dict[str, float]:
        """Workload-property shares and scaling numbers of the traced ops."""
        return {}


# -- ingest -----------------------------------------------------------------------


class Ingest(Workload):
    """One store absorbs a seeded stream of flat systems via flat.solve."""

    name = "ingest"

    def setup(self) -> None:
        self.stream = gen.ingest_stream(self.seed, self.size)

    def bind(self, hs, rec=None) -> None:
        super().bind(hs, rec)
        self.solve = rec.wrapped["flat.solve"] if rec else hs.flat.solve
        self.universe_cls = rec.universe_cls if rec else hs.universe.Universe
        self.universe = None

    def run_pass(self, tamper=None, limit=None) -> list[Op]:
        self.universe = None
        u = self.universe_cls()
        FlatSystem = self.hs.flat.FlatSystem
        handles: dict[int, list[int]] = {}
        ops = self.stream.ops[:limit]
        out = []
        for i, op in enumerate(ops):
            op_id = self._next_op()
            before = len(u)
            try:
                t0 = perf_counter()
                atoms = {name: u.vn(k) for name, k in op.atoms.items()}
                sol = self.solve(u, FlatSystem(atoms=atoms, equations=op.equations))
                latency = perf_counter() - t0
            except Exception as exc:
                out.append(Op(op_id, i, t0, perf_counter() - t0, False, op.kind,
                              note=f"op {i} raised {exc!r}"))
                continue
            if tamper is not None:
                sol = tamper(i, sol)
            minted = len(u) - before
            if op.kind == "mint":
                got = [sol[name] for name in op.nodes]
                handles[i] = got
                ok = (min(got) >= before and len(set(got)) == op.cycle
                      and minted == op.cycle + op.fresh_numerals)
            else:
                orig = handles.get(op.source)
                ok = (orig is not None and minted == 0
                      and all(sol[name] == orig[pos] for name, pos in op.nodes))
            out.append(Op(op_id, i, t0, latency, ok, op.kind, minted,
                          "" if ok else f"op {i} ({op.kind}) wrong handles"))
        if limit is None and len(u) != self.stream.final_size:
            out[-1].ok = False
            out[-1].note = f"final store size {len(u)}, expected {self.stream.final_size}"
        self.universe = u
        return out

    def pass_len(self) -> int:
        return len(self.stream.ops)

    def properties(self, ops) -> dict[str, float]:
        n = self.pass_len()
        tenth = max(1, n // 10)
        early = [op.latency for op in ops if op.index < tenth]
        late = [op.latency for op in ops if op.index >= n - tenth]
        long_cycles = sum(1 for op in self.stream.ops if op.cycle > 10)
        return {"universe.late_early_ratio": statistics.mean(late) / statistics.mean(early),
                "ingest.long_cycle_share": long_cycles / n}


# -- cli_files -----------------------------------------------------------------


class CliFiles(Workload):
    """``solve FILE`` then ``undirect FILE --mode multi`` per system file."""

    name = "cli_files"

    def setup(self) -> None:
        self.files = gen.cli_corpus(self.seed, self.size)
        for k, f in enumerate(self.files):
            f.path = os.path.join(self.workdir, f"sys{k:02d}_n{f.band}.hs")
            with open(f.path, "w", encoding="utf-8") as fh:
                fh.write(f.text)
        self.first: dict[int, tuple] = {}

    def run_pass(self, tamper=None) -> list[Op]:
        out = []
        for i, f in enumerate(self.files):
            op_id = self._next_op()
            t0 = perf_counter()
            solved = cli_call(self.main, ["solve", f.path])
            graph = cli_call(self.main, ["undirect", f.path, "--mode", "multi"])
            latency = perf_counter() - t0
            result = (solved, graph)
            if tamper is not None:
                result = tamper(i, result)
            first = self.first.setdefault(i, result)
            ok = solved[0] == 0 and graph[0] == 0 and result == first
            note = "" if ok else f"file {i}: exit {solved[0]}/{graph[0]} or output changed"
            out.append(Op(op_id, i, t0, latency, ok, f.band, self._minted(), note))
        return out

    def pass_len(self) -> int:
        return len(self.files)

    def verify(self) -> dict[int, str]:
        bad = {}
        path = os.path.join(self.workdir, "resolve.hs")
        for i, ((_, solved), (_, graph)) in self.first.items():
            problems = check.check_system_outputs(self.files[i], solved, graph)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(solved)
            rc, again = cli_call(self.hs.cli.main, ["solve", path])
            if rc != 0 or again != solved:
                problems.append("re-solving the normal form changed it")
            if problems:
                bad[i] = f"file {i}: " + "; ".join(problems)
        return bad


# -- constructions ---------------------------------------------------------------


class Constructions(Workload):
    """A seeded mix of witness, star, component, rado, game and census calls."""

    name = "constructions"

    def setup(self) -> None:
        self.ops, self.patterns = gen.construction_ops(self.seed, self.size)
        paths = []
        for k, pat in enumerate(self.patterns):
            paths.append(os.path.join(self.workdir, f"pattern{k:02d}.txt"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(pat.text())
        self.argvs = [[paths[op.spec["pattern"]] if a == gen.PATTERN_ARG else a for a in op.argv]
                      for op in self.ops]
        self.first: dict[int, tuple] = {}

    def run_pass(self, tamper=None) -> list[Op]:
        out = []
        for i, argv in enumerate(self.argvs):
            op_id = self._next_op()
            t0 = perf_counter()
            result = cli_call(self.main, argv)
            latency = perf_counter() - t0
            if tamper is not None:
                result = tamper(i, result)
            first = self.first.setdefault(i, result)
            ok = result[0] == 0 and result == first
            note = "" if ok else f"op {i} {' '.join(argv)}: exit {result[0]}"
            out.append(Op(op_id, i, t0, latency, ok, self.ops[i].kind, self._minted(), note))
        return out

    def pass_len(self) -> int:
        return len(self.ops)

    def properties(self, ops) -> dict[str, float]:
        deep = sum(1 for op in self.ops if (op.atom_seed or 0) >= 100)
        return {"constructions.deep_seed_share": deep / len(self.ops)}

    def verify(self) -> dict[int, str]:
        bad = {}
        for i, (_, text) in self.first.items():
            op = self.ops[i]
            spec = op.spec
            if op.kind == "star":
                problems = check.check_star(spec["n"], text)
            elif op.kind == "component":
                problems = check.check_component(self.patterns[spec["pattern"]], text)
            elif op.kind == "census":
                problems = check.check_census(spec["n"], text)
            elif op.kind == "rado":
                problems = check.check_rado(spec["m"], text)
            elif op.kind.startswith("game"):
                problems = check.check_game(spec["rounds"], text, op.kind == "game_bit_hf")
            else:
                problems = check.check_witness(spec, text, op.kind == "witness_loopy")
            if problems:
                bad[i] = f"op {i} {' '.join(op.argv)}: " + "; ".join(problems)
        return bad


WORKLOADS = {w.name: w for w in (Ingest, CliFiles, Constructions)}
