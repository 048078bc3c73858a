"""hyperset benchmark: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload ingest|cli_files|constructions \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; hyperset is imported from its ``src/``.
With ``--trace 0`` the timed phase runs untraced and the end-to-end
metrics are printed.  With ``--trace 1`` half the time runs untraced
(the base of ``trace.overhead_ratio``) and half with spans recorded, and
the per-layer metrics are printed.  Every metric is printed as
``metric <name> <value> <unit>``, run facts as a ``# meta`` JSON line,
and the last line is the result JSON.  Spans and the full result are
written under ``.perfbench_out/``.  See NOTES.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("universe", "flat", "reducts", "serialize", "sysfile", "witnesses", "rado", "cli")
SETUP_REPEATS = 5
TAIL_PERCENTILE = 90.0
TAIL_BEYOND = 10  # samples the tail must leave above it
STORE_SAMPLE_OPS = 40  # ingest ops absorbed while tracemalloc measures the store


class SetupError(Exception):
    pass


def import_hyperset() -> SimpleNamespace:
    """Fresh import of the checkout's hyperset package and its modules."""
    for name in [m for m in sys.modules if m == "hyperset" or m.startswith("hyperset.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("hyperset")
        mods = {m: importlib.import_module(f"hyperset.{m}") for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import hyperset from {SRC}: {exc}") from exc
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"hyperset was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload, clock, repeats: int):
    """Import hyperset and generate and write the inputs, ``repeats``
    times after one warm-up; returns the modules, the median time in
    reference seconds and the median wall time."""
    wall, ref = [], []
    for k in range(repeats + 1):
        clock.sample()
        t0 = perf_counter()
        hs = import_hyperset()
        workload.setup()
        if k:
            wall.append(perf_counter() - t0)
            ref.append((t0, wall[-1]))
    clock.sample()
    return hs, statistics.median(d * clock.scale(t) for t, d in ref), statistics.median(wall)


def timed_phase(workload, seconds: float, tamper=None):
    """Whole passes until ``seconds`` have elapsed; (ops, pass times)."""
    ops, passes = [], []
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        t0 = perf_counter()
        ops.extend(workload.run_pass(tamper))
        passes.append(perf_counter() - t0)
        if perf_counter() >= deadline:
            workload.clock.sample()
            return ops, passes


def ref_latencies(ops, clock) -> list[float]:
    return [op.latency * clock.scale(op.start) for op in ops]


def tail(latencies):
    """(value, percentile, samples beyond it) at TAIL_PERCENTILE, or at
    the highest percentile that leaves TAIL_BEYOND samples above it when
    the run has too few samples for that.

    A fixed percentile, rather than the highest one the sample count
    allows, keeps the tail on the same ops when a faster program fits
    more passes into a run."""
    xs = sorted(latencies)
    k = min(int(len(xs) * TAIL_PERCENTILE / 100.0), len(xs) - TAIL_BEYOND - 1)
    k = max(0, k)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def geo_doubling(groups: dict[int, list[float]]) -> float:
    """Geometric mean, per doubling of size, of the ratio of band medians."""
    bands = sorted(b for b in groups if groups[b])
    if len(bands) < 2:
        return 0.0
    lo, hi = statistics.median(groups[bands[0]]), statistics.median(groups[bands[-1]])
    if lo <= 0:
        return 0.0
    return (hi / lo) ** (1.0 / math.log2(bands[-1] / bands[0]))


def latency_metrics(lat) -> tuple[dict, dict]:
    """Throughput of the closed loop, median and tail from latencies."""
    tail_value, pct, beyond = tail(lat)
    return ({"ops_per_s": len(lat) / sum(lat), "op_p50_ms": statistics.median(lat) * 1e3,
             "op_tail_ms": tail_value * 1e3},
            {"tail_percentile": round(pct, 3), "tail_samples_beyond": beyond,
             "samples": len(lat)})


def store_bytes_per_set(workload) -> float:
    """Bytes the ingest store holds per set, by tracemalloc: memory with
    the store alive minus memory once it is dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        workload.run_pass(limit=STORE_SAMPLE_OPS)
        gc.collect()
        with_store = tracemalloc.get_traced_memory()[0]
        n_sets = len(workload.universe)
        workload.universe = None
        gc.collect()
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (with_store - without) / n_sets


def per_layer(workload, rec, ops, scale, bytes_per_set):
    """Per-layer metrics of the traced ops; times are scaled to reference
    seconds by ``scale``, the traced phase's median clock factor."""
    n = len(ops)
    inclusive, self_time, calls = rec.totals()
    inclusive = {k: v * scale for k, v in inclusive.items()}
    self_time = {k: v * scale for k, v in self_time.items()}
    counts = rec.counts

    def per_op(table, *names):
        return sum(table.get(x, 0.0) for x in names) / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "universe.canonicalize_s": per_op(inclusive, "universe.canonicalize_all"),
        "universe.make_set_s": per_op(inclusive, "universe.make_set"),
        "universe.vn_s": per_op(inclusive, "universe.vn"),
        "universe.sets_minted": sum(op.minted for op in ops) / n,
        "flat.solve_s": per_op(self_time, "flat.solve"),
        "sysfile.parse_s": per_op(inclusive, "sysfile.parse_system",
                                  "sysfile.parse_set_literal", "sysfile.parse_pattern"),
        "serialize.normal_form_s": per_op(self_time, "serialize.normal_form"),
        "serialize.emit_graph_s": per_op(self_time, "serialize.emit_graph"),
        "serialize.structural_ranks_s": per_op(inclusive, "serialize.structural_ranks"),
        "serialize.wf_code_index_s": per_op(inclusive, "serialize.wf_code_index"),
        "serialize.store_growth": counts["serialize_growth"] / n,
        "serialize.output_bytes": counts["serialize_bytes"] / n,
        "reducts.undirect_s": per_op(inclusive, "reducts.undirect"),
        "reducts.undirect_calls": calls.get("reducts.undirect", 0) / n,
        "reducts.closure_s": per_op(inclusive, "reducts.closure"),
        "reducts.double_component_s": per_op(inclusive, "reducts.double_component"),
        "reducts.useful_edge_ratio": ratio(counts["double_useful"], counts["double_scanned"]),
        "witnesses.component_s": per_op(self_time, "witnesses.component"),
        "witnesses.star_s": per_op(self_time, "witnesses.star"),
        "witnesses.loopy_witness_s": per_op(self_time, "witnesses.loopy_witness"),
        "rado.coding_s": per_op(self_time, "rado.coding"),
        "rado.game_s": per_op(self_time, "rado.game"),
        "rado.game_rounds": ratio(counts["game_rounds"], counts["game_calls"]),
        "cli.main_self_s": per_op(self_time, "cli.main"),
    }
    m["sysfile.bytes_per_s"] = ratio(counts["parse_bytes"], m["sysfile.parse_s"] * n)

    mint = [op.latency for op in ops if op.group == "mint"]
    hits = [op for op in ops if op.group == "hit"]
    m["universe.mint_p50_ms"] = statistics.median(mint) * scale * 1e3 if mint else 0.0
    m["universe.hit_p50_ms"] = (statistics.median([op.latency for op in hits]) * scale * 1e3
                                if hits else 0.0)
    m["universe.hit_ratio"] = ratio(sum(1 for op in hits if op.minted == 0), len(hits))
    m["universe.bytes_per_set"] = bytes_per_set

    # size-band scaling, meaningful on cli_files (the only workload with bands)
    bands: dict[object, list] = {}
    for op in ops:
        if isinstance(op.group, int):
            bands.setdefault(op.group, []).append(op)
    solve_by_op = rec.per_op("flat.solve")
    nf_by_op = rec.per_op("serialize.normal_form")
    m["flat.solve_doubling"] = geo_doubling(
        {b: [solve_by_op[op.op_id] for op in group] for b, group in bands.items()})
    m["serialize.normal_form_doubling"] = geo_doubling(
        {b: [nf_by_op[op.op_id] for op in group] for b, group in bands.items()})
    m["cli_files.op_doubling"] = geo_doubling(
        {b: [op.latency for op in group] for b, group in bands.items()})
    for key in ("universe.late_early_ratio", "ingest.long_cycle_share",
                "constructions.deep_seed_share"):
        m[key] = 0.0
    m.update(workload.properties(ops))
    return m


UNITS = {"universe.sets_minted": "count/op", "universe.bytes_per_set": "B",
         "sysfile.bytes_per_s": "B/s", "serialize.store_growth": "count/op",
         "serialize.output_bytes": "B/op", "reducts.undirect_calls": "count/op",
         "rado.game_rounds": "count/game"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "s/op" if name.endswith("_s") else "ratio"


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def run(args, tamper=None) -> dict:
    clock = RefClock()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.size, str(workdir), clock)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        hs, setup_s, setup_wall = setup(workload, clock, SETUP_REPEATS)
        workload.bind(hs)
        meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "size": args.size, "src_lines": src_line_count(),
                "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
        if not args.trace:
            ops, passes = timed_phase(workload, args.seconds, tamper)
            traced_ops = None
        else:
            ops, passes = timed_phase(workload, args.seconds / 2, tamper)
            base = latency_metrics(ref_latencies(ops, clock))[0]["ops_per_s"]
            bytes_per_set = store_bytes_per_set(workload) if args.workload == "ingest" else 0.0
            rec = spans.Recorder()
            rec.install(hs)
            try:
                workload.bind(hs, rec)
                traced_ops, _ = timed_phase(workload, args.seconds / 2, tamper)
            finally:
                rec.uninstall()
                workload.bind(hs)
            ops = ops + traced_ops
        bad = workload.verify()
        failed = [op for op in ops if not op.ok or op.index in bad]
        notes = sorted({op.note for op in failed if op.note} | set(bad.values()))
        if traced_ops is None:
            timing, extra = latency_metrics(ref_latencies(ops, clock))
            raw = latency_metrics([op.latency for op in ops])[0]
            meta.update(extra, pass_s=[round(t, 3) for t in passes], **clock.summary(),
                        wall={**{k: round(v, 4) for k, v in raw.items()},
                              "setup_s": round(setup_wall, 4)})
            metrics = {"ops_per_s": (timing["ops_per_s"], "1/s"),
                       "op_p50_ms": (timing["op_p50_ms"], "ms"),
                       "op_tail_ms": (timing["op_tail_ms"], "ms"),
                       "setup_s": (setup_s, "s"),
                       "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                       "MB"),
                       "ok_ratio": (1.0 - len(failed) / len(ops), "ratio"),
                       "fail_ratio": (len(failed) / len(ops), "ratio")}
        else:
            scale = statistics.median(clock.scale(op.start) for op in traced_ops)
            traced = latency_metrics(ref_latencies(traced_ops, clock))[0]["ops_per_s"]
            layer = per_layer(workload, rec, traced_ops, scale, bytes_per_set)
            layer["trace.overhead_ratio"] = traced / base
            metrics = {k: (v, unit_of(k)) for k, v in sorted(layer.items())}
            meta["spans"] = len(rec.spans)
            rec.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        return {"meta": meta, "metrics": metrics, "attempted": len(ops),
                "failed": len(failed), "notes": notes}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "hyperset" / "__init__.py").is_file():
        print(f"error: no hyperset package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in result["notes"][:10]:
        print(f"check failed: {note}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value:.6g} {unit}")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    reported = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
                if k != "fail_ratio"}
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": reported}
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(dict(final, meta=result["meta"], notes=result["notes"]), indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
