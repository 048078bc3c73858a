"""Span recorder and the wrappers that feed it, installed from outside.

In a traced run the benchmark swaps module attributes that hyperset
looks up at call time (``hyperset.cli.solve``, ``hyperset.serialize.
structural_ranks``, ``hyperset.reducts.undirect`` ...) for wrappers that
record a span per call, and binds ``hyperset.cli.Universe`` and
``hyperset.rado.AckermannCoder`` to subclasses whose methods are
wrapped the same way.  No file of the program changes.  ``uninstall``
puts every original back.

A span is (name, start, end, parent index, op id, outermost).  Self
time is a span's duration minus that of its children; calls are
single-threaded and nested, so the children never overlap.  Bookkeeping
that a wrapper does after the call is recorded as a ``trace.hook``
child, so it is charged to no layer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

SERIALIZE_TOP = ("serialize.normal_form", "serialize.emit_graph", "serialize.serialize_set")


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.universes: list = []
        self.wrapped: dict = {}
        self._pending_graph = None
        self._patched: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """``fn`` wrapped in a span; ``hook(args, result)`` runs after it."""
        spans, stack, depth = self.spans, self.stack, self.depth

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name,))  # completed when the call returns
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            stack.append(index)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, outermost)
            if hook is not None:
                self._run_hook(hook, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_hook(self, hook, parent, args, result):
        start = perf_counter()
        hook(args, result)
        self.spans.append(("trace.hook", start, perf_counter(), parent, self.op, True))

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller, inside a hook)."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- installing -----------------------------------------------------------

    def patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def traced_universe(self, base):
        """Subclass of ``base`` whose store-growing methods record spans."""
        rec = self

        class TracedUniverse(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rec.universes.append(self)

        for meth in ("canonicalize_all", "make_set", "vn"):
            setattr(TracedUniverse, meth, self.wrap(f"universe.{meth}", getattr(base, meth)))
        return TracedUniverse

    def install(self, hs) -> None:
        """Wrap every call site the per-layer metrics read."""
        cli, flat, reducts, serialize = hs.cli, hs.flat, hs.reducts, hs.serialize
        rado, sysfile, witnesses = hs.rado, hs.sysfile, hs.witnesses
        counts = self.counts

        def parsed(args, result):
            counts["parse_bytes"] += len(args[-1].encode("utf-8"))

        def serialized(before):
            def hook(args, result):
                if self.parent_name() in SERIALIZE_TOP:
                    return
                counts["serialize_growth"] += len(args[0]) - before[-1]
                counts["serialize_bytes"] += len(result.encode("utf-8"))
            return hook

        def undirected(args, result):
            if self.parent_name() == "reducts.double_component":
                u, sl = args[0], args[1]
                counts["double_scanned"] += sum(len(u.elements(x)) for x in sl.vertices)
                self._pending_graph = result

        def double_comp(args, result):
            graph, self._pending_graph = self._pending_graph, None
            if graph is not None:
                counts["double_useful"] += sum(1 for a, b in graph.edges
                                               if a in result and b in result)

        def played(args, result):
            counts["game_calls"] += 1
            counts["game_rounds"] += len(result)

        def serialize_fn(name, fn):
            before: list[int] = []
            inner = self.wrap(name, fn, serialized(before))

            def call(u, *args, **kwargs):
                before.append(len(u))
                try:
                    return inner(u, *args, **kwargs)
                finally:
                    before.pop()
            return call

        # (span name, function, hook, modules whose attribute of that name is swapped)
        targets = [
            ("flat.solve", flat.solve, None, [cli, witnesses]),
            ("sysfile.parse_system", sysfile.parse_system, parsed, [cli]),
            ("sysfile.parse_set_literal", sysfile.parse_set_literal, parsed, [cli]),
            ("sysfile.parse_pattern", sysfile.parse_pattern, parsed, [cli]),
            ("serialize.structural_ranks", serialize.structural_ranks, None, [serialize]),
            ("serialize.wf_code_index", serialize.wf_code_index, None, [serialize]),
            ("reducts.closure", reducts.closure, None, [cli, serialize, witnesses]),
            ("reducts.undirect", reducts.undirect, undirected, [cli, reducts, witnesses]),
            ("reducts.double_component", reducts.double_component, double_comp, [witnesses]),
            ("witnesses.star", witnesses.star, None, [cli, rado]),
            ("witnesses.component", witnesses.component, None, [cli, rado]),
            ("witnesses.loopy_witness", witnesses.verify_loopy_witness, None, [cli, witnesses]),
            ("witnesses.simple_witness", witnesses.verify_simple_witness, None, [cli, witnesses]),
            ("rado.coding", rado.coding_correspondence, None, [cli]),
            ("rado.game", rado.back_and_forth, played, [cli]),
        ]
        for name, fn, hook, modules in targets:
            wrapped = self.wrapped[name] = self.wrap(name, fn, hook)
            for module in modules:
                self.patch(module, fn.__name__, wrapped)
        self.wrapped["cli.main"] = self.wrap("cli.main", cli.main)
        for name in SERIALIZE_TOP:
            attr = name.split(".", 1)[1]
            wrapped = serialize_fn(name, getattr(serialize, attr))
            for module in (cli, serialize):
                self.patch(module, attr, wrapped)

        self.universe_cls = self.traced_universe(hs.universe.Universe)
        self.patch(cli, "Universe", self.universe_cls)
        coder = rado.AckermannCoder

        class TracedCoder(coder):
            pass

        TracedCoder.code = self.wrap("rado.coding", coder.code)
        TracedCoder.decode = self.wrap("rado.coding", coder.decode)
        self.patch(rado, "AckermannCoder", TracedCoder)

    # -- summarising ----------------------------------------------------------

    def totals(self):
        """(outermost inclusive time, self time, calls) per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _op, outermost in self.spans:
            d = end - start
            calls[name] += 1
            self_time[name] += d
            if outermost:
                inclusive[name] += d
            if parent >= 0:
                self_time[self.spans[parent][0]] -= d
        return inclusive, self_time, calls

    def per_op(self, name: str) -> dict[int, float]:
        """Outermost inclusive time of ``name`` grouped by op id."""
        out: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[0] == name and span[5]:
                out[span[4]] += span[2] - span[1]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _outermost in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]))
                fh.write("\n")
