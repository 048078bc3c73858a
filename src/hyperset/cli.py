"""Command-line front end.

Subcommands front the library operations one-to-one: ``solve`` and
``undirect`` read system files, ``witness``/``star``/``component``
drive the constructions, ``rado``/``game``/``census`` run the
verification sweeps.  All output is plain text in the formats described
in the README; graphs use ``v``/``e`` lines, sets use the system-file
syntax.  Exit code 0 on success, 1 with a diagnostic on stderr.

Respects the optional ``HYPERSET_MAX_SETS`` environment variable as a
cap on universe growth.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import HypersetError, ParseError, PreconditionError
from .flat import solve
from .rado import (
    back_and_forth,
    bit_graph_oracle,
    coding_correspondence,
    hf_membership_oracle,
    hyperset_loopy_oracle,
)
# perfbench/spans.py patches closure and parse_set_literal on this
# module by name; they are imported only for that.
from .reducts import closure, double_degree, has_loop, undirect
from .serialize import emit_graph, normal_form, serialize_set
from .sysfile import parse_pattern, parse_set_literal, parse_set_literals, parse_system
from .universe import Universe
from .witnesses import (
    component,
    double_component_graph,
    star,
    verify_loopy_witness,
    verify_simple_witness,
)


def _universe() -> Universe:
    cap = os.environ.get("HYPERSET_MAX_SETS")
    if not cap:
        return Universe()
    try:
        max_sets = int(cap)
    except ValueError:
        max_sets = -1
    if max_sets < 0:
        raise HypersetError(
            f"HYPERSET_MAX_SETS must be a non-negative integer, not {cap!r}")
    return Universe(max_sets=max_sets)


def _read(path: str) -> str:
    """Text of a UTF-8 file, with universal newlines as in text mode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HypersetError(f"{path}: not UTF-8: byte 0x{data[exc.start]:02x} "
                            f"at offset {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_graph(text: str) -> None:
    """Write emit_graph's text in 1 MiB slices, so that the text layer
    never holds an encoded copy of the whole graph."""
    for i in range(0, len(text), 1 << 20):
        sys.stdout.write(text[i:i + (1 << 20)])


def cmd_solve(args) -> int:
    u = _universe()
    system = parse_system(u, _read(args.file))
    solution = solve(u, system)
    roots = [(name, solution[name]) for name in system.indeterminates()]
    sys.stdout.write(normal_form(u, roots))
    return 0


def cmd_undirect(args) -> int:
    u = _universe()
    solution = solve(u, parse_system(u, _read(args.file)))
    graph = undirect(u, solution.values(), "double_only" if args.mode == "double" else args.mode)
    _write_graph(emit_graph(u, graph))
    return 0


def _parse_sets(u: Universe, option: str, text: str):
    try:
        return parse_set_literals(u, text)
    except ParseError as exc:
        raise HypersetError(f"{option}: {exc}") from None


def cmd_witness(args) -> int:
    u = _universe()
    us = _parse_sets(u, "--u", args.u)
    vs = _parse_sets(u, "--v", args.v)
    verify, order = ((verify_loopy_witness, ["z1", "z2", "x"]) if args.loopy
                     else (verify_simple_witness, ["z"]))
    try:
        report = verify(u, us, vs)
    except PreconditionError as exc:
        if exc.at is None:
            raise
        i, j = exc.at  # positions: a handle depends on what the store built first
        raise HypersetError(f"--u item {i + 1} and --v item {j + 1} are the same set") from None
    for name in order:
        text = serialize_set(u, report.witnesses[name])
        if not text.endswith("\n"):
            text += "\n"
        sys.stdout.write(f"set {name}\n{text}end\n")
    for cond, flag in report.conditions:
        sys.stdout.write(f"check {cond} {'pass' if flag else 'FAIL'}\n")
    if not report.ok:
        print(f"error: witness failed conditions: {', '.join(report.failed())}",
              file=sys.stderr)
        return 1
    return 0


def cmd_star(args) -> int:
    u = _universe()
    y, _xs = star(u, args.n, atom_seed=args.seed)
    _write_graph(emit_graph(u, double_component_graph(u, [y])))
    return 0


def cmd_component(args) -> int:
    u = _universe()
    pattern = parse_pattern(_read(args.file), fmt=args.pattern_format)
    _ys, graph = component(u, pattern, atom_seed=args.seed)  # raises unless the checks hold
    _write_graph(emit_graph(u, graph))
    sys.stdout.write("check isomorphic pass\n"
                     "check component_exact pass\n"
                     "check distinct pass\n")
    return 0


def cmd_rado(args) -> int:
    u = _universe()
    nsets, pairs, mismatches = coding_correspondence(u, args.check)
    if mismatches:
        print(f"error: {len(mismatches)} pairs disagree with BIT adjacency, "
              f"first {mismatches[0]}", file=sys.stderr)
        return 1
    sys.stdout.write(f"rado check max={args.check} sets={nsets} pairs={pairs} ok\n")
    return 0


def _oracle_from_spec(spec: str, default_seed: int):
    if spec == "bit":
        return bit_graph_oracle()
    if spec == "hf":
        return hf_membership_oracle(_universe())
    if spec == "loopy" or spec.startswith("loopy:"):
        try:
            seed = int(spec.split(":", 1)[1]) if ":" in spec else default_seed
        except ValueError:
            raise HypersetError(f"oracle seed in {spec!r} must be an integer") from None
        return hyperset_loopy_oracle(_universe(), seed=seed)
    raise HypersetError(f"unknown oracle {spec!r}; use bit, hf, or loopy[:SEED]")


def cmd_game(args) -> int:
    left = _oracle_from_spec(args.left, args.seed)
    right = _oracle_from_spec(args.right, args.seed + 1)
    iso = back_and_forth(left, right, args.rounds)
    for a, b in iso.pairs:
        sys.stdout.write(f"pair {left.label(a)} {right.label(b)}\n")
    if not iso.check(left, right):
        print("error: partial isomorphism failed re-verification", file=sys.stderr)
        return 1
    sys.stdout.write(f"game ok size={len(iso)}\n")
    return 0


def cmd_census(args) -> int:
    if args.max_n < 0:
        raise PreconditionError("--max-n must be a natural number")
    u = _universe()
    degrees = []
    for n in range(args.max_n + 1):
        y, _ = star(u, n, atom_seed=args.seed)
        d = double_degree(u, y)
        degrees.append(d)
        loop = "true" if has_loop(u, y) else "false"
        sys.stdout.write(f"census n={n} double_degree={d} loop={loop}\n")
    sys.stdout.write(f"census distinct={len(set(degrees))}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperset",
        description="hereditarily finite hypersets, membership reducts, "
                    "and extension-property constructions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a system file, print its normal form")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("undirect", help="undirected reduct of a solved system")
    p.add_argument("file")
    p.add_argument("--mode", choices=["loopy", "multi", "double"], default="loopy")
    p.set_defaults(func=cmd_undirect)

    p = sub.add_parser("witness", help="extension-property witnesses")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--simple", action="store_true")
    group.add_argument("--loopy", action="store_true")
    p.add_argument("--u", default="", help="comma-separated set literals")
    p.add_argument("--v", default="", help="comma-separated set literals")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("star", help="set lying on exactly N double edges")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0, help="first atom index")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("component", help="double-edge component from a pattern file")
    p.add_argument("file")
    p.add_argument("--pattern-format", choices=["edges", "matrix"], default="edges")
    p.add_argument("--seed", type=int, default=0, help="first atom index")
    p.set_defaults(func=cmd_component)

    p = sub.add_parser("rado", help="membership-vs-BIT correspondence sweep")
    p.add_argument("--check", type=int, required=True, metavar="N")
    p.set_defaults(func=cmd_rado)

    p = sub.add_parser("game", help="back-and-forth game between two oracles")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("census", help="double-degree census of stars 0..N")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_census)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    try:
        sys.stdout.reconfigure(encoding="utf-8")
    except (AttributeError, ValueError):
        pass
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, HypersetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
