"""Batch command line: construct, label, verify, and report on the products.

Exit codes: 0 success (and, for verify, antimagic); 1 verification
failure; 2 usage error; 3 formula-coverage error, or a product, grid
or exhaustive search over its size budget.
Integers from the command line or a file are read only as ``str(int)``
writes them; any other spelling is a usage error.  All output is
exact-integer text or JSON with a fixed field order, so identical
invocations produce byte-identical files, except ``search``, whose JSON
carries the measured ``stats.wall_time_ms``.
``label`` and ``export`` import, through
:func:`conformance.scheme_labeling`, the one formula table of the family
they name, and ``grid-report`` imports :mod:`.families`, and with it all
three; the other verbs never load one.
"""

from __future__ import annotations

import argparse
import json
import sys

from .conformance import FormulaCoverageError, scheme_labeling, to_jsonl
from .formula import Variant
from .graphs import (
    CapacityError,
    GraphError,
    _FAMILY_BUILDERS,
    edge_ends,
    edge_name,
    join_lines,
    parse_int,
    product_graph,
    vertex_name,
    write_edge_list,
)
from .labeling import parse_labeled_edge_list, verify_antimagic, vertex_sums
from .search import SearchConfig, Status, Strategy, search_antimagic

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_COVERAGE = 3


def _parse_range(text: str) -> range:
    """'3..9' or a single number; both ends inclusive."""
    lo, sep, hi = text.partition("..")
    try:
        return range(parse_int(lo), parse_int(hi if sep else lo) + 1)
    except GraphError:
        raise GraphError(f"bad range {text!r}; expected N or LO..HI") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _add_family_args(p: argparse.ArgumentParser, ranged: bool = False) -> None:
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_BUILDERS))
    if ranged:
        p.add_argument("--m", required=True, help="wheel size, N or LO..HI")
        p.add_argument("--n", required=True, help="star size, N or LO..HI")
    else:
        p.add_argument("--m", required=True, type=parse_int)
        p.add_argument("--n", required=True, type=parse_int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Antimagic labelings of wheel/helm/flower-star tensor products.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="emit the product graph as an edge list")
    _add_family_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("label", help="emit the scheme labeling as a labeled edge list")
    _add_family_args(p)
    p.add_argument("--variant", default="errata", choices=[v.value for v in Variant])
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="verify a labeled edge list; exit 0 iff antimagic")
    p.add_argument("--in", dest="infile", required=True, help="labeled edge list, '-' for stdin")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sums", help="emit the vertex sum profile of a labeled edge list")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("search", help="search for an antimagic labeling of a product")
    _add_family_args(p)
    p.add_argument("--strategy", default="exhaustive",
                   choices=[s.value for s in Strategy])
    p.add_argument("--seed", type=parse_int, default=0)
    p.add_argument("--max-iterations", type=parse_int, default=20_000)
    p.add_argument("--max-exhaustive-edges", type=parse_int, default=10)
    p.add_argument("--out", default=None)

    p = sub.add_parser("grid-report", help="conformance reports over an (m, n) grid")
    _add_family_args(p, ranged=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="export a labeled product for rendering")
    _add_family_args(p)
    p.add_argument("--variant", default="errata", choices=[v.value for v in Variant])
    p.add_argument("--format", default="dot", choices=["dot"])
    p.add_argument("--out", default=None)

    return parser


def _cmd_construct(args) -> int:
    g = product_graph(args.family, args.m, args.n)
    _write(args.out, write_edge_list(g))
    return EXIT_OK


def _cmd_label(args) -> int:
    g = product_graph(args.family, args.m, args.n)
    labeling = scheme_labeling(args.family, args.m, args.n, Variant(args.variant))
    _write(args.out, labeling.to_text(g))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g, labeling = parse_labeled_edge_list(_read(args.infile))
    report = verify_antimagic(g, labeling)
    _write(args.out, report.to_json())
    return EXIT_OK if report.antimagic else EXIT_VERIFY_FAIL


def _cmd_sums(args) -> int:
    g, labeling = parse_labeled_edge_list(_read(args.infile))
    sums = vertex_sums(g, labeling)
    _write(args.out, join_lines(f"{vertex_name(v)} {sums[v]}" for v in g.vertices))
    return EXIT_OK


def _cmd_search(args) -> int:
    g = product_graph(args.family, args.m, args.n)
    config = SearchConfig(
        strategy=Strategy(args.strategy),
        max_exhaustive_edges=args.max_exhaustive_edges,
        max_iterations=args.max_iterations,
        seed=args.seed,
    )
    result = search_antimagic(g, config)
    payload = {
        "family": args.family,
        "m": args.m,
        "n": args.n,
        "strategy": config.strategy.value,
        "seed": config.seed,
        "status": result.status.value,
        "labels": None,
        "stats": result.stats.to_json_dict(),
    }
    if result.labeling is not None:
        payload["labels"] = {edge_name(e): result.labeling.labels[e] for e in g.edges}
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if result.status in (Status.FOUND, Status.NONE_EXISTS) else EXIT_VERIFY_FAIL


def _cmd_grid_report(args) -> int:
    from .families import grid_records

    ms = _parse_range(args.m)
    ns = _parse_range(args.n)
    if len(ms) == 0 or len(ns) == 0:
        raise GraphError("empty m or n range")
    _write(args.out, to_jsonl(grid_records(args.family, ms, ns)))
    return EXIT_OK


def _dot_lines(g, labeling, sums):
    yield "graph antimagic {"
    for v in g.vertices:
        name = vertex_name(v)
        yield f'  "{name}" [label="{name}\\nsum={sums[v]}"];'
    for e in g.edges:
        a, b = map(vertex_name, edge_ends(e))
        yield f'  "{a}" -- "{b}" [label="{labeling.labels[e]}"];'
    yield "}"


def _cmd_export(args) -> int:
    g = product_graph(args.family, args.m, args.n)
    labeling = scheme_labeling(args.family, args.m, args.n, Variant(args.variant))
    sums = vertex_sums(g, labeling)
    _write(args.out, join_lines(_dot_lines(g, labeling, sums)))
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "label": _cmd_label,
    "verify": _cmd_verify,
    "sums": _cmd_sums,
    "search": _cmd_search,
    "grid-report": _cmd_grid_report,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.verb](args)
    except (FormulaCoverageError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
