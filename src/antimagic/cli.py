"""Batch command line: construct, label, verify, and report on the products.

Exit codes: 0 success (and, for verify, antimagic); 1 verification
failure; 2 usage error; 3 formula-coverage or search-capacity error.
All output is exact-integer text or JSON with a fixed field order, so
identical invocations produce byte-identical files, except ``search``,
whose JSON carries the measured ``stats.wall_time_ms``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .conformance import FormulaCoverageError
from .families import FAMILIES
from .formula import Variant
from .graphs import GraphError, product_graph, write_edge_list
from .labeling import parse_labeled_edge_list, verify_antimagic, vertex_sums
from .search import (
    CapacityError,
    SearchConfig,
    Status,
    Strategy,
    search_antimagic,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_COVERAGE = 3


class UsageError(Exception):
    pass


def _parse_range(text: str) -> range:
    """'3..9' or a single number; both ends inclusive."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        v = int(text)
        return range(v, v + 1)
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected N or LO..HI")


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
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    if ranged:
        p.add_argument("--m", required=True, help="wheel size, N or LO..HI")
        p.add_argument("--n", required=True, help="star size, N or LO..HI")
    else:
        p.add_argument("--m", required=True, type=int)
        p.add_argument("--n", required=True, type=int)


def _variant(text: str) -> Variant:
    try:
        return Variant.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc))


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
    p.add_argument("--variant", default="errata", help="as-printed or errata")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=20_000)
    p.add_argument("--max-exhaustive-edges", type=int, default=10)
    p.add_argument("--out", default=None)

    p = sub.add_parser("grid-report", help="conformance reports over an (m, n) grid")
    _add_family_args(p, ranged=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="export a labeled product for rendering")
    _add_family_args(p)
    p.add_argument("--variant", default="errata")
    p.add_argument("--format", default="dot", choices=["dot"])
    p.add_argument("--out", default=None)

    return parser


def _cmd_construct(args) -> int:
    g = product_graph(args.family, args.m, args.n)
    _write(args.out, write_edge_list(g))
    return EXIT_OK


def _cmd_label(args) -> int:
    variant = _variant(args.variant)
    g = product_graph(args.family, args.m, args.n)
    labeling = FAMILIES[args.family].label(args.m, args.n, variant)
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
    lines = [f"{v.name} {sums[v]}" for v in g.vertices]
    _write(args.out, "\n".join(lines) + "\n")
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
        payload["labels"] = {
            f"{e[0].name}-{e[1].name}": result.labeling.labels[e] for e in g.edges
        }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if result.status in (Status.FOUND, Status.NONE_EXISTS) else EXIT_VERIFY_FAIL


def _cmd_grid_report(args) -> int:
    ms = _parse_range(args.m)
    ns = _parse_range(args.n)
    if len(ms) == 0 or len(ns) == 0:
        raise UsageError("empty m or n range")
    records = []
    for m in ms:
        for n in ns:
            for report in FAMILIES[args.family].conformance(m, n):
                records.append(report.to_json_dict())
    text = "\n".join(json.dumps(rec, separators=(",", ":")) for rec in records) + "\n"
    _write(args.out, text)
    return EXIT_OK


def _cmd_export(args) -> int:
    variant = _variant(args.variant)
    g = product_graph(args.family, args.m, args.n)
    labeling = FAMILIES[args.family].label(args.m, args.n, variant)
    sums = vertex_sums(g, labeling)
    lines = ["graph antimagic {"]
    for v in g.vertices:
        lines.append(f'  "{v.name}" [label="{v.name}\\nsum={sums[v]}"];')
    for e in g.edges:
        lines.append(f'  "{e[0].name}" -- "{e[1].name}" [label="{labeling.labels[e]}"];')
    lines.append("}")
    _write(args.out, "\n".join(lines) + "\n")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormulaCoverageError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
