"""Command line front end: load an edge list, analyze, print a report.

Exit status: 0 when every requested check passes, 1 when a check fails
(the report is still printed), 2 on input or usage errors, including a
graph with too many vertices, or too large for the dense sections or for
the exact algebra.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Iterable

from .graph import MODES, DirectedGraph, GraphFormatError, parse_edge_list
from .report import build_report, serialize_report

SECTIONS = {
    "report": ("algebra", "grading", "kernel", "spectra", "pairing", "polar", "cycles"),
    "check": ("algebra", "grading"),
    "spectrum": ("spectra", "pairing"),
    "kernel": ("kernel",),
    "cycles": ("cycles",),
}

# The vertex count is the one size the input does not pay for in bytes: a
# 12-byte 'n=100000000' would make check, kernel and cycles allocate gigabytes.
# On 10**6 isolated vertices kernel takes 13 s, check 8 s and cycles 5 s, each
# under 0.82 GB (2-vCPU machine, Python 3.11, numpy 2.4); a larger n is
# refused before any operator is built, by every command.
MAX_VERTICES = 10**6
# The spectra, pairing and polar sections hold dense real and complex
# (n + m)^2 arrays, the complex one being the largest; a larger graph is
# refused before any operator is built.
MAX_DENSE_SIZE = 4096
DENSE_SECTIONS = {"spectra", "pairing", "polar"}
# The algebra and grading sections multiply by the edge Laplacian d d*, whose
# entries are its diagonal and the ordered pairs of edges that share a vertex.
# On a 2000-leaf star (4.0M entries) check peaks at about 560 MB and spectrum at
# about 650 MB; at the limit, a 2895-leaf star (8.4M), check takes 5.6 s and
# peaks at 1064 MB (2-vCPU machine, Python 3.11, numpy 2.4).  A graph whose
# bound on that count exceeds the limit is refused before any operator is built.
# The kernel and cycles sections are sparse and have only the vertex limit.
MAX_EXACT_SIZE = 1 << 23
EXACT_SECTIONS = {"algebra", "grading"}

HELP = {
    "report": "run every analysis and print the full report",
    "check": "verify the supercharge algebra and grading relations exactly",
    "spectrum": "eigenvalue spectra plus the nonzero-spectrum pairing check",
    "kernel": "exact kernel and range dimensions and zero-mode classification",
    "cycles": "fundamental cycle basis checked against the exact kernel",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="susygraph",
        description="Operator calculus and supersymmetry checks on directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, sections in SECTIONS.items():
        p = sub.add_parser(name, help=HELP[name])
        p.add_argument("path", help="edge-list file ('n=<count>' line, then '<tail> <head>' lines)")
        p.add_argument(
            "--format", choices=("json", "text"), default="text", help="output format"
        )
        p.add_argument(
            "--tol", type=float, default=1e-8, help="tolerance for spectral comparisons"
        )
        p.add_argument(
            "--mode-override",
            choices=MODES,
            default=None,
            help="replace the mode declared in the file before validation",
        )
        p.add_argument(
            "--seed", type=int, default=0, help="seed for the randomized self-tests"
        )
        p.set_defaults(sections=sections)
    return parser


def edge_laplacian_bound(graph: DirectedGraph) -> int:
    """m + sum over vertices v of deg(v)(deg(v) - 1), at least nnz(d d*).

    A reciprocal pair of edges shares two vertices, so it is counted twice
    over; without such pairs the bound is exact.
    """
    degree = [0] * graph.num_vertices
    for tail, head in graph.edges:
        degree[tail] += 1
        degree[head] += 1
    return graph.num_edges + sum(k * (k - 1) for k in degree)


def tolerance_error(tol: float) -> str | None:
    """Why tol cannot be a tolerance, or None when it is positive and finite."""
    if math.isfinite(tol) and tol > 0:
        return None
    return f"--tol must be positive and finite, got {tol}"


def size_error(graph: DirectedGraph, sections: Iterable[str]) -> str | None:
    """Why graph is too large for the given sections, or None when every limit admits it."""
    if graph.num_vertices > MAX_VERTICES:
        return f"graph too large (n = {graph.num_vertices}, limit {MAX_VERTICES})"
    size = graph.num_vertices + graph.num_edges
    if size > MAX_DENSE_SIZE and DENSE_SECTIONS.intersection(sections):
        return f"graph too large (n + m = {size}, limit {MAX_DENSE_SIZE})"
    if EXACT_SECTIONS.intersection(sections):
        bound = edge_laplacian_bound(graph)
        if bound > MAX_EXACT_SIZE:
            return f"graph too large (edge Laplacian up to {bound} entries, limit {MAX_EXACT_SIZE})"
    return None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    problem = tolerance_error(args.tol)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        graph = parse_edge_list(text, args.mode_override)
    except GraphFormatError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2
    problem = size_error(graph, args.sections)
    if problem:
        print(f"error: {args.path}: {problem}", file=sys.stderr)
        return 2
    report = build_report(
        graph, tol=args.tol, seed=args.seed, source_text=text, sections=args.sections
    )
    sys.stdout.write(serialize_report(report, args.format))
    return 0 if report["meta"]["all_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
