"""Command line front end: load an edge list, analyze, print a report.

Exit status: 0 when every requested check passes, 1 when a check fails
(the report is still printed), 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .graph import MODES, GraphFormatError, parse_edge_list
from .report import build_report, serialize_report

SECTIONS = {
    "report": ("algebra", "grading", "kernel", "spectra", "pairing", "polar", "cycles"),
    "check": ("algebra", "grading"),
    "spectrum": ("spectra", "pairing"),
    "kernel": ("kernel",),
    "cycles": ("cycles",),
}

HELP = {
    "report": "run every analysis and print the full report",
    "check": "verify the supercharge algebra and grading relations exactly",
    "spectrum": "eigenvalue spectra plus the nonzero-spectrum pairing check",
    "kernel": "exact kernel and range dimensions and zero-mode classification",
    "cycles": "fundamental cycle basis checked against the exact kernel",
}


def _build_parser() -> argparse.ArgumentParser:
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(f"error: --tol must be positive and finite, got {args.tol}", file=sys.stderr)
        return 2
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        graph = parse_edge_list(text, args.mode_override)
    except GraphFormatError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2
    report = build_report(
        graph, tol=args.tol, seed=args.seed, source_text=text, sections=args.sections
    )
    sys.stdout.write(serialize_report(report, args.format))
    return 0 if report["meta"]["all_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
