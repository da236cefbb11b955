"""Survey the operator calculus over a population of random graphs.

Each sampled graph gets the full report that `susygraph report` prints, so
every check the CLI runs runs here too, and a check fails exactly when the
report's boolean is false.  A summary table goes to stdout: the worst polar
residual, the spectral gaps of the vertex Laplacian, and the failed checks
counted per report section.  Each graph with a failed check is listed with
the report paths of its false booleans and flips the exit code.  A sampled
graph that `susygraph report` would refuse as too large stops the survey
with exit status 2.

Example:
    python3 scripts/survey_random_graphs.py --graphs 100 --max-vertices 40
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from susygraph.cli import SECTIONS, size_error, tolerance_error
from susygraph.rand import random_graph
from susygraph.report import build_report, failed_checks


class GraphTooLarge(ValueError):
    """A sampled graph exceeds a size limit of `susygraph report`."""


@dataclass(frozen=True)
class SurveyConfig:
    graphs: int = 50
    max_vertices: int = 30
    seed: int = 0
    tol: float = 1e-8


@dataclass
class SurveyResult:
    graphs: int = 0
    total_vertices: int = 0
    total_edges: int = 0
    polar_residuals: list[float] = field(default_factory=list)
    spectral_gaps: list[float] = field(default_factory=list)
    violations: dict[str, list[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations


def survey(config: SurveyConfig) -> SurveyResult:
    rng = random.Random(config.seed)
    result = SurveyResult()
    for index in range(config.graphs):
        n = rng.randint(2, config.max_vertices)
        p = rng.uniform(0.05, 0.5)
        mode = "oriented" if index % 2 == 0 else "symmetric"
        g = random_graph(rng, n, p, mode)
        label = f"graph {index} (n={g.num_vertices}, m={g.num_edges}, {g.mode})"
        problem = size_error(g, SECTIONS["report"])
        if problem:
            raise GraphTooLarge(f"{label}: {problem}")
        result.graphs += 1
        result.total_vertices += g.num_vertices
        result.total_edges += g.num_edges

        report = build_report(g, tol=config.tol)
        failed = failed_checks(report)
        if failed:
            result.violations[label] = failed
        result.polar_residuals.append(report["polar"]["max_residual"])
        # the exact rank, not tol, says how many of the lowest eigenvalues are zero
        spectrum, zeros = report["pairing"]["vertex_laplacian"], report["pairing"]["vertex_zeros"]
        if zeros < len(spectrum):
            result.spectral_gaps.append(spectrum[zeros])
    return result


def print_summary(config: SurveyConfig, result: SurveyResult, elapsed: float) -> None:
    print(f"surveyed {result.graphs} graphs in {elapsed:.2f}s (seed={config.seed})")
    print(f"  mean vertices  {result.total_vertices / result.graphs:8.2f}")
    print(f"  mean edges     {result.total_edges / result.graphs:8.2f}")
    print(f"  failing graphs       {len(result.violations)}")
    print(f"  worst polar residual {max(result.polar_residuals):.3e}")
    if result.spectral_gaps:
        print(f"  spectral gap  min {min(result.spectral_gaps):.6f}"
              f"  median {statistics.median(result.spectral_gaps):.6f}"
              f"  max {max(result.spectral_gaps):.6f}")
    sections = Counter(path.split(".")[0] for paths in result.violations.values() for path in paths)
    for section, count in sorted(sections.items()):
        print(f"  failed checks in {section:<8} {count}")
    for label, paths in result.violations.items():
        print(f"  VIOLATION  {label}: {', '.join(paths)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", type=int, default=50)
    parser.add_argument("--max-vertices", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-8)
    args = parser.parse_args(argv)
    problem = tolerance_error(args.tol)
    if problem:
        parser.error(problem)
    if args.graphs < 1:
        parser.error(f"--graphs must be at least 1, got {args.graphs}")
    if args.max_vertices < 2:
        parser.error(f"--max-vertices must be at least 2, got {args.max_vertices}")
    config = SurveyConfig(
        graphs=args.graphs, max_vertices=args.max_vertices, seed=args.seed, tol=args.tol
    )
    start = time.monotonic()
    try:
        result = survey(config)
    except GraphTooLarge as exc:
        parser.error(str(exc))
    print_summary(config, result, time.monotonic() - start)
    return 0 if result.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
