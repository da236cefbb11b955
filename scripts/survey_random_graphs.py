"""Survey the operator calculus over a population of random graphs.

For each sampled graph the script verifies the supercharge algebra and
grading exactly, checks the kernel dimension formulas and cycle space
closure, and records floating-point residuals from the spectral pairing,
Dirac symmetry and polar factorization checks.  A summary table goes to
stdout; any violation is listed explicitly and flips the exit code.

Example:
    python3 scripts/survey_random_graphs.py --graphs 100 --max-vertices 40
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from dataclasses import dataclass, field

from susygraph.cli import tolerance_error
from susygraph.cycles import cycle_space_report
from susygraph.operators import build_incidence
from susygraph.rand import random_graph
from susygraph.spectral import dirac_spectrum, kernel_report, pairing_check, polar_decompose
from susygraph.susy import verify_grading, verify_superalgebra


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
    algebra_violations: int = 0
    kernel_violations: int = 0
    cycle_violations: int = 0
    spectral_violations: int = 0
    polar_residuals: list[float] = field(default_factory=list)
    spectral_gaps: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

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
        result.graphs += 1
        result.total_vertices += g.num_vertices
        result.total_edges += g.num_edges

        inc = build_incidence(g)
        sup = inc.super_operators

        algebra = verify_superalgebra(sup)
        grading = verify_grading(sup)
        if not (algebra.all_hold and grading.all_hold):
            result.algebra_violations += 1
            names = [c.name for c in algebra.failed() + grading.failed()]
            result.violations.append(f"{label}: algebra relations failed: {names}")

        kernel = kernel_report(inc)
        if not kernel.formulas_consistent:
            result.kernel_violations += 1
            result.violations.append(f"{label}: kernel dimension formulas inconsistent")

        cycles = cycle_space_report(inc)
        if not cycles.consistent:
            result.cycle_violations += 1
            result.violations.append(f"{label}: cycle space report inconsistent")

        pairing = pairing_check(inc, tol=config.tol)
        dirac = dirac_spectrum(sup, tol=config.tol)
        polar = polar_decompose(inc)
        if not (pairing.verdict and dirac.verdict):
            result.spectral_violations += 1
            result.violations.append(
                f"{label}: pairing={pairing.verdict} dirac={dirac.verdict}"
            )
        if polar.max_residual >= config.tol:
            result.spectral_violations += 1
            result.violations.append(f"{label}: polar residual {polar.max_residual:.3e}")
        result.polar_residuals.append(polar.max_residual)

        positive = [v for v in pairing.vertex_spectrum if v > config.tol]
        if positive:
            result.spectral_gaps.append(min(positive))
    return result


def print_summary(config: SurveyConfig, result: SurveyResult, elapsed: float) -> None:
    print(f"surveyed {result.graphs} graphs in {elapsed:.2f}s (seed={config.seed})")
    print(f"  mean vertices  {result.total_vertices / result.graphs:8.2f}")
    print(f"  mean edges     {result.total_edges / result.graphs:8.2f}")
    print(f"  algebra violations   {result.algebra_violations}")
    print(f"  kernel violations    {result.kernel_violations}")
    print(f"  cycle violations     {result.cycle_violations}")
    print(f"  spectral violations  {result.spectral_violations}")
    print(f"  worst polar residual {max(result.polar_residuals):.3e}")
    if result.spectral_gaps:
        print(f"  spectral gap  min {min(result.spectral_gaps):.6f}"
              f"  median {statistics.median(result.spectral_gaps):.6f}"
              f"  max {max(result.spectral_gaps):.6f}")
    for line in result.violations:
        print(f"  VIOLATION  {line}")


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
    config = SurveyConfig(
        graphs=args.graphs, max_vertices=args.max_vertices, seed=args.seed, tol=args.tol
    )
    start = time.monotonic()
    result = survey(config)
    print_summary(config, result, time.monotonic() - start)
    return 0 if result.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
