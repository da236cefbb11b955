"""Walk the supersymmetric pairing of one graph, eigenpair by eigenpair.

Loads an edge-list file, diagonalizes the vertex Laplacian, and maps each
positive eigenvector f into the edge sector via g = d f / sqrt(E).  For
every pair the script prints the energy, the Dirac eigenvalue, and the
worst residual across the transport relations: a direct numerical replay
of how the two Laplacian blocks share their nonzero spectrum.

Example:
    python3 scripts/transport_demo.py graphs/c3.txt
"""

from __future__ import annotations

import argparse
import math

from susygraph.cli import DENSE_SECTIONS, size_error, tolerance_error
from susygraph.graph import GraphFormatError, load_edge_list
from susygraph.operators import build_incidence
from susygraph.spectral import kernel_report, transport_all


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("graph", help="edge-list file")
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args(argv)
    problem = tolerance_error(args.tol)
    if problem:
        parser.error(problem)

    try:
        graph = load_edge_list(args.graph)
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {args.graph}: {exc}")
    except GraphFormatError as exc:
        parser.error(f"{args.graph}: {exc}")
    # transport_all densifies (n + m)^2 complex maps, as the CLI's dense sections do
    problem = size_error(graph, DENSE_SECTIONS)
    if problem:
        parser.error(f"{args.graph}: {problem}")
    inc = build_incidence(graph)
    kernel = kernel_report(inc)

    print(f"graph: n={graph.num_vertices}, m={graph.num_edges}, mode={graph.mode}")
    print(f"zero modes: {kernel.dim_ker_diff} bosonic, {kernel.dim_ker_adj} fermionic")
    reports = transport_all(inc, tol=args.tol)
    print(f"transporting {len(reports)} positive eigenpairs (tol={args.tol:g})")
    print(f"{'energy':>12}  {'dirac':>12}  {'residual':>10}  independent")
    worst = 0.0
    for rep in reports:
        worst = max(worst, rep.max_residual)
        print(
            f"{rep.energy:12.6f}  {math.sqrt(rep.energy):12.6f}"
            f"  {rep.max_residual:10.2e}  {rep.independent}"
        )
    ok = worst < args.tol and all(r.independent for r in reports)
    print(f"worst residual {worst:.2e}: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
