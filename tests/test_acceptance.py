"""Acceptance criteria, one test per criterion, one printed verdict line each.

Populations are generated from fixed seeds; several criteria share the
session-scoped 200-graph population from conftest.  Every test prints
`[criterion N] name: PASS|FAIL` on the real terminal before asserting.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from susygraph.cycles import cycle_space_report, fundamental_cycle_basis
from susygraph.graph import DirectedGraph, reorient, symmetrize
from susygraph.linalg import StateVector
from susygraph.operators import (
    build_incidence,
    build_super_operators,
    build_vertex_operators,
    laplacian_stencil_apply,
    path_second_difference_ok,
    path_graph,
)
from susygraph.rand import random_connected_graph, random_graph, random_reorientation, random_tree
from susygraph.spectral import (
    dirac_spectrum,
    kernel_report,
    multisets_match,
    pairing_check,
    polar_decompose,
    symmetric_spectrum,
    transport_all,
)
from susygraph.susy import verify_grading, verify_superalgebra

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"
GOLDEN = Path(__file__).resolve().parent / "golden"

C3 = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
K2 = DirectedGraph(2, ((0, 1),))


def announce(capsys, number: int, name: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[criterion {number:2d}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_superalgebra_exactness(acceptance_graphs, capsys):
    start = time.monotonic()
    failures = 0
    for g in acceptance_graphs:
        sup = build_super_operators(build_incidence(g))
        alg = verify_superalgebra(sup)
        gra = verify_grading(sup)
        if not (alg.all_hold and gra.all_hold):
            failures += 1
        if any(c.residual != 0 for c in alg.checks + gra.checks):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30.0
    announce(
        capsys, 1, "superalgebra exactness on 200 random graphs", ok,
        f"failures={failures}, elapsed={elapsed:.1f}s",
    )


def test_criterion_02_kernel_dimensions(capsys):
    rng = random.Random(101)
    bad = 0
    for _ in range(100):
        n = rng.randint(2, 50)
        mode = "oriented" if rng.random() < 0.5 else "symmetric"
        g = random_connected_graph(rng, n, rng.uniform(0.0, 0.25), mode)
        rep = kernel_report(build_incidence(g))
        m = g.num_edges
        expected = (1, n - 1, n - 1, m - (n - 1), m - (n - 2))
        got = (rep.dim_ker_diff, rep.dim_rg_diff, rep.dim_rg_adj, rep.dim_ker_adj, rep.dim_ker_dirac)
        if got != expected:
            bad += 1
    rep3 = kernel_report(build_incidence(C3))
    instance = (
        rep3.dim_ker_diff, rep3.dim_rg_diff, rep3.dim_rg_adj, rep3.dim_ker_adj, rep3.dim_ker_dirac
    ) == (1, 2, 2, 1, 2)
    announce(
        capsys, 2, "exact kernel dimensions on 100 connected graphs", bad == 0 and instance,
        f"bad={bad}, c3_instance={'ok' if instance else 'wrong'}",
    )


def test_criterion_03_tree_law(capsys):
    rng = random.Random(303)
    bad = 0
    for _ in range(50):
        tree = random_tree(rng, rng.randint(2, 200))
        rep = kernel_report(build_incidence(tree))
        basis = fundamental_cycle_basis(tree)
        if rep.dim_ker_adj != 0 or rep.dim_ker_hamiltonian != 1 or basis.dimension != 0:
            bad += 1
    announce(capsys, 3, "tree law on 50 random trees", bad == 0, f"bad={bad}")


def test_criterion_04_cycle_space(capsys):
    rng = random.Random(404)
    bad = 0
    for _ in range(100):
        n = rng.randint(2, 40)
        mode = "oriented" if rng.random() < 0.5 else "symmetric"
        g = random_connected_graph(rng, n, rng.uniform(0.0, 0.3), mode)
        rep = cycle_space_report(build_incidence(g))
        expected = g.num_edges - g.num_vertices + 1
        if not (
            rep.closure_residual == 0
            and rep.basis_rank == expected
            and rep.kernel_dimension == expected
            and rep.basis.dimension == expected
            and rep.consistent
        ):
            bad += 1
    sym = cycle_space_report(build_incidence(symmetrize(C3)))
    instance = sym.basis.dimension == 4 and sym.basis_rank == 4 and sym.consistent
    announce(
        capsys, 4, "cycle space on 100 connected graphs", bad == 0 and instance,
        f"bad={bad}, symmetrized_c3={'4 cycles' if instance else 'wrong'}",
    )


def test_criterion_05_spectral_pairing(acceptance_graphs, capsys):
    pop = [g for g in acceptance_graphs if g.num_vertices + g.num_edges <= 400]
    bad = 0
    for g in pop:
        rep = pairing_check(build_incidence(g), tol=1e-8)
        if not (rep.nonzero_match and rep.singular_match):
            bad += 1
    inst = pairing_check(build_incidence(path_graph(3)), tol=1e-8)
    instance = (
        multisets_match(inst.vertex_spectrum, np.array([0.0, 1.0, 3.0]), 1e-8)
        and multisets_match(inst.edge_spectrum, np.array([1.0, 3.0]), 1e-8)
    )
    announce(
        capsys, 5, f"spectral pairing on {len(pop)} graphs", bad == 0 and instance,
        f"bad={bad}, path_instance={'ok' if instance else 'wrong'}",
    )


def test_criterion_06_dirac_symmetry(acceptance_graphs, capsys):
    pop = [g for g in acceptance_graphs if g.num_vertices + g.num_edges <= 400]
    bad = 0
    for g in pop:
        rep = dirac_spectrum(build_super_operators(build_incidence(g)), tol=1e-8)
        if not rep.verdict:
            bad += 1
    k2 = dirac_spectrum(build_super_operators(build_incidence(K2)), tol=1e-8)
    root2 = float(np.sqrt(2.0))
    instance = multisets_match(k2.q1_spectrum, np.array([-root2, 0.0, root2]), 1e-8)
    announce(
        capsys, 6, f"dirac spectrum symmetry on {len(pop)} graphs", bad == 0 and instance,
        f"bad={bad}, k2_instance={'ok' if instance else 'wrong'}",
    )


def test_criterion_07_polar_residuals(acceptance_graphs, capsys):
    pop = [g for g in acceptance_graphs if g.num_vertices + g.num_edges <= 400]
    worst = 0.0
    for g in pop:
        rep = polar_decompose(build_incidence(g))
        worst = max(
            worst,
            rep.residual_factorization,
            rep.residual_adjoint,
            rep.residual_modulus_transport,
            rep.residual_intertwining,
        )
    announce(
        capsys, 7, f"polar decomposition residuals on {len(pop)} graphs", worst < 1e-8,
        f"worst={worst:.2e}",
    )


def test_criterion_08_eigenvector_transport(acceptance_graphs, capsys):
    pop = [g for g in acceptance_graphs if g.num_vertices <= 40]
    worst = 0.0
    pairs = 0
    for g in pop:
        inc = build_incidence(g)
        for rep in transport_all(inc, tol=1e-6):
            worst = max(worst, rep.max_residual)
            pairs += 1
    announce(
        capsys, 8, f"eigenvector transport on {len(pop)} graphs", worst < 1e-6,
        f"eigenpairs={pairs}, worst={worst:.2e}",
    )


def test_criterion_09_stencil_fidelity(capsys):
    path_ok = path_second_difference_ok(50)
    rng = random.Random(909)
    nprng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        n = rng.randint(2, 30)
        mode = "oriented" if rng.random() < 0.5 else "symmetric"
        g = random_graph(rng, n, rng.uniform(0.05, 0.5), mode)
        inc = build_incidence(g)
        vops = build_vertex_operators(inc)
        f = StateVector.from_values(
            inc.vertex, nprng.normal(size=n) + 1j * nprng.normal(size=n)
        )
        via_op = vops.laplacian.apply(f).coefficients
        via_stencil = laplacian_stencil_apply(g, f.coefficients)
        worst = max(worst, float(np.max(np.abs(via_op - via_stencil))))
    announce(
        capsys, 9, "second-difference and vertex stencils", path_ok and worst < 1e-12,
        f"path50={'exact' if path_ok else 'wrong'}, worst_defect={worst:.2e}",
    )


def test_criterion_10_orientation_invariance(acceptance_graphs, capsys):
    rng = random.Random(1010)
    pop = [g for g in acceptance_graphs if g.mode == "oriented"][:20]
    bad = 0
    for g in pop:
        inc = build_incidence(g)
        lap = build_vertex_operators(inc).laplacian
        espec = symmetric_spectrum(inc.edge_laplacian)
        for _ in range(20):
            flipped = reorient(g, random_reorientation(rng, g))
            inc2 = build_incidence(flipped)
            if build_vertex_operators(inc2).laplacian != lap:
                bad += 1
                break
            if not multisets_match(
                symmetric_spectrum(inc2.edge_laplacian), espec, 1e-8
            ):
                bad += 1
                break
    announce(
        capsys, 10, f"orientation invariance on {len(pop)} graphs x 20 flips", bad == 0,
        f"bad={bad}",
    )


@pytest.mark.parametrize("name", ["c3", "tree"])
def test_criterion_11_cli_determinism(name, capsys):
    path = GRAPHS / f"{name}.txt"
    cmd = [sys.executable, "-m", "susygraph.cli", "report", str(path), "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    golden = (GOLDEN / f"{name}_report.json").read_text()
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout == golden
    )
    detail = "byte-identical, matches golden" if ok else (
        f"rc={first.returncode}/{second.returncode}, "
        f"repeat={'same' if first.stdout == second.stdout else 'DIFFERS'}, "
        f"golden={'same' if first.stdout == golden else 'DIFFERS'}"
    )
    announce(capsys, 11, f"cli determinism on {name}", ok, detail)
    json.loads(first.stdout)
