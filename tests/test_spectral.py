"""Kernel dimensions, spectra, pairing, polar decomposition, transport."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import susygraph.cycles
import susygraph.operators
import susygraph.spectral
from conftest import connected_graphs, directed_graphs
from susygraph.cycles import cycle_space_report
from susygraph.graph import ORIENTED, SYMMETRIC, DirectedGraph, load_edge_list, symmetrize
from susygraph.linalg import (
    LinearMap,
    SpaceMismatch,
    StateVector,
    aux_space,
    exact_rank,
    stack_columns,
)
from susygraph.operators import build_incidence, build_super_operators, path_graph
from susygraph.rand import random_graph
from susygraph.spectral import (
    NotAnEigenpair,
    NotSelfAdjoint,
    dirac_spectrum,
    eigensystem,
    kernel_report,
    multisets_match,
    pairing_check,
    polar_decompose,
    spectrum_symmetry_defect,
    symmetric_spectrum,
    transport_all,
    transport_eigenpair,
    zero_mode_classification,
)

K2 = DirectedGraph(2, ((0, 1),))
C3 = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
PAIR = DirectedGraph(2, ((0, 1), (1, 0)))
GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def test_kernel_report_c3():
    rep = kernel_report(build_incidence(C3))
    assert (rep.dim_ker_diff, rep.dim_rg_diff, rep.dim_rg_adj, rep.dim_ker_adj) == (1, 2, 2, 1)
    assert rep.dim_ker_dirac == 2
    assert rep.dim_ker_hamiltonian == 2
    assert rep.formulas_consistent
    assert rep.components == ((3, 3),)


def test_kernel_report_path_tree():
    rep = kernel_report(build_incidence(path_graph(3)))
    assert rep.dim_ker_adj == 0
    assert rep.dim_ker_hamiltonian == 1


def test_kernel_report_disconnected():
    g = DirectedGraph(4, ((0, 1), (2, 3)))
    rep = kernel_report(build_incidence(g))
    assert rep.dim_ker_diff == 2
    assert rep.num_components == 2
    assert rep.components == ((2, 1), (2, 1))
    assert rep.formulas_consistent


@settings(max_examples=50)
@given(directed_graphs(max_vertices=10))
def test_rank_nullity_and_formulas(g):
    rep = kernel_report(build_incidence(g))
    assert rep.dim_ker_diff + rep.dim_rg_diff == rep.num_vertices
    assert rep.dim_ker_adj + rep.dim_rg_adj == rep.num_edges
    assert rep.dim_rg_diff == rep.dim_rg_adj
    assert rep.dim_ker_dirac == rep.dim_ker_diff + rep.dim_ker_adj
    assert rep.formulas_consistent


def test_symmetric_spectrum_known_values():
    inc = build_incidence(K2)
    lap = inc.diff_adj @ inc.diff
    assert np.allclose(symmetric_spectrum(lap), [0.0, 2.0], atol=1e-12)
    lap3 = build_incidence(C3).diff_adj @ build_incidence(C3).diff
    assert np.allclose(symmetric_spectrum(lap3), [0.0, 3.0, 3.0], atol=1e-12)
    lap_pair = build_incidence(PAIR).diff_adj @ build_incidence(PAIR).diff
    assert np.allclose(symmetric_spectrum(lap_pair), [0.0, 4.0], atol=1e-12)


def test_symmetric_spectrum_rejects_non_self_adjoint():
    s = aux_space(2)
    m = LinearMap.from_entries(s, s, [(0, 1, 1, 0)])
    with pytest.raises(NotSelfAdjoint):
        symmetric_spectrum(m)


def embedding_spectrum(m: LinearMap) -> np.ndarray:
    """Reference: the spectrum of a Hermitian map through its real embedding.

    [[re, -im], [im, re]] is real symmetric with the spectrum of the map,
    each eigenvalue doubled; adjacent pairs are averaged back.
    """
    dense = m.to_dense()
    n = dense.shape[0]
    emb = np.zeros((2 * n, 2 * n))
    emb[:n, :n] = dense.real
    emb[n:, n:] = dense.real
    emb[:n, n:] = -dense.imag
    emb[n:, :n] = dense.imag
    return np.linalg.eigvalsh(emb).reshape(-1, 2).mean(axis=1)


def assert_matches_embedding(m: LinearMap) -> None:
    assert m.has_imag()
    spectrum = symmetric_spectrum(m)
    reference = embedding_spectrum(m)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert spectrum.shape == reference.shape
    assert np.max(np.abs(spectrum - reference)) <= 1e-10 * scale


@pytest.mark.parametrize("path", sorted(GRAPHS.glob("*.txt")), ids=lambda p: p.stem)
def test_q2_spectrum_matches_embedding_on_example_graphs(path):
    assert_matches_embedding(build_super_operators(build_incidence(load_edge_list(path))).q2)


@pytest.mark.parametrize(
    "seed, n, p, mode",
    [(11, 12, 0.3, ORIENTED), (12, 20, 0.2, ORIENTED), (13, 15, 0.3, SYMMETRIC)],
)
def test_q2_spectrum_matches_embedding_on_random_graphs(seed, n, p, mode):
    g = random_graph(random.Random(seed), n, p, mode)
    if mode == SYMMETRIC:
        assert g.reciprocal_pairs
    assert_matches_embedding(build_super_operators(build_incidence(g)).q2)


def test_hermitian_gaussian_integer_spectrum_matches_embedding():
    s = aux_space(3)
    m = LinearMap.from_entries(
        s,
        s,
        [
            (0, 0, 2, 0),
            (0, 1, 1, 1),
            (1, 0, 1, -1),
            (1, 1, -1, 0),
            (1, 2, 0, 2),
            (2, 1, 0, -2),
            (2, 2, 3, 0),
        ],
    )
    assert_matches_embedding(m)


def test_q2_is_solved_as_one_complex_matrix(monkeypatch):
    sup = build_super_operators(build_incidence(C3))
    solve = np.linalg.eigvalsh
    seen = []

    def spy(a, *args, **kwargs):
        seen.append((a.shape, a.dtype.kind))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    symmetric_spectrum(sup.q2)
    assert seen == [((6, 6), "c")]


def test_multisets_match_scales():
    assert multisets_match(np.array([0.0, 1.0]), np.array([1e-9, 1.0]), 1e-8)
    assert not multisets_match(np.array([0.0, 1.0]), np.array([1e-7, 1.0]), 1e-8)
    # relative comparison above magnitude one
    assert multisets_match(np.array([1000.0]), np.array([1000.0 + 1e-6]), 1e-8)
    assert not multisets_match(np.array([1.0]), np.array([1.0, 2.0]), 1e-8)
    # NaN never matches, not even NaN
    assert not multisets_match(np.array([np.nan]), np.array([0.0]), 1e-8)
    assert not multisets_match(np.array([np.nan]), np.array([np.nan]), 1e-8)


def test_pairing_known_instances():
    rep = pairing_check(build_incidence(path_graph(3)))
    assert np.allclose(rep.vertex_spectrum, [0.0, 1.0, 3.0], atol=1e-8)
    assert np.allclose(rep.edge_spectrum, [1.0, 3.0], atol=1e-8)
    assert rep.verdict
    rep3 = pairing_check(build_incidence(C3))
    assert rep3.vertex_zeros == 1 and rep3.edge_zeros == 1
    assert np.allclose(rep3.edge_spectrum[1:], [3.0, 3.0], atol=1e-8)
    assert rep3.verdict
    k2 = pairing_check(build_incidence(K2))
    assert np.allclose(k2.singular_values, [np.sqrt(2.0)], atol=1e-12)
    assert k2.verdict


@settings(max_examples=40)
@given(directed_graphs(max_vertices=9))
def test_pairing_property(g):
    rep = pairing_check(build_incidence(g))
    assert rep.verdict
    assert rep.zero_block_bound < 1e-8
    assert rep.vertex_spectrum.min() >= -1e-10


def test_dirac_spectrum_k2_and_c3():
    rep = dirac_spectrum(build_super_operators(build_incidence(K2)))
    root2 = np.sqrt(2.0)
    assert np.allclose(rep.q1_spectrum, [-root2, 0.0, root2], atol=1e-12)
    assert rep.verdict
    rep3 = dirac_spectrum(build_super_operators(build_incidence(C3)))
    root3 = np.sqrt(3.0)
    assert np.allclose(
        rep3.q1_spectrum, [-root3, -root3, 0.0, 0.0, root3, root3], atol=1e-10
    )
    assert rep3.verdict
    edgeless = dirac_spectrum(build_super_operators(build_incidence(DirectedGraph(3, ()))))
    assert np.array_equal(edgeless.q1_spectrum, np.zeros(3))
    assert edgeless.verdict


def test_spectrum_symmetry_defect():
    assert spectrum_symmetry_defect(np.array([-2.0, 0.0, 2.0])) == 0.0
    assert spectrum_symmetry_defect(np.array([0.0, 1.0])) == 1.0


def test_polar_k2():
    inc = build_incidence(K2)
    rep = polar_decompose(inc)
    assert rep.rank == 1
    assert np.allclose(rep.singular_values, [np.sqrt(2.0)])
    # |d| has eigenvalues {0, sqrt(2)}
    vals = np.linalg.eigvalsh(rep.modulus_vertex)
    assert np.allclose(vals, [0.0, np.sqrt(2.0)], atol=1e-12)
    assert rep.max_residual < 1e-12


def test_polar_tree_domain_projector():
    g = DirectedGraph(4, ((0, 1), (0, 2), (2, 3)))
    rep = polar_decompose(build_incidence(g))
    # on a tree, S*S = identity minus the projector onto the constants
    n = 4
    expected = np.eye(n) - np.ones((n, n)) / n
    assert np.allclose(rep.isometry.T @ rep.isometry, expected, atol=1e-10)


def test_polar_edgeless():
    rep = polar_decompose(build_incidence(DirectedGraph(3, ())))
    assert rep.rank == 0
    assert rep.max_residual == 0.0


@settings(max_examples=40)
@given(directed_graphs(max_vertices=9))
def test_polar_property(g):
    rep = polar_decompose(build_incidence(g))
    assert rep.max_residual < 1e-8
    assert len(rep.singular_values) == rep.rank
    assert all(s > 0 for s in rep.singular_values)


def test_transport_k2():
    inc = build_incidence(K2)
    f = StateVector.from_values(inc.vertex, np.array([1.0, -1.0]) / np.sqrt(2.0))
    rep = transport_eigenpair(inc, 2.0, f)
    assert rep.max_residual < 1e-12
    assert rep.independent
    # d f = -sqrt(2) on the single edge, so g = d f / sqrt(2) = -1
    assert np.allclose(rep.edge_vector.coefficients, [-1.0])


def test_transport_rejects_bad_input():
    inc = build_incidence(K2)
    constant = StateVector.from_values(inc.vertex, [1.0, 1.0])
    with pytest.raises(NotAnEigenpair):
        transport_eigenpair(inc, 1.0, constant)
    with pytest.raises(NotAnEigenpair):
        transport_eigenpair(inc, -1.0, constant)
    tiny = StateVector.from_values(inc.vertex, [1e-9, -1e-9])
    with pytest.raises(NotAnEigenpair):
        transport_eigenpair(inc, 2.0, tiny)


@pytest.mark.parametrize(
    "graph, space",
    [
        # c3 has n = m = 3, so only the space tag tells the vectors apart
        (DirectedGraph(3, ((0, 1), (1, 2), (2, 0))), "edge"),
        (DirectedGraph(3, ((0, 1), (1, 2), (2, 0))), "aux"),
        # a path with n = 4 and m = 3, and a 4-vertex graph with m = 2
        (path_graph(4), "edge"),
        (DirectedGraph(4, ((0, 1), (2, 3))), "edge"),
    ],
)
def test_transport_rejects_vector_off_the_vertex_space(graph, space):
    inc = build_incidence(graph)
    target = inc.edge if space == "edge" else aux_space(graph.num_edges)
    vals, vecs = eigensystem(inc.vertex_laplacian)
    wrong = StateVector(target, np.ones(target.dim))
    with pytest.raises(SpaceMismatch):
        transport_eigenpair(inc, float(vals[-1]), wrong)
    # the top eigenvector of the vertex Laplacian still transports
    rep = transport_eigenpair(inc, float(vals[-1]), StateVector(inc.vertex, vecs[:, -1]))
    assert rep.max_residual < 1e-10


def test_transport_path3():
    g = path_graph(3)
    inc = build_incidence(g)
    vals, vecs = eigensystem(inc.diff_adj @ inc.diff)
    f = StateVector(inc.vertex, vecs[:, 2])
    rep = transport_eigenpair(inc, float(vals[2]), f)
    assert abs(rep.energy - 3.0) < 1e-10
    assert rep.max_residual < 1e-10


@settings(max_examples=30)
@given(connected_graphs(max_vertices=8))
def test_transport_property(g):
    inc = build_incidence(g)
    reports = transport_all(inc, tol=1e-6)
    assert len(reports) == g.num_vertices - 1
    for rep in reports:
        assert rep.max_residual < 1e-6
        assert rep.independent


def test_zero_modes_instances():
    assert zero_mode_classification(build_incidence(C3)).bosonic == 1
    assert zero_mode_classification(build_incidence(C3)).fermionic == 1
    pair = zero_mode_classification(build_incidence(PAIR))
    assert (pair.bosonic, pair.fermionic) == (1, 1)
    tree = zero_mode_classification(build_incidence(path_graph(5)))
    assert (tree.bosonic, tree.fermionic) == (1, 0)
    sym = zero_mode_classification(build_incidence(symmetrize(C3)))
    assert (sym.bosonic, sym.fermionic) == (1, 4)
    assert sym.index == -3
    for rep in (pair, tree, sym):
        assert rep.verdict


def test_repeated_cycle_does_not_span_kernel():
    # Two triangles sharing vertex 0; the second cycle is replaced by a copy of the first.
    g = DirectedGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)))
    inc = build_incidence(g)
    basis = inc.cycle_basis
    first = basis.vectors[0]
    inc.__dict__["cycle_basis"] = replace(basis, vectors=(first, dict(first)))
    rep = zero_mode_classification(inc)
    assert rep.counts_match
    assert not rep.cycles_span_kernel and not rep.verdict
    assert not cycle_space_report(inc).consistent
    assert zero_mode_classification(build_incidence(g)).verdict
    # One indicator missing vertex 4: the right count, but d does not send it to 0.
    inc = build_incidence(g)
    inc.__dict__["ker_diff"] = ({4: 1, 0: 1, 1: 1, 2: 1, 3: 1},)
    assert zero_mode_classification(inc).verdict
    inc.__dict__["ker_diff"] = ({0: 1, 1: 1, 2: 1, 3: 1},)
    rep = zero_mode_classification(inc)
    assert not rep.counts_match and rep.cycles_span_kernel and not rep.verdict
    # Two components: closed indicators of the right count that are not independent.
    two = DirectedGraph(3, ((0, 1),))
    assert zero_mode_classification(build_incidence(two)).verdict
    for dependent in (({1: 1, 0: 1}, {1: 1, 0: 1}), ({2: 1, 0: 1, 1: 1}, {})):
        inc = build_incidence(two)
        inc.__dict__["ker_diff"] = dependent
        assert not zero_mode_classification(inc).counts_match
    # One edge of the second (chord) cycle with its sign flipped: still independent, no
    # longer closed.
    inc = build_incidence(g)
    basis = inc.cycle_basis
    flipped = {k: -v if k == 3 else v for k, v in basis.vectors[1].items()}
    inc.__dict__["cycle_basis"] = replace(basis, vectors=(basis.vectors[0], flipped))
    rep = zero_mode_classification(inc)
    assert inc.cycle_rank == 2 and rep.counts_match
    assert not rep.cycles_span_kernel and not rep.verdict
    assert not cycle_space_report(inc).consistent


def test_range_projector_checks_the_svd_against_the_cycles():
    # A square with one diagonal: two independent cycles, whose span is ker d*.
    g = DirectedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    inc = build_incidence(g)
    assert polar_decompose(inc).residual_range_projector < 1e-12
    first, second = inc.cycle_basis.vectors
    flipped = {k: -v if k == min(second) else v for k, v in second.items()}
    # one sign flipped, one cycle repeated, one cycle missing
    for bad in ((first, flipped), (first, dict(first)), (first,)):
        inc = build_incidence(g)
        inc.__dict__["cycle_matrix"] = stack_columns(list(bad), inc.edge)
        rep = polar_decompose(inc)
        assert rep.residual_range_projector > 0.1
        assert rep.residual_domain_projector < 1e-12


def test_cycle_rank_is_computed_once_per_graph(monkeypatch):
    ranked = []

    def counting_rank(m):
        ranked.append(m)
        return exact_rank(m)

    for module in (susygraph.operators, susygraph.cycles, susygraph.spectral):
        monkeypatch.setattr(module, "exact_rank", counting_rank)
    inc = build_incidence(DirectedGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))))
    assert zero_mode_classification(inc).verdict
    assert cycle_space_report(inc).basis_rank == inc.cycle_rank == 2
    assert sum(m is inc.cycle_matrix for m in ranked) == 1


@settings(max_examples=40)
@given(directed_graphs(max_vertices=9))
def test_zero_mode_property(g):
    rep = zero_mode_classification(build_incidence(g))
    kr = kernel_report(build_incidence(g))
    assert rep.bosonic == kr.num_components
    assert rep.fermionic == g.num_edges - g.num_vertices + kr.num_components
    assert rep.verdict
