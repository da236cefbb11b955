"""Fundamental cycle construction and its exact kernel checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, directed_graphs
from susygraph.cycles import CycleBasis, TreeMismatch, cycle_space_report, fundamental_cycle_basis
from susygraph.graph import DirectedGraph, SpanningTree, connected_components, spanning_tree, symmetrize
from susygraph.linalg import LinearMap, aux_space, edge_space, exact_rank, stack_columns
from susygraph.operators import build_incidence, path_graph

C3 = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
PAIR = DirectedGraph(2, ((0, 1), (1, 0)))


def is_forest(graph: DirectedGraph) -> bool:
    """True when the graph has no cycles at all: m = n - c exactly."""
    comps = connected_components(graph)
    return graph.num_edges == graph.num_vertices - len(comps)


def cycle_vector_as_map(basis: CycleBasis, j: int) -> LinearMap:
    """One basis vector as a single-column map into the edge space."""
    vec = basis.vectors[j]
    return LinearMap.from_entries(
        aux_space(1),
        edge_space(basis.graph.num_edges),
        [(r, 0, v, 0) for r, v in vec.items()],
    )


def test_c3_single_cycle():
    basis = fundamental_cycle_basis(C3)
    assert basis.dimension == 1
    assert basis.vectors == ({0: 1, 1: 1, 2: 1},)
    inc = build_incidence(C3)
    out = inc.diff_adj @ cycle_vector_as_map(basis, 0)
    assert out.is_zero()


def test_pair_two_cycle():
    basis = fundamental_cycle_basis(PAIR)
    assert basis.vectors == ({0: 1, 1: 1},)
    assert basis.pair_generators == ((0, 1),)
    assert basis.chord_generators == ()


def test_tree_empty_basis():
    star = DirectedGraph(4, ((0, 1), (0, 2), (0, 3)))
    basis = fundamental_cycle_basis(star)
    assert basis.dimension == 0
    assert is_forest(star)
    rep = cycle_space_report(star)
    assert rep.consistent
    assert rep.dim_ker_hamiltonian == 1


def test_symmetrized_c3_four_cycles():
    rep = cycle_space_report(symmetrize(C3))
    assert rep.basis.dimension == 4
    assert len(rep.basis.pair_generators) == 3
    assert len(rep.basis.chord_generators) == 1
    assert rep.basis_rank == 4
    assert rep.closure_residual == 0
    assert rep.consistent


def test_cycle_signs_against_reversed_edge():
    # square with one edge reversed: the walk crosses it against direction
    g = DirectedGraph(4, ((0, 1), (1, 2), (3, 2), (3, 0)))
    basis = fundamental_cycle_basis(g)
    assert basis.dimension == 1
    vec = basis.vectors[0]
    inc = build_incidence(g)
    out = inc.diff_adj @ cycle_vector_as_map(basis, 0)
    assert out.is_zero()
    assert set(vec.values()) <= {-1, 1}
    assert -1 in vec.values()


def test_caller_supplied_tree_and_mismatch():
    tree = spanning_tree(C3, root=1)
    basis = fundamental_cycle_basis(C3, tree)
    assert basis.dimension == 1
    assert basis.trees[0].root == 1
    foreign = spanning_tree(path_graph(4), root=0)
    with pytest.raises(TreeMismatch):
        fundamental_cycle_basis(C3, foreign)
    bogus = SpanningTree(
        root=0,
        vertices=(0, 1),
        parent={1: 0},
        parent_edge={1: 2},
        tree_edges=(2,),
        non_tree_edges=(0, 1),
        partner={},
    )
    with pytest.raises(TreeMismatch):
        fundamental_cycle_basis(PAIR, bogus)


def test_report_on_disconnected_graph():
    g = DirectedGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    rep = cycle_space_report(g)
    assert rep.num_components == 2
    assert rep.expected_dimension == 2
    assert rep.basis.dimension == 2
    assert rep.consistent


@settings(max_examples=60)
@given(directed_graphs(max_vertices=9))
def test_cycle_space_report_property(g):
    rep = cycle_space_report(g)
    assert rep.consistent, (g.edges, rep)
    comps = connected_components(g)
    assert rep.expected_dimension == g.num_edges - g.num_vertices + len(comps)
    for vec in rep.basis.vectors:
        assert set(vec.values()) <= {-1, 1}


@settings(max_examples=30)
@given(connected_graphs(max_vertices=9), st.integers(0, 10**6))
def test_two_trees_same_span(g, seed):
    basis_a = fundamental_cycle_basis(g)
    root = seed % g.num_vertices
    basis_b = fundamental_cycle_basis(g, spanning_tree(g, root=root))
    assert basis_a.dimension == basis_b.dimension
    k = basis_a.dimension
    inc = build_incidence(g)
    both = stack_columns(list(basis_a.vectors) + list(basis_b.vectors), inc.edge)
    if k:
        assert exact_rank(both) == k
    else:
        assert both.is_zero()


@settings(max_examples=30)
@given(connected_graphs(max_vertices=9))
def test_tree_edge_differences_independent(g):
    rep = cycle_space_report(g)
    assert rep.tree_diff_rank == g.num_vertices - 1
