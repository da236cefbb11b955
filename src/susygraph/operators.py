"""Operator calculus of a directed graph.

The vertex space carries functions on vertices, the edge space functions
on directed edges.  From the two elementary incidence maps (head and tail
projections) everything else is assembled: the difference operator and its
adjoint, in/out degree and adjacency operators, the two Laplacians, and
the supersymmetric package on the direct sum space (Dirac operator, the
two hermitian supercharges, their nilpotent halves, the grading involution
and the super Hamiltonian).

All constructions are exact.  The super Hamiltonian is deliberately built
from the two small Laplacians, not by squaring the Dirac operator, so that
the squaring identity remains a real consistency check downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .graph import DirectedGraph
from .linalg import (
    LinearMap,
    Space,
    edge_space,
    exact_rank,
    stack_columns,
    super_space,
    vertex_space,
)

if TYPE_CHECKING:
    from .cycles import CycleBasis


@dataclass(frozen=True)
class IncidenceOperators:
    """The elementary maps between vertex and edge functions.

    d_head sends a vertex function x to the edge function picking the value
    at each edge's head; d_tail picks the value at the tail.  diff is their
    difference, the discrete derivative: (diff x)(e) = x(head) - x(tail).
    diff_adj is its adjoint.

    The derived members are computed on first use and kept, so every
    analysis handed the same instance shares them instead of recomputing.
    """

    graph: DirectedGraph
    vertex: Space
    edge: Space
    d_head: LinearMap
    d_tail: LinearMap
    diff: LinearMap
    diff_adj: LinearMap

    @cached_property
    def rank(self) -> int:
        """Exact rank of diff, by elimination."""
        return exact_rank(self.diff)

    @cached_property
    def ker_diff(self) -> tuple[dict[int, int], ...]:
        """The component indicators, read off the spanning forest, as exact_kernel_basis(diff).

        That is, ordered by each component's largest vertex (the free column)
        and keyed by it first, then by the other vertices ascending.
        """
        components = sorted(self.graph.spanning_forest.components, key=lambda comp: comp[-1])
        return tuple(dict.fromkeys((comp[-1], *comp[:-1]), 1) for comp in components)

    @cached_property
    def cycle_basis(self) -> CycleBasis:
        """The fundamental cycle basis of graph (see cycles.fundamental_cycle_basis)."""
        from .cycles import fundamental_cycle_basis

        return fundamental_cycle_basis(self.graph)

    @cached_property
    def cycle_matrix(self) -> LinearMap:
        """The cycle basis vectors stacked as the columns of a map into edge functions."""
        return stack_columns(list(self.cycle_basis.vectors), self.edge)

    @cached_property
    def cycle_closure(self) -> LinearMap:
        """diff_adj applied to cycle_matrix: zero exactly when every basis vector is a cycle."""
        return self.diff_adj @ self.cycle_matrix

    @cached_property
    def cycle_rank(self) -> int:
        """Exact rank of cycle_matrix; the basis is independent when it equals its size."""
        return exact_rank(self.cycle_matrix)

    @cached_property
    def vertex_laplacian(self) -> LinearMap:
        """diff* diff on vertex functions."""
        return self.diff_adj @ self.diff

    @cached_property
    def edge_laplacian(self) -> LinearMap:
        """The partner Laplacian diff diff* on edge functions."""
        return self.diff @ self.diff_adj

    @cached_property
    def vertex_operators(self) -> VertexOperators:
        """build_vertex_operators applied to this instance."""
        return build_vertex_operators(self)

    @cached_property
    def super_operators(self) -> SuperOperators:
        """build_super_operators applied to this instance."""
        return build_super_operators(self)


def build_incidence(graph: DirectedGraph) -> IncidenceOperators:
    v = vertex_space(graph.num_vertices)
    e = edge_space(graph.num_edges)
    # Row k holds edge k's one entry, so both maps are canonical as built.
    tail, head = np.array(graph.edges, dtype=np.int64).reshape(-1, 2).T.copy()
    row = np.arange(graph.num_edges, dtype=np.int64)
    ones = np.zeros((2, graph.num_edges), dtype=np.int64)
    ones[0] = 1
    d_head = LinearMap(v, e, row, head, ones)
    d_tail = LinearMap(v, e, row, tail, ones)
    diff = d_head - d_tail
    return IncidenceOperators(
        graph=graph,
        vertex=v,
        edge=e,
        d_head=d_head,
        d_tail=d_tail,
        diff=diff,
        diff_adj=diff.adjoint(),
    )


@dataclass(frozen=True)
class VertexOperators:
    """Degree and adjacency operators on the vertex space.

    Built from the incidence factorizations: deg_in = d_head* d_head,
    deg_out = d_tail* d_tail, adj_in = d_tail* d_head, adj_out = d_head* d_tail.
    adj = adj_in + adj_out is symmetric; an entry of 2 marks a reciprocal
    edge pair.  laplacian = diff* diff = deg - adj.
    """

    deg_in: LinearMap
    deg_out: LinearMap
    deg: LinearMap
    adj_in: LinearMap
    adj_out: LinearMap
    adj: LinearMap
    laplacian: LinearMap


def build_vertex_operators(inc: IncidenceOperators) -> VertexOperators:
    head_adj, tail_adj = inc.d_head.adjoint(), inc.d_tail.adjoint()
    deg_in = head_adj @ inc.d_head
    deg_out = tail_adj @ inc.d_tail
    adj_in = tail_adj @ inc.d_head
    adj_out = head_adj @ inc.d_tail
    deg = deg_in + deg_out
    adj = adj_in + adj_out
    return VertexOperators(
        deg_in=deg_in,
        deg_out=deg_out,
        deg=deg,
        adj_in=adj_in,
        adj_out=adj_out,
        adj=adj,
        laplacian=deg - adj,
    )


def _embed(block: LinearMap, sup: Space, row_off: int, col_off: int) -> LinearMap:
    # A constant offset keeps the (row, col) order, so the block stays canonical.
    return LinearMap(sup, sup, block.row + row_off, block.col + col_off, block.value)


def _diagonal(sup: Space, index: np.ndarray, re: int | np.ndarray) -> LinearMap:
    """The real diagonal map with entries re (nonzero) at the increasing coordinates index."""
    value = np.zeros((2, index.size), dtype=np.int64)
    value[0] = re
    return LinearMap(sup, sup, index, index, value)


@dataclass(frozen=True)
class SuperOperators:
    """The supersymmetric package on the direct sum space (vertex block first).

    q1 is the Dirac operator, the off-diagonal first-order operator whose
    square is the hamiltonian.  q1 and q2 = i * grading * q1 are the
    hermitian supercharges; q_plus and q_minus are the nilpotent ladder
    halves, q1 = q_plus + q_minus.
    grading is the parity involution (+1 on vertex functions, -1 on edge
    functions), with proj_bosonic and proj_fermionic its eigenprojectors.
    hamiltonian is block-diagonal: vertex Laplacian and edge Laplacian.
    hamiltonian_spectrum is computed from hamiltonian on first use and kept.
    """

    super: Space
    q1: LinearMap
    q2: LinearMap
    q_plus: LinearMap
    q_minus: LinearMap
    grading: LinearMap
    proj_bosonic: LinearMap
    proj_fermionic: LinearMap
    hamiltonian: LinearMap

    @cached_property
    def hamiltonian_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of hamiltonian, read-only because callers share them.

        build_super_operators makes hamiltonian real, so this is a real
        symmetric solve.
        """
        from .spectral import symmetric_spectrum

        spectrum = symmetric_spectrum(self.hamiltonian)
        spectrum.setflags(write=False)
        return spectrum


def build_super_operators(inc: IncidenceOperators) -> SuperOperators:
    n = inc.vertex.dim
    m = inc.edge.dim
    sup = super_space(n, m)
    diff_block = _embed(inc.diff, sup, n, 0)
    adj_block = _embed(inc.diff_adj, sup, 0, n)
    q_plus = diff_block
    q_minus = adj_block
    q2 = adj_block.scale((0, 1)) + diff_block.scale((0, -1))
    index = np.arange(n + m, dtype=np.int64)
    grading = _diagonal(sup, index, np.where(index < n, 1, -1))
    proj_bosonic = _diagonal(sup, index[:n], 1)
    proj_fermionic = _diagonal(sup, index[n:], 1)
    # The edge block is a product of its own, not inc's cached edge Laplacian:
    # `check` needs that m x m map only here, and keeping it alive through the
    # exact algebra raised check_population's peak RSS about 7 %.
    edge_lap = inc.diff @ inc.diff_adj
    hamiltonian = _embed(inc.vertex_laplacian, sup, 0, 0) + _embed(edge_lap, sup, n, n)
    return SuperOperators(
        super=sup,
        q1=diff_block + adj_block,
        q2=q2,
        q_plus=q_plus,
        q_minus=q_minus,
        grading=grading,
        proj_bosonic=proj_bosonic,
        proj_fermionic=proj_fermionic,
        hamiltonian=hamiltonian,
    )


# -- direct constructions used as oracles against the factorizations ---------


def degree_in_direct(graph: DirectedGraph) -> LinearMap:
    v = vertex_space(graph.num_vertices)
    counts = [0] * graph.num_vertices
    for _, head in graph.edges:
        counts[head] += 1
    return LinearMap.from_entries(v, v, [(i, i, c, 0) for i, c in enumerate(counts) if c])


def degree_out_direct(graph: DirectedGraph) -> LinearMap:
    v = vertex_space(graph.num_vertices)
    counts = [0] * graph.num_vertices
    for tail, _ in graph.edges:
        counts[tail] += 1
    return LinearMap.from_entries(v, v, [(i, i, c, 0) for i, c in enumerate(counts) if c])


def adjacency_direct(graph: DirectedGraph) -> LinearMap:
    """Symmetric adjacency with weight 1 per directed edge, 2 on reciprocal pairs."""
    v = vertex_space(graph.num_vertices)
    entries = []
    for tail, head in graph.edges:
        entries.append((tail, head, 1, 0))
        entries.append((head, tail, 1, 0))
    return LinearMap.from_entries(v, v, entries)


def laplacian_direct(graph: DirectedGraph) -> LinearMap:
    return (degree_in_direct(graph) + degree_out_direct(graph)) - adjacency_direct(graph)


def path_graph(num_vertices: int) -> DirectedGraph:
    """The oriented path 0 -> 1 -> ... -> n-1."""
    return DirectedGraph(
        num_vertices, tuple((i, i + 1) for i in range(num_vertices - 1)), "oriented"
    )


def laplacian_stencil_apply(graph: DirectedGraph, values):
    """Apply the vertex Laplacian straight off the edge list.

    Each directed edge between i and k contributes one unit of adjacency
    weight, so the value at vertex i is the negative sum of (value_k -
    value_i) over incident edge endpoints counted with multiplicity.
    Bypasses every operator in this module; used to cross-check them.
    """
    vals = np.asarray(values, dtype=np.complex128)
    tail, head = np.array(graph.edges, dtype=np.int64).reshape(-1, 2).T
    out = np.zeros(graph.num_vertices, dtype=np.complex128)
    np.subtract.at(out, tail, vals[head] - vals[tail])
    np.subtract.at(out, head, vals[tail] - vals[head])
    return out


def path_second_difference_ok(num_vertices: int) -> bool:
    """Partner Laplacian of the oriented path is the second-difference stencil.

    Interior edge rows must be exactly -1, +2, -1 on the previous, own and
    next edge; the two boundary rows drop the missing neighbor.  Checked
    by exact equality of the two maps.
    """
    g = path_graph(num_vertices)
    m = g.num_edges
    e = edge_space(m)
    stencil = [(k, k, 2, 0) for k in range(m)]
    stencil += [(k, k + 1, -1, 0) for k in range(m - 1)]
    stencil += [(k + 1, k, -1, 0) for k in range(m - 1)]
    return build_incidence(g).edge_laplacian == LinearMap.from_entries(e, e, stencil)
