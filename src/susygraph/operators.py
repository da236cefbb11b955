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

import numpy as np

from .graph import DirectedGraph, GraphFormatError
from .linalg import (
    LinearMap,
    Space,
    edge_space,
    super_space,
    vertex_space,
)


@dataclass(frozen=True)
class IncidenceOperators:
    """The elementary maps between vertex and edge functions.

    d_head sends a vertex function x to the edge function picking the value
    at each edge's head; d_tail picks the value at the tail.  diff is their
    difference, the discrete derivative: (diff x)(e) = x(head) - x(tail).
    diff_adj is its adjoint.
    """

    graph: DirectedGraph
    vertex: Space
    edge: Space
    d_head: LinearMap
    d_tail: LinearMap
    diff: LinearMap
    diff_adj: LinearMap


def build_incidence(graph: DirectedGraph) -> IncidenceOperators:
    v = vertex_space(graph.num_vertices)
    e = edge_space(graph.num_edges)
    head_entries = []
    tail_entries = []
    for k, (tail, head) in enumerate(graph.edges):
        head_entries.append((k, head, 1, 0))
        tail_entries.append((k, tail, 1, 0))
    d_head = LinearMap.from_entries(v, e, head_entries)
    d_tail = LinearMap.from_entries(v, e, tail_entries)
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
    deg_in = inc.d_head.adjoint() @ inc.d_head
    deg_out = inc.d_tail.adjoint() @ inc.d_tail
    adj_in = inc.d_tail.adjoint() @ inc.d_head
    adj_out = inc.d_head.adjoint() @ inc.d_tail
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


def build_edge_laplacian(inc: IncidenceOperators) -> LinearMap:
    """The partner Laplacian diff diff* on edge functions."""
    return inc.diff @ inc.diff_adj


def _embed(block: LinearMap, sup: Space, row_off: int, col_off: int) -> LinearMap:
    # A constant offset keeps the (row, col) order, so the block stays canonical.
    return LinearMap(sup, sup, block.row + row_off, block.col + col_off, block.value)


@dataclass(frozen=True)
class SuperOperators:
    """The supersymmetric package on the direct sum space (vertex block first).

    dirac is the off-diagonal first-order operator whose square is the
    hamiltonian.  q1 = dirac and q2 = i * grading * q1 are the hermitian
    supercharges; q_plus and q_minus are the nilpotent ladder halves.
    grading is the parity involution (+1 on vertex functions, -1 on edge
    functions), with proj_bosonic and proj_fermionic its eigenprojectors.
    hamiltonian is block-diagonal: vertex Laplacian and edge Laplacian.
    """

    super: Space
    vertex: Space
    edge: Space
    dirac: LinearMap
    q1: LinearMap
    q2: LinearMap
    q_plus: LinearMap
    q_minus: LinearMap
    grading: LinearMap
    proj_bosonic: LinearMap
    proj_fermionic: LinearMap
    hamiltonian: LinearMap


def build_super_operators(inc: IncidenceOperators) -> SuperOperators:
    n = inc.vertex.dim
    m = inc.edge.dim
    sup = super_space(n, m)
    diff_block = _embed(inc.diff, sup, n, 0)
    adj_block = _embed(inc.diff_adj, sup, 0, n)
    dirac = diff_block + adj_block
    q_plus = diff_block
    q_minus = adj_block
    q2 = adj_block.scale((0, 1)) + diff_block.scale((0, -1))
    grading = LinearMap.from_entries(
        sup,
        sup,
        [(i, i, 1 if i < n else -1, 0) for i in range(n + m)],
    )
    proj_bosonic = LinearMap.from_entries(sup, sup, [(i, i, 1, 0) for i in range(n)])
    proj_fermionic = LinearMap.from_entries(sup, sup, [(i, i, 1, 0) for i in range(n, n + m)])
    vertex_lap = inc.diff_adj @ inc.diff
    edge_lap = inc.diff @ inc.diff_adj
    hamiltonian = _embed(vertex_lap, sup, 0, 0) + _embed(edge_lap, sup, n, n)
    return SuperOperators(
        super=sup,
        vertex=inc.vertex,
        edge=inc.edge,
        dirac=dirac,
        q1=dirac,
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


def pair_difference_state(inc: IncidenceOperators, i: int, j: int):
    """The antisymmetric combination of the two directions between i and j.

    On a graph carrying both edges i->j and j->i this is the edge function
    with +1 on the former and -1 on the latter, the natural basis vector
    of the unoriented picture.
    """
    from .linalg import StateVector

    g = inc.graph
    forward = g.edge_index.get((i, j))
    backward = g.edge_index.get((j, i))
    if forward is None or backward is None:
        raise GraphFormatError(f"graph lacks a reciprocal pair between {i} and {j}")
    coeffs = [0] * g.num_edges
    coeffs[forward] = 1
    coeffs[backward] = -1
    return StateVector.from_values(inc.edge, coeffs)


def path_graph(num_vertices: int) -> DirectedGraph:
    """The oriented path 0 -> 1 -> ... -> n-1."""
    return DirectedGraph(
        num_vertices, tuple((i, i + 1) for i in range(num_vertices - 1)), "oriented"
    )


def laplacian_stencil(inc: IncidenceOperators) -> dict[int, dict[int, int]]:
    """Rows of the partner Laplacian as {edge: {edge: weight}} for stencil checks."""
    edge_lap = build_edge_laplacian(inc)
    rows: dict[int, dict[int, int]] = {}
    for r, c, re, _ in edge_lap.entries():
        rows.setdefault(r, {})[c] = re
    return rows


def laplacian_stencil_apply(graph: DirectedGraph, values):
    """Apply the vertex Laplacian straight off the edge list.

    Each directed edge between i and k contributes one unit of adjacency
    weight, so the value at vertex i is the negative sum of (value_k -
    value_i) over incident edge endpoints counted with multiplicity.
    Bypasses every operator in this module; used to cross-check them.
    """
    vals = np.asarray(values, dtype=np.complex128)
    out = np.zeros(graph.num_vertices, dtype=np.complex128)
    for tail, head in graph.edges:
        out[tail] -= vals[head] - vals[tail]
        out[head] -= vals[tail] - vals[head]
    return out


def path_second_difference_ok(num_vertices: int) -> bool:
    """Partner Laplacian of the oriented path is the second-difference stencil.

    Interior edge rows must be exactly -1, +2, -1 on the previous, own and
    next edge; the two boundary rows drop the missing neighbor.  Checked
    by integer equality.
    """
    g = path_graph(num_vertices)
    rows = laplacian_stencil(build_incidence(g))
    m = g.num_edges
    for k in range(m):
        expected = {k: 2}
        if k > 0:
            expected[k - 1] = -1
        if k < m - 1:
            expected[k + 1] = -1
        if rows.get(k, {}) != expected:
            return False
    return True
