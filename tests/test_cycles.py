"""Fundamental cycle construction and its exact kernel checks."""

from __future__ import annotations

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, directed_graphs
from susygraph.cycles import CycleBasis, cycle_space_report, fundamental_cycle_basis
from susygraph.graph import DirectedGraph, connected_components, symmetrize
from susygraph.linalg import LinearMap, aux_space, edge_space, exact_rank, stack_columns
from susygraph.operators import build_incidence

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


def reference_components(graph: DirectedGraph) -> list[list[int]]:
    """Weak components by a BFS of their own, each sorted, ordered by least vertex."""
    neighbors: list[set[int]] = [set() for _ in range(graph.num_vertices)]
    for tail, head in graph.edges:
        neighbors[tail].add(head)
        neighbors[head].add(tail)
    seen = [False] * graph.num_vertices
    comps = []
    for start in range(graph.num_vertices):
        if seen[start]:
            continue
        comp, queue = [], deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in sorted(neighbors[v]):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def reference_tree(graph: DirectedGraph, root: int) -> tuple[dict[int, int], dict[int, int]]:
    """BFS tree of root's component as (parent, parent_edge) dicts.

    Ascending neighbor order; a reciprocal pair is its lower index.
    """
    partner = dict(graph.reciprocal_pairs)
    partner.update((r, k) for k, r in graph.reciprocal_pairs)
    incident: list[dict[int, int]] = [{} for _ in range(graph.num_vertices)]
    for k, (tail, head) in enumerate(graph.edges):
        rep = min(k, partner.get(k, k))
        for a, b in ((tail, head), (head, tail)):
            if b not in incident[a] or rep < incident[a][b]:
                incident[a][b] = rep
    parent, parent_edge = {}, {}
    seen, queue = {root}, deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(incident[v]):
            if w not in seen:
                seen.add(w)
                parent[w], parent_edge[w] = v, incident[v][w]
                queue.append(w)
    return parent, parent_edge


def reference_cycle_basis(graph: DirectedGraph):
    """Fundamental cycles from one tree per component, closed by root paths.

    Returns (vectors, defining_edge, pair_generators, chord_generators,
    tree_edges), built independently of the graph's spanning forest.
    """
    pairs = graph.reciprocal_pairs
    vectors = [{k: 1, r: 1} for k, r in pairs]
    chords: list[int] = []
    tree_edges: list[int] = []
    for comp in reference_components(graph):
        root = comp[0]
        parent, parent_edge = reference_tree(graph, root)
        tree = set(parent_edge.values())
        tree_edges.extend(tree)

        def to_root(v):
            path = [v]
            while v != root:
                v = parent[v]
                path.append(v)
            return path

        for k, (tail, head) in enumerate(graph.edges):
            r = graph.reverse_of(k)
            if tail not in comp or k in tree or (r is not None and (r < k or r in tree)):
                continue
            pa, pb = to_root(head), to_root(tail)
            on_pb = set(pb)
            meet = next(v for v in pa if v in on_pb)
            steps = [(v, parent[v]) for v in pa[: pa.index(meet)]]
            steps += [(parent[v], v) for v in reversed(pb[: pb.index(meet)])]
            vec = {k: 1}
            for frm, to in steps:
                j = parent_edge[frm if parent.get(frm) == to else to]
                vec[j] = 1 if graph.edges[j] == (frm, to) else -1
            vectors.append(vec)
            chords.append(k)
    return (
        vectors,
        tuple(r for _, r in pairs) + tuple(chords),
        pairs,
        tuple(chords),
        tuple(sorted(tree_edges)),
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
    rep = cycle_space_report(build_incidence(star))
    assert rep.consistent
    assert rep.dim_ker_hamiltonian == 1


def test_symmetrized_c3_four_cycles():
    rep = cycle_space_report(build_incidence(symmetrize(C3)))
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


def test_report_on_disconnected_graph():
    g = DirectedGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    rep = cycle_space_report(build_incidence(g))
    assert rep.num_components == 2
    assert rep.expected_dimension == 2
    assert rep.basis.dimension == 2
    assert rep.consistent


@settings(max_examples=60)
@given(directed_graphs(max_vertices=9))
def test_cycle_space_report_property(g):
    rep = cycle_space_report(build_incidence(g))
    assert rep.consistent, (g.edges, rep)
    comps = connected_components(g)
    assert rep.expected_dimension == g.num_edges - g.num_vertices + len(comps)
    for vec in rep.basis.vectors:
        assert set(vec.values()) <= {-1, 1}


@settings(max_examples=100)
@given(directed_graphs(max_vertices=10, shuffled=True))
def test_basis_matches_per_component_reference(g):
    vectors, defining, pairs, chords, tree_edges = reference_cycle_basis(g)
    basis = fundamental_cycle_basis(g)
    assert [list(vec.items()) for vec in basis.vectors] == [list(v.items()) for v in vectors]
    assert basis.defining_edge == defining
    assert basis.pair_generators == pairs
    assert basis.chord_generators == chords
    assert basis.forest.tree_edges == tree_edges
    assert connected_components(g) == reference_components(g)


@settings(max_examples=30)
@given(connected_graphs(max_vertices=9), st.integers(0, 10**6))
def test_two_trees_same_span(g, seed):
    # relabelling the vertices keeps every edge index but moves the BFS roots and order
    perm = list(range(g.num_vertices))
    random.Random(seed).shuffle(perm)
    relabelled = DirectedGraph(g.num_vertices, tuple((perm[a], perm[b]) for a, b in g.edges))
    basis_a = fundamental_cycle_basis(g)
    basis_b = fundamental_cycle_basis(relabelled)
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
    rep = cycle_space_report(build_incidence(g))
    assert rep.tree_diff_rank == g.num_vertices - 1
