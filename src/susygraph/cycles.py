"""Cycle space of a directed graph via fundamental cycles.

The kernel of the adjoint difference operator is spanned by signed edge
indicator vectors of closed walks.  The graph's one breadth-first spanning
forest (graph.spanning_forest) gives one fundamental cycle per chord, a
leftover undirected edge: the chord itself plus the tree path closing it,
each tree edge signed by whether the walk traverses it along or against
its direction.  A reciprocal pair of directed edges is additionally a
closed walk of length two and yields the vector e_k + e_r; the dimension
count m - n + c forces these in whenever pairs are present, whatever the
declared mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, SpanningForest
from .linalg import LinearMap, exact_rank
from .operators import IncidenceOperators


@dataclass(frozen=True)
class CycleBasis:
    """Integer cycle vectors as {edge index: sign} plus their provenance.

    vectors[j] is generator j; defining_edge[j] is the directed edge index
    that closes it (for a reciprocal-pair 2-cycle, the higher partner; for
    a fundamental cycle, the chord).  pair_generators lists the 2-cycles
    as index pairs; chord_generators lists the chords in order.  forest is
    the graph's spanning forest, whose tree paths the chords close.  Every
    vector is annihilated by the adjoint difference operator.
    """

    graph: DirectedGraph
    vectors: tuple[dict[int, int], ...]
    defining_edge: tuple[int, ...]
    pair_generators: tuple[tuple[int, int], ...]
    chord_generators: tuple[int, ...]
    forest: SpanningForest

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _tree_path(graph: DirectedGraph, forest: SpanningForest, a: int, b: int) -> dict[int, int]:
    """Signed tree edges along the forest path from a to b, in walking order."""
    parent, depth = forest.parent, forest.depth
    up: list[int] = []  # a and its ancestors below the meeting vertex
    down: list[int] = []  # the same from b; walked in reverse
    while a != b:
        if depth[a] >= depth[b]:
            up.append(a)
            a = parent[a]
        else:
            down.append(b)
            b = parent[b]
    signed: dict[int, int] = {}
    for v in up:  # walked from v to its parent
        k = forest.parent_edge[v]
        signed[k] = 1 if graph.edges[k][0] == v else -1
    for v in reversed(down):  # walked from v's parent to v
        k = forest.parent_edge[v]
        signed[k] = 1 if graph.edges[k][1] == v else -1
    return signed


def fundamental_cycle_basis(graph: DirectedGraph) -> CycleBasis:
    """The standard basis of the cycle space from the graph's spanning forest.

    Reciprocal pairs contribute length-two cycles e_k + e_r first (ordered
    by lower index); each chord of the forest contributes one fundamental
    cycle: +1 on the chord, then the tree path from its head back to its
    tail with tree edges signed by traversal direction.  The number of
    vectors is m - n + c for c weak components.
    """
    forest = graph.spanning_forest
    pairs = graph.reciprocal_pairs
    chord_vectors = []
    for k in forest.chords:
        tail, head = graph.edges[k]
        chord_vectors.append({k: 1, **_tree_path(graph, forest, head, tail)})
    return CycleBasis(
        graph=graph,
        vectors=tuple([{k: 1, r: 1} for k, r in pairs] + chord_vectors),
        defining_edge=tuple([r for _, r in pairs] + list(forest.chords)),
        pair_generators=pairs,
        chord_generators=forest.chords,
        forest=forest,
    )


@dataclass(frozen=True)
class CycleSpaceReport:
    """The cycle basis checked against exact kernel data, all counts exact.

    expected_dimension is m - n + c.  closure_residual is the largest
    entry of the adjoint difference operator applied to the stacked basis
    (0 when every vector is a genuine cycle).  basis_rank must equal the
    dimension for independence, and kernel_dimension (m minus the exact
    rank of the difference operator) must equal it for spanning.
    tree_diff_rank checks that the difference operator restricted to tree
    edges already has full rank n - c: the tree-edge coordinate
    differences are independent vertex functionals.
    """

    basis: CycleBasis
    expected_dimension: int
    closure_residual: int
    basis_rank: int
    kernel_dimension: int
    num_components: int
    tree_diff_rank: int
    dim_ker_hamiltonian: int

    @property
    def consistent(self) -> bool:
        return (
            self.basis.dimension == self.expected_dimension
            and self.closure_residual == 0
            and self.basis_rank == self.basis.dimension
            and self.kernel_dimension == self.expected_dimension
            and self.tree_diff_rank
            == self.basis.graph.num_vertices - self.num_components
        )


def cycle_space_report(inc: IncidenceOperators) -> CycleSpaceReport:
    """Check the fundamental cycle basis of inc.graph against exact kernel data.

    The cycle basis, its stacked map, closure and rank, and the exact rank
    of the difference operator are inc's own, so they are shared with every
    other analysis handed inc.
    """
    graph = inc.graph
    basis = inc.cycle_basis
    forest = basis.forest
    expected = graph.num_edges - graph.num_vertices + len(forest.components)
    diff_rank = inc.rank
    kernel_dim = graph.num_edges - diff_rank
    # the tree rows of d, a row subset of a canonical map and so canonical itself
    d = inc.diff
    tree_rows = np.isin(d.row, forest.tree_edges)
    if tree_rows.all():  # a forest: the tree rows are d itself
        tree_diff_rank = diff_rank
    else:
        tree_diff = LinearMap(
            d.domain, d.codomain, d.row[tree_rows], d.col[tree_rows], d.value[:, tree_rows]
        )
        tree_diff_rank = exact_rank(tree_diff)
    return CycleSpaceReport(
        basis=basis,
        expected_dimension=expected,
        closure_residual=inc.cycle_closure.max_abs(),
        basis_rank=inc.cycle_rank,
        kernel_dimension=kernel_dim,
        num_components=len(forest.components),
        tree_diff_rank=tree_diff_rank,
        dim_ker_hamiltonian=(graph.num_vertices - diff_rank) + kernel_dim,
    )
