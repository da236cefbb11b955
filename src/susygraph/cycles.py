"""Cycle space of a directed graph via fundamental cycles.

The kernel of the adjoint difference operator is spanned by signed edge
indicator vectors of closed walks.  A breadth-first spanning forest gives
one fundamental cycle per leftover undirected edge: the edge itself plus
the tree path closing it, each tree edge signed by whether the walk
traverses it along or against its direction.  A reciprocal pair of
directed edges is additionally a closed walk of length two and yields the
vector e_k + e_r; the dimension count m - n + c forces these in whenever
pairs are present, whatever the declared mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DirectedGraph, SpanningTree, connected_components, spanning_tree
from .linalg import LinearMap, exact_rank, stack_columns
from .operators import IncidenceOperators, build_incidence


class TreeMismatch(ValueError):
    """A spanning tree inconsistent with the graph was supplied."""


@dataclass(frozen=True)
class CycleBasis:
    """Integer cycle vectors as {edge index: sign} plus their provenance.

    vectors[j] is generator j; defining_edge[j] is the directed edge index
    that closes it (for a reciprocal-pair 2-cycle, the higher partner; for
    a fundamental cycle, the chord).  pair_generators lists the 2-cycles
    as index pairs; chord_generators lists the chords in order.  trees
    holds the spanning tree used per component.  Every vector is
    annihilated by the adjoint difference operator.
    """

    graph: DirectedGraph
    vectors: tuple[dict[int, int], ...]
    defining_edge: tuple[int, ...]
    pair_generators: tuple[tuple[int, int], ...]
    chord_generators: tuple[int, ...]
    trees: tuple[SpanningTree, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _validate_tree(graph: DirectedGraph, tree: SpanningTree) -> None:
    if not (0 <= tree.root < graph.num_vertices):
        raise TreeMismatch(f"tree root {tree.root} outside vertex range")
    for child, par in tree.parent.items():
        k = tree.parent_edge.get(child)
        if k is None or not (0 <= k < graph.num_edges):
            raise TreeMismatch(f"tree vertex {child} has no valid parent edge")
        tail, head = graph.edges[k]
        if {tail, head} != {child, par}:
            raise TreeMismatch(
                f"parent edge {k} = ({tail}, {head}) does not join {child} and {par}"
            )
    for k in tree.tree_edges:
        if not (0 <= k < graph.num_edges):
            raise TreeMismatch(f"tree edge index {k} out of range")


def _tree_path_to_root(tree: SpanningTree, v: int) -> list[int]:
    path = []
    while v != tree.root and v in tree.parent:
        path.append(v)
        v = tree.parent[v]
    path.append(v)
    return path


def _walk_edges(graph: DirectedGraph, tree: SpanningTree, a: int, b: int) -> list[tuple[int, int]]:
    """Signed tree edges along the unique tree path from a to b."""
    pa = _tree_path_to_root(tree, a)
    pb = _tree_path_to_root(tree, b)
    sb = set(pb)
    meet = next(v for v in pa if v in sb)
    up = pa[: pa.index(meet)]       # a ... just below meet
    down = pb[: pb.index(meet)]     # b ... just below meet, to be reversed
    steps: list[tuple[int, int]] = []  # (vertex walked from, vertex walked to)
    for v in up:
        steps.append((v, tree.parent[v]))
    for v in reversed(down):
        steps.append((tree.parent[v], v))
    signed: list[tuple[int, int]] = []
    for frm, to in steps:
        child = frm if tree.parent.get(frm) == to else to
        k = tree.parent_edge[child]
        tail, head = graph.edges[k]
        sign = 1 if (tail, head) == (frm, to) else -1
        signed.append((k, sign))
    return signed


def fundamental_cycle_basis(graph: DirectedGraph, tree: SpanningTree | None = None) -> CycleBasis:
    """The standard basis of the cycle space from breadth-first forests.

    Reciprocal pairs contribute length-two cycles e_k + e_r first (ordered
    by lower index); each undirected non-tree edge contributes one
    fundamental cycle: +1 on its representative (the lower index of a
    pair), then the tree path from its head back to its tail with tree
    edges signed by traversal direction.  The number of vectors is
    m - n + c for c weak components.

    A caller-supplied tree is used for the component containing its root
    (TreeMismatch if it was not built from this graph); other components
    get freshly built trees.
    """
    if tree is not None:
        _validate_tree(graph, tree)
    comps = connected_components(graph)
    pair_vectors: list[dict[int, int]] = []
    pair_defining: list[int] = []
    pair_generators: list[tuple[int, int]] = []
    for k, r in graph.reciprocal_pairs:
        pair_vectors.append({k: 1, r: 1})
        pair_defining.append(r)
        pair_generators.append((k, r))
    partner = {k: r for k, r in graph.reciprocal_pairs}
    partner.update({r: k for k, r in graph.reciprocal_pairs})
    chord_vectors: list[dict[int, int]] = []
    chord_generators: list[int] = []
    trees: list[SpanningTree] = []
    for comp in comps:
        if tree is not None and tree.root in comp:
            comp_tree = tree
        else:
            comp_tree = spanning_tree(graph, root=comp[0])
        trees.append(comp_tree)
        comp_set = set(comp)
        for k in comp_tree.non_tree_edges:
            tail, head = graph.edges[k]
            if tail not in comp_set:
                continue
            if k in partner and partner[k] < k:
                continue  # the pair's chord is handled through its lower representative
            vec: dict[int, int] = {k: 1}
            for j, sign in _walk_edges(graph, comp_tree, head, tail):
                vec[j] = vec.get(j, 0) + sign
            vec = {j: v for j, v in vec.items() if v}
            chord_vectors.append(vec)
            chord_generators.append(k)
    return CycleBasis(
        graph=graph,
        vectors=tuple(pair_vectors + chord_vectors),
        defining_edge=tuple(pair_defining + chord_generators),
        pair_generators=tuple(pair_generators),
        chord_generators=tuple(chord_generators),
        trees=tuple(trees),
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


def cycle_space_report(
    graph: DirectedGraph, inc: IncidenceOperators | None = None
) -> CycleSpaceReport:
    """Check the fundamental cycle basis of graph against exact kernel data.

    inc, when given, must be built from graph; its exact rank and cycle
    basis are then shared with every other analysis that reads it.
    """
    if inc is None:
        inc = build_incidence(graph)
    elif inc.graph != graph:
        raise ValueError("inc was built from a different graph")
    basis = inc.cycle_basis
    comps = connected_components(graph)
    expected = graph.num_edges - graph.num_vertices + len(comps)
    stacked = stack_columns(list(basis.vectors), inc.edge)
    closure = inc.diff_adj @ stacked
    rank = exact_rank(stacked) if basis.vectors else 0
    diff_rank = inc.rank
    kernel_dim = graph.num_edges - diff_rank
    tree_rows = {k for tree in basis.trees for k in tree.tree_edges}
    tree_entries = [
        (r, c, re, im) for r, c, re, im in inc.diff.entries() if r in tree_rows
    ]
    tree_diff = LinearMap.from_entries(inc.vertex, inc.edge, tree_entries)
    return CycleSpaceReport(
        basis=basis,
        expected_dimension=expected,
        closure_residual=closure.max_abs(),
        basis_rank=rank,
        kernel_dimension=kernel_dim,
        num_components=len(comps),
        tree_diff_rank=exact_rank(tree_diff),
        dim_ker_hamiltonian=(graph.num_vertices - diff_rank) + kernel_dim,
    )
