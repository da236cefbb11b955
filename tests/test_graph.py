"""Graph construction, the edge-list format, traversal helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import directed_graphs
from susygraph.graph import (
    ORIENTED,
    SYMMETRIC,
    DirectedGraph,
    DuplicateEdge,
    GraphFormatError,
    IndexOutOfRange,
    MalformedLine,
    SelfLoop,
    SymmetricModeViolation,
    bfs_spheres,
    connected_components,
    format_edge_list,
    parse_edge_list,
    reorient,
    spanning_tree,
    symmetrize,
)


def is_connected(graph: DirectedGraph) -> bool:
    return len(connected_components(graph)) == 1


def test_validation_errors():
    with pytest.raises(SelfLoop):
        DirectedGraph(2, ((0, 0),))
    with pytest.raises(DuplicateEdge):
        DirectedGraph(2, ((0, 1), (0, 1)))
    with pytest.raises(IndexOutOfRange):
        DirectedGraph(2, ((0, 2),))
    with pytest.raises(IndexOutOfRange):
        DirectedGraph(2, ((-1, 0),))
    with pytest.raises(SymmetricModeViolation):
        DirectedGraph(2, ((0, 1),), SYMMETRIC)
    with pytest.raises(GraphFormatError):
        DirectedGraph(0, ())
    with pytest.raises(GraphFormatError):
        DirectedGraph(2, ((0, 1),), "undirected")


def test_reciprocal_pairs_allowed_in_oriented_mode():
    g = DirectedGraph(2, ((0, 1), (1, 0)))
    assert g.reciprocal_pairs == ((0, 1),)
    assert g.reverse_of(0) == 1 and g.reverse_of(1) == 0


def test_parse_basic():
    text = "# comment\nn=3\nmode=oriented\n0 1  # inline comment\n\n1 2\n"
    g = parse_edge_list(text)
    assert g.num_vertices == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.mode == ORIENTED


def test_parse_crlf_and_default_mode():
    g = parse_edge_list("n=2\r\n0 1\r\n")
    assert g.mode == ORIENTED
    assert g.edges == ((0, 1),)


@pytest.mark.parametrize(
    "text",
    [
        "0 1\n",                # missing n= line
        "n=two\n",              # bad count
        "n=2\n0\n",             # not two fields
        "n=2\n0 x\n",           # non-integer
        "n=2\nmode=weird\n",    # unknown mode
        "n=2\n0 1\nmode=oriented\n",  # mode after edges
        "",                      # empty file
    ],
)
def test_parse_malformed(text):
    with pytest.raises(MalformedLine):
        parse_edge_list(text)


def test_parse_mode_override():
    text = "n=2\n0 1\n1 0\n"
    assert parse_edge_list(text).mode == ORIENTED
    assert parse_edge_list(text, "symmetric").mode == SYMMETRIC
    with pytest.raises(SymmetricModeViolation):
        parse_edge_list("n=2\n0 1\n", "symmetric")
    with pytest.raises(GraphFormatError):
        parse_edge_list(text, "sideways")


@given(directed_graphs())
def test_format_parse_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(directed_graphs())
def test_symmetrize_idempotent(g):
    s = symmetrize(g)
    assert s.mode == SYMMETRIC
    assert symmetrize(s).edges == s.edges
    present = set(s.edges)
    assert all((h, t) in present for t, h in s.edges)
    # original edges keep their indices
    assert s.edges[: g.num_edges] == g.edges


def test_reorient_involution_and_collision():
    g = DirectedGraph(3, ((0, 1), (1, 2)))
    flipped = reorient(g, [0])
    assert flipped.edges == ((1, 0), (1, 2))
    assert reorient(flipped, [0]) == g
    pair = DirectedGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(DuplicateEdge):
        reorient(pair, [0])
    with pytest.raises(IndexOutOfRange):
        reorient(g, [5])


def test_connected_components_order():
    g = DirectedGraph(5, ((3, 1), (0, 4)))
    assert connected_components(g) == [[0, 4], [1, 3], [2]]
    assert not is_connected(g)
    assert is_connected(DirectedGraph(2, ((1, 0),)))


def test_spanning_tree_path():
    g = DirectedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    tree = spanning_tree(g, root=0)
    assert tree.root == 0
    assert sorted(tree.parent) == [1, 2, 3]
    assert len(tree.tree_edges) == 3
    assert len(tree.non_tree_edges) == 1
    # BFS from 0 on the 4-cycle reaches 1 and 3 first, then 2
    assert tree.parent[1] == 0 and tree.parent[3] == 0
    assert tree.parent[2] in (1, 3)


def test_spanning_tree_deduplicates_reciprocal_pairs():
    g = symmetrize(DirectedGraph(3, ((0, 1), (1, 2))))
    tree = spanning_tree(g, root=0)
    # pair representatives are the lower indices 0 and 1
    assert tree.tree_edges == (0, 1)
    assert tree.non_tree_edges == ()
    assert tree.partner == {0: 2, 2: 0, 1: 3, 3: 1}


def test_spanning_tree_other_component():
    g = DirectedGraph(4, ((0, 1), (2, 3)))
    tree = spanning_tree(g, root=2)
    assert tree.vertices == (2, 3)
    assert tree.tree_edges == (1,)
    # the other component's edge is left over
    assert tree.non_tree_edges == (0,)
    with pytest.raises(IndexOutOfRange):
        spanning_tree(g, root=9)


@given(directed_graphs(min_vertices=2, max_vertices=10))
def test_spanning_tree_properties(g):
    tree = spanning_tree(g, root=0)
    comp0 = next(c for c in connected_components(g) if 0 in c)
    assert sorted(tree.vertices) == comp0
    assert len(tree.tree_edges) == len(comp0) - 1
    for child, par in tree.parent.items():
        tail, head = g.edges[tree.parent_edge[child]]
        assert {tail, head} == {child, par}


def test_bfs_spheres_path():
    g = DirectedGraph(4, ((0, 1), (1, 2), (2, 3)))
    layers = bfs_spheres(g, root=0)
    assert layers.layers == ((0,), (1,), (2,), (3,))
    assert layers.distance == {0: 0, 1: 1, 2: 2, 3: 3}
    # direction is ignored
    rev = bfs_spheres(reorient(g, [0, 1, 2]), root=0)
    assert rev.layers == layers.layers


@given(directed_graphs(min_vertices=1, max_vertices=8))
def test_bfs_spheres_partition_component(g):
    layers = bfs_spheres(g, root=0)
    comp0 = next(c for c in connected_components(g) if 0 in c)
    seen = sorted(v for layer in layers.layers for v in layer)
    assert seen == comp0
    for v, dist in layers.distance.items():
        assert v in layers.layers[dist]
        if v != 0:
            assert any(
                layers.distance.get(w) == dist - 1 for w in g.undirected_neighbors[v]
            )
