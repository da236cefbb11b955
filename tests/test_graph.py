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
    connected_components,
    format_edge_list,
    parse_edge_list,
    reorient,
    spanning_forest,
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
        # int() takes these; the format allows only ASCII digits after an optional sign
        "n=1_0\n",
        "n=\u0663\n",           # Arabic-Indic three
        "n=\uff13\n",           # fullwidth three
        "n=3\n0 \u0661\n",
        "n=3\n0_0 1\n",
        "n=+-3\n",              # two signs
        "n=2\nmode=weird\n",    # unknown mode
        "n=2\n0 1\nmode=oriented\n",  # mode after edges
        "",                      # empty file
    ],
)
def test_parse_malformed(text):
    with pytest.raises(MalformedLine):
        parse_edge_list(text)


def test_parse_signed_integers():
    assert parse_edge_list("n=+3\n+0 2\n").edges == ((0, 2),)
    with pytest.raises(IndexOutOfRange, match="edge \\(-1, 0\\) outside vertex range 0..2"):
        parse_edge_list("n=3\n-1 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=3\nmode=oriented\nmode=oriented\n0 1\n", "line 3: duplicate mode line"),
        ("n=3\nmode=symmetric\n# note\nmode=oriented\n", "line 4: duplicate mode line"),
        ("n=3\n0 1\nmode=oriented\n", "line 3: mode line must come before edges"),
        ("n=3\nmode=oriented\n0 1\nmode=oriented\n", "line 4: mode line must come before edges"),
    ],
)
def test_parse_names_misplaced_mode_line(text, message):
    with pytest.raises(MalformedLine, match=f"^{message}$"):
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
    forest = spanning_forest(g)
    assert forest.components == ((0, 1, 2, 3),)
    # BFS from 0 on the 4-cycle reaches 1 and 3 first, then 2 through 1
    assert forest.parent == (-1, 0, 1, 0)
    assert forest.parent_edge == (-1, 0, 1, 3)
    assert forest.depth == (0, 1, 2, 1)
    assert forest.tree_edges == (0, 1, 3)
    assert forest.chords == (2,)


def test_spanning_tree_deduplicates_reciprocal_pairs():
    g = symmetrize(DirectedGraph(3, ((0, 1), (1, 2))))
    forest = spanning_forest(g)
    # pair representatives are the lower indices 0 and 1; no higher partner is a chord
    assert forest.tree_edges == (0, 1)
    assert forest.chords == ()
    assert forest.parent_edge == (-1, 0, 1)
    # a pair that closes no tree edge is one chord, its lower index
    c3 = symmetrize(DirectedGraph(3, ((0, 1), (1, 2), (2, 0))))
    assert spanning_forest(c3).chords == (1,)


def test_spanning_tree_other_component():
    # the second triangle's edges come first, and vertex 6 is isolated
    g = DirectedGraph(7, ((3, 4), (4, 5), (5, 3), (0, 1), (1, 2), (2, 0)))
    forest = spanning_forest(g)
    # one tree per component, roots the least vertices, components by least vertex
    assert forest.components == ((0, 1, 2), (3, 4, 5), (6,))
    assert [v for v in range(7) if forest.parent[v] < 0] == [0, 3, 6]
    assert forest.tree_edges == (0, 2, 3, 5)
    # chords by component first, then by index
    assert forest.chords == (4, 1)
    assert g.spanning_forest == forest
    assert connected_components(g) == [[0, 1, 2], [3, 4, 5], [6]]


@given(directed_graphs(min_vertices=1, max_vertices=10, shuffled=True))
def test_spanning_tree_properties(g):
    forest = g.spanning_forest
    comps = forest.components
    assert sorted(v for comp in comps for v in comp) == list(range(g.num_vertices))
    assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
    roots = [v for v in range(g.num_vertices) if forest.parent[v] < 0]
    assert roots == [comp[0] for comp in comps]
    for v in roots:
        assert forest.parent_edge[v] == -1 and forest.depth[v] == 0
    for v in range(g.num_vertices):
        par = forest.parent[v]
        if par >= 0:
            tail, head = g.edges[forest.parent_edge[v]]
            assert {tail, head} == {v, par}
            assert forest.depth[v] == forest.depth[par] + 1
            reverse = g.reverse_of(forest.parent_edge[v])
            assert reverse is None or reverse > forest.parent_edge[v]
    assert forest.tree_edges == tuple(sorted(k for k in forest.parent_edge if k >= 0))
    assert len(forest.tree_edges) == g.num_vertices - len(comps)
    # every edge is a tree edge, a chord, or the higher half of a reciprocal pair
    higher = {r for _, r in g.reciprocal_pairs}
    assert sorted(forest.tree_edges + forest.chords) == [
        k for k in range(g.num_edges) if k not in higher
    ]
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    assert forest.component == tuple(comp_of[v] for v in range(g.num_vertices))
    keys = [(forest.component[g.edges[k][0]], k) for k in forest.chords]
    assert keys == sorted(keys)
