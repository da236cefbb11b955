"""Finite directed graphs: parsing, validation, traversal.

A graph is a vertex count plus an ordered list of directed edges (tail,
head).  Self-loops and duplicate directed edges are rejected; both
orientations of the same undirected edge may coexist and are tracked as
reciprocal pairs.  A graph declared symmetric must contain the reverse of
every edge.

One breadth-first spanning forest per graph, built on first use and kept
as graph.spanning_forest, gives the weak components, the tree edges and
the chords that close the fundamental cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

ORIENTED = "oriented"
SYMMETRIC = "symmetric"
MODES = (ORIENTED, SYMMETRIC)


class GraphFormatError(ValueError):
    """Base class for edge-list and construction errors."""


class MalformedLine(GraphFormatError):
    pass


class SelfLoop(GraphFormatError):
    pass


class DuplicateEdge(GraphFormatError):
    pass


class IndexOutOfRange(GraphFormatError):
    pass


class SymmetricModeViolation(GraphFormatError):
    pass


@dataclass(frozen=True)
class DirectedGraph:
    """An ordered directed graph on vertices 0..n-1.

    Edge order is part of the data: edge k of the graph is basis vector k
    of the edge space, so maps built from the same graph always agree on
    indexing.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    mode: str = ORIENTED

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise GraphFormatError(f"vertex count must be positive, got {self.num_vertices}")
        if self.mode not in MODES:
            raise GraphFormatError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "edges", tuple((int(a), int(b)) for a, b in self.edges))
        seen: set[tuple[int, int]] = set()
        for tail, head in self.edges:
            if not (0 <= tail < self.num_vertices and 0 <= head < self.num_vertices):
                raise IndexOutOfRange(
                    f"edge ({tail}, {head}) outside vertex range 0..{self.num_vertices - 1}"
                )
            if tail == head:
                raise SelfLoop(f"self-loop at vertex {tail}")
            if (tail, head) in seen:
                raise DuplicateEdge(f"duplicate directed edge ({tail}, {head})")
            seen.add((tail, head))
        if self.mode == SYMMETRIC:
            for tail, head in self.edges:
                if (head, tail) not in seen:
                    raise SymmetricModeViolation(
                        f"symmetric mode requires reverse of ({tail}, {head})"
                    )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def reciprocal_pairs(self) -> tuple[tuple[int, int], ...]:
        """Edge-index pairs (k, r) with k < r that are mutual reverses."""
        pairs = []
        for k, (tail, head) in enumerate(self.edges):
            r = self.edge_index.get((head, tail))
            if r is not None and k < r:
                pairs.append((k, r))
        return tuple(pairs)

    @cached_property
    def spanning_forest(self) -> SpanningForest:
        """The breadth-first spanning forest of this graph (see spanning_forest)."""
        return spanning_forest(self)

    def reverse_of(self, k: int) -> int | None:
        """Index of the reversed copy of edge k, if present."""
        tail, head = self.edges[k]
        return self.edge_index.get((head, tail))


def _integer(token: str) -> int:
    """int(token) for ASCII digits after an optional sign, else ValueError.

    int() alone also takes '1_0' and non-ASCII digits.
    """
    if not (token.isascii() and token.lstrip("+-").isdigit()):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text: str, mode_override: str | None = None) -> DirectedGraph:
    """Parse the plain edge-list format.

    Lines are stripped; '#' starts a comment; blank lines are skipped.  The
    first data line must be 'n=<count>'; an optional 'mode=oriented' or
    'mode=symmetric' line may follow; every remaining data line is
    '<tail> <head>', in ASCII integers.  mode_override replaces the declared
    (or default) mode before validation runs.
    """
    num_vertices: int | None = None
    mode: str = ORIENTED
    mode_seen = False
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if num_vertices is None:
            if not line.startswith("n="):
                raise MalformedLine(f"line {lineno}: expected 'n=<count>' first, got {line!r}")
            try:
                num_vertices = _integer(line[2:].strip())
            except ValueError:
                raise MalformedLine(f"line {lineno}: bad vertex count in {line!r}") from None
            continue
        if line.startswith("mode="):
            if edges:
                raise MalformedLine(f"line {lineno}: mode line must come before edges")
            if mode_seen:
                raise MalformedLine(f"line {lineno}: duplicate mode line")
            mode = line[5:].strip()
            if mode not in MODES:
                raise MalformedLine(f"line {lineno}: unknown mode {mode!r}")
            mode_seen = True
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(f"line {lineno}: expected '<tail> <head>', got {line!r}")
        try:
            tail, head = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}: non-integer endpoint in {line!r}") from None
        edges.append((tail, head))
    if num_vertices is None:
        raise MalformedLine("no 'n=<count>' line found")
    if mode_override is not None:
        if mode_override not in MODES:
            raise GraphFormatError(f"mode override must be one of {MODES}")
        mode = mode_override
    return DirectedGraph(num_vertices, tuple(edges), mode)


def load_edge_list(path, mode_override: str | None = None) -> DirectedGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), mode_override)


def format_edge_list(graph: DirectedGraph) -> str:
    lines = [f"n={graph.num_vertices}", f"mode={graph.mode}"]
    lines.extend(f"{tail} {head}" for tail, head in graph.edges)
    return "\n".join(lines) + "\n"


def symmetrize(graph: DirectedGraph) -> DirectedGraph:
    """Add the missing reverse of every edge and mark the result symmetric.

    Original edges keep their indices; new reverses are appended in the
    order their partners appear.  Idempotent: a symmetric graph comes back
    with the same edge list.
    """
    edges = list(graph.edges)
    present = set(edges)
    for tail, head in graph.edges:
        if (head, tail) not in present:
            edges.append((head, tail))
            present.add((head, tail))
    return DirectedGraph(graph.num_vertices, tuple(edges), SYMMETRIC)


def reorient(graph: DirectedGraph, flips: Iterable[int]) -> DirectedGraph:
    """Reverse the listed edge indices in place, keeping edge order.

    Raises DuplicateEdge if a flip collides with an existing edge (flipping
    one half of a reciprocal pair).  Applying the same flips twice returns
    the original graph.
    """
    edges = list(graph.edges)
    for k in flips:
        if not (0 <= k < len(edges)):
            raise IndexOutOfRange(f"edge index {k} out of range")
        tail, head = edges[k]
        edges[k] = (head, tail)
    mode = graph.mode
    if mode == SYMMETRIC:
        present = set(edges)
        if any((h, t) not in present for t, h in edges):
            mode = ORIENTED
    return DirectedGraph(graph.num_vertices, tuple(edges), mode)


def connected_components(graph: DirectedGraph) -> list[list[int]]:
    """Weakly connected components, each sorted, ordered by least vertex."""
    return [list(comp) for comp in graph.spanning_forest.components]


@dataclass(frozen=True)
class SpanningForest:
    """Breadth-first spanning forest of the undirected view, one tree per weak component.

    A reciprocal pair counts as one undirected edge, represented by its lower
    index.  parent[v] is the BFS parent of vertex v and parent_edge[v] the
    representative joining them, both -1 at a root; depth[v] is the distance
    from v's root.  components lists each component's sorted vertices,
    ordered by least vertex, and component[v] is the index in components
    of v's component.  tree_edges are the sorted tree representatives;
    chords are the remaining representatives, by component and then by index.
    """

    parent: tuple[int, ...]
    parent_edge: tuple[int, ...]
    depth: tuple[int, ...]
    component: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    tree_edges: tuple[int, ...]
    chords: tuple[int, ...]


def spanning_forest(graph: DirectedGraph) -> SpanningForest:
    """One breadth-first traversal of every weak component.

    Roots are the least vertices of their components, taken in increasing
    order, and neighbors are explored in increasing order, so the forest is
    deterministic.
    """
    n = graph.num_vertices
    # vertex -> {neighbor: representative}; edges come in index order, so the
    # lower index of a reciprocal pair is the one kept
    incident: list[dict[int, int]] = [{} for _ in range(n)]
    for k, (tail, head) in enumerate(graph.edges):
        incident[tail].setdefault(head, k)
        incident[head].setdefault(tail, k)
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [-1] * n
    component = [-1] * n
    components: list[tuple[int, ...]] = []
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        order = [root]
        for v in order:  # appending while iterating makes the list a FIFO queue
            component[v] = len(components)
            for w in sorted(incident[v]):
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    parent_edge[w] = incident[v][w]
                    order.append(w)
        components.append(tuple(sorted(order)))
    chords: list[list[int]] = [[] for _ in components]
    for k, (tail, head) in enumerate(graph.edges):
        # a tree edge is the parent edge of one of its ends
        if incident[tail][head] == k and k != parent_edge[head] and k != parent_edge[tail]:
            chords[component[tail]].append(k)
    return SpanningForest(
        parent=tuple(parent),
        parent_edge=tuple(parent_edge),
        depth=tuple(depth),
        component=tuple(component),
        components=tuple(components),
        tree_edges=tuple(sorted(k for k in parent_edge if k >= 0)),
        chords=tuple(k for comp_chords in chords for k in comp_chords),
    )
