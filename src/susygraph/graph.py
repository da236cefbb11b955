"""Finite directed graphs: parsing, validation, traversal.

A graph is a vertex count plus an ordered list of directed edges (tail,
head).  Self-loops and duplicate directed edges are rejected; both
orientations of the same undirected edge may coexist and are tracked as
reciprocal pairs.  A graph declared symmetric must contain the reverse of
every edge.
"""

from __future__ import annotations

from collections import deque
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
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for tail, head in self.edges:
            out[tail].append(head)
        return tuple(tuple(v) for v in out)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        inn: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for tail, head in self.edges:
            inn[head].append(tail)
        return tuple(tuple(v) for v in inn)

    @cached_property
    def undirected_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors ignoring direction, deduplicated, each tuple sorted."""
        adj: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for tail, head in self.edges:
            adj[tail].add(head)
            adj[head].add(tail)
        return tuple(tuple(sorted(s)) for s in adj)

    @cached_property
    def reciprocal_pairs(self) -> tuple[tuple[int, int], ...]:
        """Edge-index pairs (k, r) with k < r that are mutual reverses."""
        pairs = []
        for k, (tail, head) in enumerate(self.edges):
            r = self.edge_index.get((head, tail))
            if r is not None and k < r:
                pairs.append((k, r))
        return tuple(pairs)

    def reverse_of(self, k: int) -> int | None:
        """Index of the reversed copy of edge k, if present."""
        tail, head = self.edges[k]
        return self.edge_index.get((head, tail))


def parse_edge_list(text: str, mode_override: str | None = None) -> DirectedGraph:
    """Parse the plain edge-list format.

    Lines are stripped; '#' starts a comment; blank lines are skipped.  The
    first data line must be 'n=<count>'; an optional 'mode=oriented' or
    'mode=symmetric' line may follow; every remaining data line is
    '<tail> <head>'.  mode_override replaces the declared (or default) mode
    before validation runs.
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
                num_vertices = int(line[2:].strip())
            except ValueError:
                raise MalformedLine(f"line {lineno}: bad vertex count in {line!r}") from None
            continue
        if line.startswith("mode="):
            if mode_seen or edges:
                raise MalformedLine(f"line {lineno}: mode line must come before edges")
            mode = line[5:].strip()
            if mode not in MODES:
                raise MalformedLine(f"line {lineno}: unknown mode {mode!r}")
            mode_seen = True
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(f"line {lineno}: expected '<tail> <head>', got {line!r}")
        try:
            tail, head = int(parts[0]), int(parts[1])
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
    seen = [False] * graph.num_vertices
    comps: list[list[int]] = []
    for start in range(graph.num_vertices):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in graph.undirected_neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


@dataclass(frozen=True)
class SpanningTree:
    """BFS spanning tree of one component, plus the global leftover edges.

    tree_edges are edge indices whose underlying undirected edges form the
    tree; for a reciprocal pair the lower index represents the pair.
    parent maps each non-root tree vertex to its BFS parent.  non_tree_edges
    are all remaining edge indices in the whole graph, with the convention
    that the higher half of a reciprocal pair used by the tree also counts
    as non-tree only through its partner entry in `partner`.
    """

    root: int
    vertices: tuple[int, ...]
    parent: dict[int, int]
    parent_edge: dict[int, int]
    tree_edges: tuple[int, ...]
    non_tree_edges: tuple[int, ...]
    partner: dict[int, int]


def spanning_tree(graph: DirectedGraph, root: int = 0) -> SpanningTree:
    """Breadth-first spanning tree of the component containing root.

    Undirected view: a reciprocal pair counts as one edge, represented by
    the smaller index.  Neighbor exploration is in ascending vertex order,
    so the tree is deterministic.  non_tree_edges lists every edge index of
    the graph (all components) that is neither a tree representative nor
    the partner of one; partners are reported in `partner` instead.
    """
    if not (0 <= root < graph.num_vertices):
        raise IndexOutOfRange(f"root {root} out of range")
    # undirected incidence: vertex -> sorted (neighbor, representative edge index)
    incident: list[dict[int, int]] = [{} for _ in range(graph.num_vertices)]
    partner: dict[int, int] = {}
    for k, r in graph.reciprocal_pairs:
        partner[k] = r
        partner[r] = k
    for k, (tail, head) in enumerate(graph.edges):
        rep = min(k, partner[k]) if k in partner else k
        for a, b in ((tail, head), (head, tail)):
            if b not in incident[a] or rep < incident[a][b]:
                incident[a][b] = rep
    parent: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(incident[v]):
            if w in seen:
                continue
            seen.add(w)
            parent[w] = v
            parent_edge[w] = incident[v][w]
            order.append(w)
            queue.append(w)
    tree = set(parent_edge.values())
    non_tree = tuple(
        k
        for k in range(graph.num_edges)
        if k not in tree and not (k in partner and partner[k] in tree)
    )
    return SpanningTree(
        root=root,
        vertices=tuple(order),
        parent=parent,
        parent_edge=parent_edge,
        tree_edges=tuple(sorted(tree)),
        non_tree_edges=non_tree,
        partner=partner,
    )


@dataclass(frozen=True)
class BfsLayers:
    """Distance layers around a root: layer k holds vertices at graph distance k."""

    root: int
    layers: tuple[tuple[int, ...], ...]
    distance: dict[int, int]


def bfs_spheres(graph: DirectedGraph, root: int = 0) -> BfsLayers:
    """Concentric spheres of the undirected distance from root."""
    if not (0 <= root < graph.num_vertices):
        raise IndexOutOfRange(f"root {root} out of range")
    distance = {root: 0}
    layers: list[list[int]] = [[root]]
    frontier = [root]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in graph.undirected_neighbors[v]:
                if w not in distance:
                    distance[w] = distance[v] + 1
                    nxt.append(w)
        if nxt:
            layers.append(sorted(nxt))
        frontier = sorted(nxt)
    return BfsLayers(root=root, layers=tuple(tuple(l) for l in layers), distance=distance)
