"""Shared strategies and fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from susygraph.graph import ORIENTED, SYMMETRIC, DirectedGraph, symmetrize
from susygraph.rand import random_connected_graph, random_graph


@st.composite
def directed_graphs(draw, min_vertices=1, max_vertices=10, mode=None, shuffled=False):
    """A random valid graph; mode=None draws oriented or symmetric.

    Edges come sorted by (tail, head) unless shuffled draws their order too.
    """
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    which = draw(st.sampled_from([ORIENTED, SYMMETRIC])) if mode is None else mode
    if which == SYMMETRIC:
        unordered = [(a, b) for a, b in pairs if a < b]
        chosen = draw(st.sets(st.sampled_from(unordered))) if unordered else set()
        graph = symmetrize(DirectedGraph(n, tuple(sorted(chosen)), ORIENTED))
    else:
        chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        graph = DirectedGraph(n, tuple(sorted(chosen)), ORIENTED)
    if shuffled:
        graph = DirectedGraph(n, tuple(draw(st.permutations(graph.edges))), graph.mode)
    return graph


@st.composite
def connected_graphs(draw, min_vertices=2, max_vertices=10, mode=ORIENTED):
    """A random connected graph built from a seeded generator."""
    n = draw(st.integers(min_vertices, max_vertices))
    seed = draw(st.integers(0, 2**32 - 1))
    extra = draw(st.floats(0.0, 0.4))
    return random_connected_graph(random.Random(seed), n, extra, mode)


@pytest.fixture(scope="session")
def acceptance_graphs():
    """The fixed population shared by several acceptance criteria."""
    rng = random.Random(20260814)
    graphs = []
    for i in range(200):
        n = rng.randint(2, 60)
        p = rng.uniform(0.05, 0.5)
        mode = ORIENTED if i % 2 == 0 else SYMMETRIC
        graphs.append(random_graph(rng, n, p, mode))
    return graphs
