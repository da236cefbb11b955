"""Seeded inputs for the benchmark workloads.

A run is made of whole passes.  Each pass of a generated workload draws
one graph for every cell of the workload's fixed design, a list of
(n, p, mode) that spans the size range; the seed picks the edges and the
order of the cells, so the same seed gives the same inputs and another
seed gives other graphs of the same sizes.  Op cost grows steeply with
size, and drawing the sizes at random as well would make throughput and
percentiles swing from seed to seed with how many large graphs a run
happened to get.  Because every pass has the same sizes, the metrics do
not depend on how many passes fit in a run either.

The benchmark owns its generators, so a change to the package's own
``rand`` module never changes what the benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ORIENTED = "oriented"
SYMMETRIC = "symmetric"


def _latin(cells: int, lo: float, hi: float, stride: int = 1) -> list[float]:
    """`cells` stratum midpoints of [lo, hi], visited with a stride coprime to `cells`."""
    return [lo + (hi - lo) * ((stride * i) % cells + 0.5) / cells for i in range(cells)]


@dataclass(frozen=True)
class Case:
    """One op's input: the edge-list text and the sizes it encodes."""

    label: str
    text: str
    num_vertices: int
    num_edges: int
    hamiltonian_nnz: int


def _case(label: str, n: int, edges: list[tuple[int, int]], mode: str) -> Case:
    lines = [f"n={n}", f"mode={mode}"]
    lines.extend(f"{tail} {head}" for tail, head in edges)
    text = "\n".join(lines) + "\n"
    return Case(label, text, n, len(edges), hamiltonian_nnz(n, edges))


def _pass_order(workload: str, seed: int, pass_no: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"susygraph-bench:{workload}:{seed}:{pass_no}").shuffle(order)
    return order


def _pick(rng: random.Random, candidates: list[tuple[int, int]], fraction: float) -> list[tuple[int, int]]:
    """Exactly round(fraction * len(candidates)) of the candidates, in candidate order.

    A fixed count, rather than a coin per candidate, gives every draw of a
    design cell the same number of edges, so only which edges varies.
    """
    chosen = rng.sample(range(len(candidates)), round(fraction * len(candidates)))
    return [candidates[i] for i in sorted(chosen)]


def _dense(rng: random.Random, n: int, p: float, mode: str) -> list[tuple[int, int]]:
    """Criterion-1 style: a share p of the ordered pairs, or of the unordered pairs in both directions."""
    if mode == ORIENTED:
        return _pick(rng, [(a, b) for a in range(n) for b in range(n) if a != b], p)
    pairs = _pick(rng, [(a, b) for a in range(n) for b in range(a + 1, n)], p)
    return [e for a, b in pairs for e in ((a, b), (b, a))]


def _simple(rng: random.Random, n: int, p: float, mode: str) -> list[tuple[int, int]]:
    """A share p of the unordered pairs, each oriented at random."""
    pairs = _pick(rng, [(a, b) for a in range(n) for b in range(a + 1, n)], p)
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs]


def _near_tree(rng: random.Random, n: int, p: float, mode: str) -> list[tuple[int, int]]:
    """A uniform-attachment tree with random edge directions, plus a share p of the other ordered pairs."""
    tree = []
    for v in range(1, n):
        u = rng.randrange(v)
        tree.append((u, v) if rng.random() < 0.5 else (v, u))
    present = set(tree)
    others = [(a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in present]
    return tree + _pick(rng, others, p)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the susygraph subcommand every op runs
    tail_percentile: float  # leaves at least 10 samples above it in a run at the baseline
    design: tuple[tuple[int, float, str], ...] = ()  # (n, p, mode) of each op in a pass
    draw: Callable[[random.Random, int, float, str], list[tuple[int, int]]] | None = None


# Why each workload exists is recorded in BENCHMARK.json; each puts a different
# layer on top, so a change to one layer shows on one workload and not the others.
WORKLOADS = {
    w.name: w
    for w in (
        # criterion 1's population: exact algebra is the whole cost.  Op costs here differ
        # by orders of magnitude, so each cell's ops form a cluster of latencies: with an
        # odd number of cells the median falls inside the middle cell's cluster, not in the
        # gap between two clusters, and p73 inside the tenth cell's.
        Workload(
            "check_population",
            "check",
            73.0,
            tuple(
                (round(n), p, ORIENTED if i % 2 == 0 else SYMMETRIC)
                for i, (n, p) in enumerate(zip(_latin(13, 2, 60), _latin(13, 0.05, 0.5, 5)))
            ),
            _dense,
        ),
        # dense eigensolvers dominate; no exact algebra runs
        Workload(
            "spectrum_dense",
            "spectrum",
            80.0,
            tuple((round(n), p, ORIENTED) for n, p in zip(_latin(16, 40, 70), _latin(16, 0.15, 0.3, 7))),
            _simple,
        ),
        # about n/2 chords on a spanning tree: exact kernel elimination dominates
        Workload(
            "report_sparse",
            "report",
            75.0,
            tuple(
                (round(n), c / n, ORIENTED)
                for n, c in zip(_latin(10, 50, 100), _latin(10, 0.25, 0.75, 3))
            ),
            _near_tree,
        ),
        # a fresh interpreter per op on the example graphs: start-up and import dominate
        Workload("cli_cold", "report", 80.0),
    )
}


def generate(workload: Workload, seed: int, index: int) -> Case:
    """Case `index` of a generated workload: pass index // len(design), in seeded cell order."""
    pass_no, pos = divmod(index, len(workload.design))
    cell = _pass_order(workload.name, seed, pass_no, len(workload.design))[pos]
    n, p, mode = workload.design[cell]
    rng = random.Random(f"susygraph-bench:{workload.name}:{seed}:{pass_no}:{cell}")
    edges = workload.draw(rng, n, p, mode)
    return _case(f"{workload.name}-{seed}-{index}", n, edges, mode)


def example_graphs(root: Path) -> list[Path]:
    """The example edge lists shipped with the repository, in a fixed order."""
    return sorted((root / "graphs").glob("*.txt"))


def cli_order(paths: list[Path], seed: int, index: int) -> Path:
    """File for op `index` of cli_cold: every pass visits each file once, in seeded order."""
    pass_no, pos = divmod(index, len(paths))
    return paths[_pass_order("cli_cold", seed, pass_no, len(paths))[pos]]


def read_case(path: Path) -> Case:
    """An example edge-list file as a Case; the file's own text is kept verbatim."""
    text = path.read_text(encoding="utf-8")
    n, edges = 0, []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("n="):
            n = int(line[2:])
        elif line and "=" not in line:
            tail, head = line.split()
            edges.append((int(tail), int(head)))
    return Case(path.stem, text, n, len(edges), hamiltonian_nnz(n, edges))


def hamiltonian_nnz(n: int, edges: list[tuple[int, int]]) -> int:
    """Nonzeros of H = diag(d* d, d d*), counted from the graph alone.

    d* d has a diagonal entry per non-isolated vertex and an off-diagonal
    entry per ordered pair of adjacent vertices.  d d* has every diagonal
    entry and an entry per ordered pair of distinct edges sharing a vertex;
    a reciprocal pair shares both endpoints, and is counted once.
    """
    degree = [0] * n
    for tail, head in edges:
        degree[tail] += 1
        degree[head] += 1
    adjacent = {frozenset(e) for e in edges}
    reciprocal = len(edges) - len(adjacent)
    vertex_block = sum(1 for d in degree if d) + 2 * len(adjacent)
    edge_block = len(edges) + sum(d * (d - 1) for d in degree) - 2 * reciprocal
    return vertex_block + edge_block
