"""Incidence, degree/adjacency, Laplacians, super package: oracle values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from conftest import directed_graphs
from susygraph.graph import DirectedGraph, GraphFormatError, symmetrize
from susygraph.linalg import LinearMap, StateVector, exact_kernel_basis
from susygraph.operators import (
    IncidenceOperators,
    adjacency_direct,
    build_incidence,
    build_super_operators,
    build_vertex_operators,
    degree_in_direct,
    degree_out_direct,
    laplacian_direct,
    laplacian_stencil_apply,
    path_graph,
    path_second_difference_ok,
)

K2 = DirectedGraph(2, ((0, 1),))
C3 = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
PAIR = DirectedGraph(2, ((0, 1), (1, 0)))


def pair_difference_state(inc, i: int, j: int) -> StateVector:
    """The antisymmetric combination of the two directions between i and j.

    On a graph carrying both edges i->j and j->i this is the edge function
    with +1 on the former and -1 on the latter, the natural basis vector
    of the unoriented picture.
    """
    g = inc.graph
    forward = g.edge_index.get((i, j))
    backward = g.edge_index.get((j, i))
    if forward is None or backward is None:
        raise GraphFormatError(f"graph lacks a reciprocal pair between {i} and {j}")
    coeffs = [0] * g.num_edges
    coeffs[forward] = 1
    coeffs[backward] = -1
    return StateVector.from_values(inc.edge, coeffs)


def dense(m):
    return m.to_dense().real


def test_k2_incidence_row():
    inc = build_incidence(K2)
    # the single edge row is -1 at the tail, +1 at the head
    assert inc.diff.entries() == [(0, 0, -1, 0), (0, 1, 1, 0)]
    assert inc.d_head.entries() == [(0, 1, 1, 0)]
    assert inc.d_tail.entries() == [(0, 0, 1, 0)]


def test_adjoint_sends_edge_to_endpoint_difference():
    inc = build_incidence(K2)
    e = StateVector.basis(inc.edge, 0)
    out = inc.diff_adj.apply(e).coefficients
    assert np.array_equal(out, np.array([-1.0, 1.0]))  # head minus tail


def test_difference_on_path():
    g = path_graph(3)
    inc = build_incidence(g)
    f = StateVector.from_values(inc.vertex, [5.0, 7.0, 2.0])
    out = inc.diff.apply(f).coefficients
    assert np.array_equal(out, np.array([2.0, -5.0]))  # f1-f0, f2-f1


@given(directed_graphs(max_vertices=8))
def test_incidence_entries_are_signs(g):
    inc = build_incidence(g)
    for r, c, re, im in inc.diff.entries():
        assert im == 0 and re in (-1, 1)
        tail, head = g.edges[r]
        assert (c, re) in ((tail, -1), (head, 1))
    assert inc.diff == inc.d_head - inc.d_tail
    assert inc.diff_adj == inc.d_head.adjoint() - inc.d_tail.adjoint()
    # built in canonical form: a rebuild that sorts and sums its entries is equal
    for m in (inc.d_head, inc.d_tail):
        assert m == LinearMap.from_entries(m.domain, m.codomain, m.entries())


def test_k2_laplacian():
    vops = build_vertex_operators(build_incidence(K2))
    assert np.array_equal(dense(vops.laplacian), np.array([[1, -1], [-1, 1]]))


def test_pair_operators():
    vops = build_vertex_operators(build_incidence(PAIR))
    assert np.array_equal(dense(vops.adj), np.array([[0, 2], [2, 0]]))
    assert np.array_equal(dense(vops.deg), 2 * np.eye(2))
    assert np.array_equal(dense(vops.laplacian), np.array([[2, -2], [-2, 2]]))


def test_c3_operators():
    vops = build_vertex_operators(build_incidence(C3))
    assert np.array_equal(dense(vops.deg), 2 * np.eye(3))
    assert np.array_equal(dense(vops.adj), np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(dense(vops.laplacian), 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))
    assert np.array_equal(dense(vops.deg_in), np.eye(3))
    assert np.array_equal(dense(vops.deg_out), np.eye(3))


@given(directed_graphs(max_vertices=8))
def test_factorizations_match_direct_counts(g):
    inc = build_incidence(g)
    vops = build_vertex_operators(inc)
    assert vops.deg_in == degree_in_direct(g)
    assert vops.deg_out == degree_out_direct(g)
    assert vops.adj == adjacency_direct(g)
    assert vops.adj.is_self_adjoint()
    assert vops.laplacian == laplacian_direct(g)
    assert vops.laplacian == inc.diff_adj @ inc.diff
    assert vops.laplacian.is_self_adjoint()


@given(directed_graphs(shuffled=True))
def test_ker_diff_is_the_exact_kernel_basis(g):
    # polar's kernel projector is built from these vectors, so order and key order must hold
    inc = build_incidence(g)
    reference = exact_kernel_basis(inc.diff)
    assert [list(v.items()) for v in inc.ker_diff] == [list(v.items()) for v in reference]


@given(directed_graphs(max_vertices=8))
def test_laplacian_rows_sum_to_zero(g):
    vops = build_vertex_operators(build_incidence(g))
    assert np.array_equal(
        dense(vops.laplacian) @ np.ones(g.num_vertices), np.zeros(g.num_vertices)
    )


def test_k2_edge_laplacian_is_two():
    inc = build_incidence(K2)
    assert inc.edge_laplacian.entries() == [(0, 0, 2, 0)]


def test_edge_laplacian_symmetric_psd():
    for g in (K2, C3, PAIR, symmetrize(C3)):
        el = build_incidence(g).edge_laplacian
        assert el.is_self_adjoint()
        assert np.linalg.eigvalsh(el.to_dense_real()).min() >= -1e-10


def test_path_second_difference_pattern():
    assert path_second_difference_ok(50)
    rows = build_incidence(path_graph(5)).edge_laplacian.to_dense_real()
    assert rows[1].tolist() == [-1, 2, -1, 0]
    assert rows[0].tolist() == [2, -1, 0, 0]
    assert rows[3].tolist() == [0, 0, -1, 2]


@pytest.mark.parametrize("num_vertices", [1, 2, 3, 50])
def test_path_second_difference_ok_on_short_paths(num_vertices):
    assert path_second_difference_ok(num_vertices)


@pytest.mark.parametrize("corrupt", ["drop_entry", "scale", "shift"])
def test_path_second_difference_fails_on_corrupted_laplacian(corrupt, monkeypatch):
    lap = build_incidence(path_graph(50)).edge_laplacian
    if corrupt == "drop_entry":
        bad = LinearMap.from_entries(lap.domain, lap.codomain, lap.entries()[1:])
    elif corrupt == "scale":
        bad = lap.scale(2)
    else:
        bad = lap + LinearMap.from_entries(lap.domain, lap.codomain, [(10, 30, 1, 0)])
    monkeypatch.setattr(IncidenceOperators, "edge_laplacian", property(lambda inc: bad))
    assert not path_second_difference_ok(50)


@given(directed_graphs(max_vertices=9))
def test_vertex_stencil_matches_operator(g):
    rng = np.random.default_rng(1)
    vops = build_vertex_operators(build_incidence(g))
    f = rng.normal(size=g.num_vertices)
    via_op = dense(vops.laplacian) @ f
    via_stencil = laplacian_stencil_apply(g, f).real
    assert np.max(np.abs(via_op - via_stencil)) < 1e-12


def edge_by_edge_stencil(g, values):
    """Reference for laplacian_stencil_apply: the same sums, one edge at a time."""
    out = [0j] * g.num_vertices
    for tail, head in g.edges:
        out[tail] -= values[head] - values[tail]
        out[head] -= values[tail] - values[head]
    return np.array(out)


@given(directed_graphs(max_vertices=9))
def test_vertex_stencil_matches_edge_by_edge_reference(g):
    rng = np.random.default_rng(2)
    ints = [complex(v) for v in rng.integers(-1000, 1001, size=g.num_vertices)]
    # small integer sums are exact in either order
    assert np.array_equal(laplacian_stencil_apply(g, ints), edge_by_edge_stencil(g, ints))
    values = rng.normal(size=g.num_vertices) + 1j * rng.normal(size=g.num_vertices)
    got = laplacian_stencil_apply(g, values)
    assert np.max(np.abs(got - edge_by_edge_stencil(g, values)), initial=0.0) < 1e-12


def test_super_operator_blocks_k2():
    sup = build_super_operators(build_incidence(K2))
    q1 = sup.q1.to_dense().real
    assert np.array_equal(q1, np.array([[0, 0, -1], [0, 0, 1], [-1, 1, 0]]))
    chi = sup.grading.to_dense().real
    assert np.array_equal(chi, np.diag([1, 1, -1]))
    q2 = sup.q2.to_dense()
    assert np.array_equal(q2, np.array([[0, 0, -1j], [0, 0, 1j], [1j, -1j, 0]]))
    ham = sup.hamiltonian.to_dense().real
    assert np.array_equal(ham, np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 2]]))


@given(directed_graphs(max_vertices=7))
def test_super_blocks_agree_with_parts(g):
    inc = build_incidence(g)
    sup = build_super_operators(inc)
    n, m = g.num_vertices, g.num_edges
    d = sup.q_plus.to_dense()[n:, :n]
    assert np.array_equal(d, inc.diff.to_dense())
    d_adj = sup.q_minus.to_dense()[:n, n:]
    assert np.array_equal(d_adj, inc.diff_adj.to_dense())
    assert np.array_equal(
        sup.hamiltonian.to_dense()[:n, :n], (inc.diff_adj @ inc.diff).to_dense()
    )
    assert np.array_equal(
        sup.hamiltonian.to_dense()[n:, n:], (inc.diff @ inc.diff_adj).to_dense()
    )
    # grading application flips only the edge block
    v = StateVector.from_values(sup.super, np.arange(1, n + m + 1, dtype=float))
    flipped = sup.grading.apply(v).coefficients
    assert np.array_equal(flipped[:n], v.coefficients[:n])
    assert np.array_equal(flipped[n:], -v.coefficients[n:])


def test_projectors_pick_blocks():
    sup = build_super_operators(build_incidence(C3))
    v = StateVector.from_values(sup.super, [1, 2, 3, 4, 5, 6])
    assert np.array_equal(sup.proj_bosonic.apply(v).coefficients, [1, 2, 3, 0, 0, 0])
    assert np.array_equal(sup.proj_fermionic.apply(v).coefficients, [0, 0, 0, 4, 5, 6])


@given(directed_graphs(max_vertices=7))
def test_grading_and_projectors_match_entry_lists(g):
    sup = build_super_operators(build_incidence(g))
    n, s = g.num_vertices, sup.super
    diagonal = [(i, i, 1 if i < n else -1, 0) for i in range(s.dim)]
    assert sup.grading == LinearMap.from_entries(s, s, diagonal)
    assert sup.proj_bosonic == LinearMap.from_entries(s, s, [(i, i, 1, 0) for i in range(n)])
    fermionic = [(i, i, 1, 0) for i in range(n, s.dim)]
    assert sup.proj_fermionic == LinearMap.from_entries(s, s, fermionic)


def test_pair_difference_state():
    inc = build_incidence(PAIR)
    b = pair_difference_state(inc, 0, 1)
    assert np.array_equal(b.coefficients, np.array([1.0, -1.0]))
    # the adjoint doubles the endpoint difference on the antisymmetric combination
    assert np.array_equal(inc.diff_adj.apply(b).coefficients, np.array([-2.0, 2.0]))
    # while the symmetric combination is the length-two cycle
    two_cycle = StateVector.from_values(inc.edge, [1.0, 1.0])
    assert np.array_equal(inc.diff_adj.apply(two_cycle).coefficients, np.zeros(2))
    with pytest.raises(GraphFormatError):
        pair_difference_state(build_incidence(K2), 0, 1)
