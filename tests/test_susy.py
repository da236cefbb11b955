"""Exact verification of the supercharge algebra and grading relations."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import directed_graphs
from susygraph.graph import DirectedGraph, reorient
from susygraph.linalg import LinearMap, anticommutator, commutator
from susygraph.operators import build_incidence, build_super_operators, build_vertex_operators
from susygraph.rand import random_reorientation
from susygraph.susy import (
    AlgebraReport,
    RelationCheck,
    verify_factorizations,
    verify_grading,
    verify_superalgebra,
)

SUPER_RELATIONS = 18
GRADING_RELATIONS = 13
C3 = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
# "X and q1, q2" changes charge X and rebuilds q1 and q2 from the nilpotent
# pair, so the defining relations hold and the shared products are used.
CORRUPTIBLE = (
    "q1",
    "q2",
    "q_plus",
    "q_minus",
    "hamiltonian",
    "q_plus and q1, q2",
    "q_minus and q1, q2",
)


def reference_superalgebra(sup) -> AlgebraReport:
    """Every superalgebra relation from its own direct products (16 of them)."""

    def direct(name, lhs, rhs):
        diff = lhs - rhs
        return RelationCheck(name=name, holds=diff.is_zero(), residual=diff.max_abs())

    q1, q2 = sup.q1, sup.q2
    qp, qm = sup.q_plus, sup.q_minus
    ham = sup.hamiltonian
    zero = LinearMap.zero(sup.super, sup.super)
    checks = [
        direct("q_plus squares to zero", qp @ qp, zero),
        direct("q_minus squares to zero", qm @ qm, zero),
        direct("q_plus, q_minus anticommute to hamiltonian", anticommutator(qp, qm), ham),
        direct("q1 squares to hamiltonian", q1 @ q1, ham),
        direct("q2 squares to hamiltonian", q2 @ q2, ham),
        direct("q1, q2 anticommute", anticommutator(q1, q2), zero),
        direct("hamiltonian commutes with q_plus", commutator(ham, qp), zero),
        direct("hamiltonian commutes with q_minus", commutator(ham, qm), zero),
        direct("hamiltonian commutes with q1", commutator(ham, q1), zero),
        direct("hamiltonian commutes with q2", commutator(ham, q2), zero),
        direct("q1 is q_plus + q_minus", qp + qm, q1),
        direct("q2 is i(q_minus - q_plus)", (qm - qp).scale((0, 1)), q2),
        direct("q_plus recovered by halving", (q1 + q2.scale((0, 1))).halved(), qp),
        direct("q_minus recovered by halving", (q1 - q2.scale((0, 1))).halved(), qm),
        direct("q1 self-adjoint", q1.adjoint(), q1),
        direct("q2 self-adjoint", q2.adjoint(), q2),
        direct("q_plus adjoint is q_minus", qp.adjoint(), qm),
        direct("hamiltonian self-adjoint", ham.adjoint(), ham),
    ]
    return AlgebraReport(checks=tuple(checks))


def verdicts(rep: AlgebraReport) -> list[tuple[str, bool, int]]:
    return [(c.name, c.holds, c.residual) for c in rep.checks]


def corrupted(sup, name: str, row: int, col: int, delta: int):
    """sup with delta (even, so halving stays exact) added at one entry of one operator."""
    target = name.split()[0]
    op = getattr(sup, target)
    dim = sup.super.dim
    extra = [(row % dim, col % dim, delta, 0)]
    changed = LinearMap.from_entries(op.domain, op.codomain, op.entries() + extra)
    sup = dataclasses.replace(sup, **{target: changed})
    if target == name:
        return sup
    qp, qm = sup.q_plus, sup.q_minus
    return dataclasses.replace(sup, q1=qp + qm, q2=(qm - qp).scale((0, 1)))


def reports_for(g: DirectedGraph):
    inc = build_incidence(g)
    sup = build_super_operators(inc)
    return (
        verify_superalgebra(sup),
        verify_grading(sup),
        verify_factorizations(inc),
    )


def assert_all_exact(g: DirectedGraph):
    alg, gra, fact = reports_for(g)
    assert len(alg.checks) == SUPER_RELATIONS
    assert len(gra.checks) == GRADING_RELATIONS
    for rep in (alg, gra, fact):
        assert rep.all_hold, [c.name for c in rep.failed()]
        assert all(c.residual == 0 for c in rep.checks)
        assert rep.failed() == []


def test_k2_all_relations_exact():
    assert_all_exact(DirectedGraph(2, ((0, 1),)))


def test_c3_all_relations_exact():
    assert_all_exact(C3)


def test_edgeless_graph_trivially_passes():
    assert_all_exact(DirectedGraph(3, ()))


def test_seeded_random_graph_passes():
    from susygraph.rand import random_graph

    g = random_graph(random.Random(1), 30, 0.2)
    assert_all_exact(g)


def test_relation_names_and_lookup():
    alg, gra, _ = reports_for(DirectedGraph(2, ((0, 1),)))
    c = alg.by_name("q_plus squares to zero")
    assert c.holds and c.residual == 0
    assert gra.by_name("grading squares to identity").holds
    try:
        alg.by_name("no such relation")
    except KeyError:
        pass
    else:
        raise AssertionError("expected KeyError")


@settings(max_examples=60)
@given(directed_graphs(max_vertices=10))
def test_all_relations_exact_on_random_graphs(g):
    assert_all_exact(g)


@settings(max_examples=25)
@given(directed_graphs(min_vertices=2, max_vertices=8, mode="oriented"), st.integers(0, 2**31))
def test_relations_invariant_under_reorientation(g, seed):
    flips = random_reorientation(random.Random(seed), g)
    assert_all_exact(reorient(g, flips))


@settings(max_examples=25)
@given(directed_graphs(min_vertices=2, max_vertices=8), st.randoms(use_true_random=False))
def test_relations_invariant_under_relabeling(g, rng):
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    relabeled = DirectedGraph(
        g.num_vertices,
        tuple((perm[t], perm[h]) for t, h in g.edges),
        g.mode,
    )
    assert_all_exact(relabeled)


def test_laplacian_exactly_invariant_under_reorientation():
    g = DirectedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    vops = build_vertex_operators(build_incidence(g))
    for flips in ([0], [1, 3], [0, 1, 2, 3, 4]):
        flipped = reorient(g, flips)
        vops2 = build_vertex_operators(build_incidence(flipped))
        assert vops2.laplacian == vops.laplacian


@settings(max_examples=60)
@given(directed_graphs(max_vertices=10))
def test_superalgebra_matches_direct_products(g):
    sup = build_super_operators(build_incidence(g))
    assert verdicts(verify_superalgebra(sup)) == verdicts(reference_superalgebra(sup))


@pytest.mark.parametrize("delta", [2, -4, 2**63])
@pytest.mark.parametrize("at", [(0, 3), (3, 0), (1, 1), (4, 5)])
@pytest.mark.parametrize("name", CORRUPTIBLE)
def test_corrupted_superalgebra_matches_direct_products(name, at, delta):
    sup = corrupted(build_super_operators(build_incidence(C3)), name, *at, delta)
    got = verdicts(verify_superalgebra(sup))
    assert got == verdicts(reference_superalgebra(sup))
    assert any(not holds and residual > 0 for _, holds, residual in got)
    defined = {n: holds for n, holds, _ in got if n.startswith(("q1 is", "q2 is"))}
    assert all(defined.values()) == (name not in ("q1", "q2", "q_plus", "q_minus"))
    if delta == 2**63:
        assert max(residual for _, _, residual in got) >= 2**62


@settings(max_examples=60, deadline=None)
@given(
    directed_graphs(min_vertices=2, max_vertices=8),
    st.sampled_from(CORRUPTIBLE),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
    st.sampled_from([2, -2, 6, 2**62, -(2**63), 2**70]),
)
def test_corrupted_random_superalgebra_matches_direct_products(g, name, row, col, delta):
    sup = corrupted(build_super_operators(build_incidence(g)), name, row, col, delta)
    assert verdicts(verify_superalgebra(sup)) == verdicts(reference_superalgebra(sup))


@pytest.fixture
def products(monkeypatch):
    """The operand sizes of every exact product formed while the test runs."""
    formed = []
    matmul = LinearMap.__matmul__

    def counted(self, other):
        formed.append((self.nnz, other.nnz))
        return matmul(self, other)

    monkeypatch.setattr(LinearMap, "__matmul__", counted)
    return formed


# [H, q_minus] is derived from [H, q_plus] only while H* = H and q_minus = q_plus*;
# q_minus alone also leaves q1, q2 undefined, so they take 8 direct products more.
@pytest.mark.parametrize(
    "corruption, count",
    [
        (None, 6),
        (("hamiltonian", 0, 3, 2), 8),
        (("q_minus and q1, q2", 4, 1, 2), 8),
        (("q_minus", 4, 1, 2), 16),
    ],
    ids=["exact", "hamiltonian_not_self_adjoint", "q_minus_not_adjoint", "q_minus_alone"],
)
def test_superalgebra_product_count(corruption, count, products):
    sup = build_super_operators(build_incidence(C3))
    if corruption:
        sup = corrupted(sup, *corruption)
    products.clear()
    assert verify_superalgebra(sup).all_hold == (corruption is None)
    assert len(products) == count


def test_grading_product_count(products):
    # chi q1 serves both "anticommutes with q1" and "q2 is i * grading * q1".
    sup = build_super_operators(build_incidence(C3))
    products.clear()
    assert verify_grading(sup).all_hold
    assert len(products) == 14


@pytest.mark.parametrize("delta", [2, -4, 2**63])
@pytest.mark.parametrize("at", [(0, 3), (1, 2), (4, 5), (5, 1)])
def test_self_adjoint_hamiltonian_corruption_uses_derived_commutator(at, delta, products):
    sup = build_super_operators(build_incidence(C3))
    sup = corrupted(corrupted(sup, "hamiltonian", *at, delta), "hamiltonian", *at[::-1], delta)
    assert sup.hamiltonian.is_self_adjoint()
    products.clear()
    got = verdicts(verify_superalgebra(sup))
    assert len(products) == 6
    assert got == verdicts(reference_superalgebra(sup))
    residual = {name: r for name, _, r in got}
    assert residual["hamiltonian commutes with q_minus"] > 0
    assert residual["hamiltonian commutes with q_minus"] == residual["hamiltonian commutes with q_plus"]


def reference_grading(sup) -> AlgebraReport:
    """The grading relations as commutators and anticommutators checked against zero."""

    def direct(name, lhs, rhs):
        diff = lhs - rhs
        return RelationCheck(name=name, holds=diff.is_zero(), residual=diff.max_abs())

    chi = sup.grading
    p0, p1 = sup.proj_bosonic, sup.proj_fermionic
    ident = LinearMap.identity(sup.super)
    zero = LinearMap.zero(sup.super, sup.super)
    checks = [
        direct("grading squares to identity", chi @ chi, ident),
        direct("grading self-adjoint", chi.adjoint(), chi),
        direct("bosonic projector idempotent", p0 @ p0, p0),
        direct("fermionic projector idempotent", p1 @ p1, p1),
        direct("projectors orthogonal", p0 @ p1, zero),
        direct("projectors complete", p0 + p1, ident),
        direct("projectors recover grading", p0 - p1, chi),
        direct("grading anticommutes with q1", anticommutator(chi, sup.q1), zero),
        direct("grading anticommutes with q2", anticommutator(chi, sup.q2), zero),
        direct("grading anticommutes with q_plus", anticommutator(chi, sup.q_plus), zero),
        direct("grading anticommutes with q_minus", anticommutator(chi, sup.q_minus), zero),
        direct("grading commutes with hamiltonian", commutator(chi, sup.hamiltonian), zero),
        direct("q2 is i * grading * q1", (chi @ sup.q1).scale((0, 1)), sup.q2),
    ]
    return AlgebraReport(checks=tuple(checks))


@pytest.mark.parametrize("delta", [2, -4, 2**63])
@pytest.mark.parametrize("at", [(0, 3), (3, 0), (1, 1), (4, 5)])
@pytest.mark.parametrize("name", ["grading", "q2", "hamiltonian"])
def test_corrupted_grading_matches_commutator_form(name, at, delta):
    sup = build_super_operators(build_incidence(C3))
    assert verdicts(verify_grading(sup)) == verdicts(reference_grading(sup))
    sup = corrupted(sup, name, *at, delta)
    got = verdicts(verify_grading(sup))
    assert got == verdicts(reference_grading(sup))
    # c3 has 3 vertices; a change inside a parity block of H still commutes with chi
    invisible = name == "hamiltonian" and (at[0] < 3) == (at[1] < 3)
    assert any(not holds and residual > 0 for _, holds, residual in got) != invisible
