"""Exact verification of the supersymmetry algebra.

Each relation is checked as an identity between exactly computed integer
maps; the reported residual is the largest absolute entry component of the
difference, so a passing relation has residual exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import LinearMap, anticommutator
from .operators import IncidenceOperators, SuperOperators, adjacency_direct, degree_in_direct, degree_out_direct


@dataclass(frozen=True)
class RelationCheck:
    """One verified operator identity."""

    name: str
    holds: bool
    residual: int

    @classmethod
    def of(cls, name: str, lhs: LinearMap, rhs: LinearMap) -> "RelationCheck":
        diff = _difference(lhs, rhs)
        return cls(name=name, holds=diff.is_zero(), residual=diff.max_abs())


def _difference(lhs: LinearMap, rhs: LinearMap) -> LinearMap:
    """lhs - rhs, without canonicalising it when the maps are equal.

    Canonical form makes == exact, so equal maps have the zero difference;
    most relations hold, and this skips sorting terms that all cancel.
    """
    return LinearMap.zero(lhs.domain, lhs.codomain) if lhs == rhs else lhs - rhs


@dataclass(frozen=True)
class AlgebraReport:
    """All checked relations; all_hold summarizes them."""

    checks: tuple[RelationCheck, ...] = field(default_factory=tuple)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def failed(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.holds]

    def by_name(self, name: str) -> RelationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_superalgebra(sup: SuperOperators) -> AlgebraReport:
    """The closed system of supercharge relations, checked exactly.

    The nilpotent charges square to zero, their anticommutator is the
    hamiltonian, the hermitian charges square to the hamiltonian and
    anticommute with each other, both commute with the hamiltonian, and
    the hermitian and nilpotent charges determine each other by exact
    halving.  The hamiltonian here was built block-by-block from the two
    Laplacians, so these are genuine cross-checks, not definitions
    re-stated.

    Six products are formed and shared: q+ q+, q- q-, q+ q-, q- q+, H q+
    and q+ H.  The defining relations q1 = q+ + q- and q2 = i(q- - q+),
    and the adjoint relations H* = H and q- = q+*, are checked exactly
    first.  When H* = H and q- = q+* hold,

        H q- - q- H = q+* H* - H* q+* = -(H q+ - q+ H)*

    so [H, q-] is the negated adjoint of [H, q+], entry for entry; when
    either fails, [H, q-] takes the two products H q- and q- H.  When q1
    and q2 are defined, they are those maps, and by exact distributivity

        q1^2 = q+^2 + {q+, q-} + q-^2      q2^2 = {q+, q-} - q+^2 - q-^2
        {q1, q2} = 2i(q-^2 - q+^2)         [H, q1] = [H, q+] + [H, q-]
                                           [H, q2] = i([H, q-] - [H, q+])

    so each relation's difference lhs - rhs is formed from the shared
    products by exact sums, adjoints and Gaussian-integer scalings.
    Arithmetic on canonical maps is exact, so that difference is the same
    map as the one the direct products give, and every verdict and
    residual is the direct one.  When either defining relation fails, the
    five relations on q1 and q2 take eight direct products of their own,
    so the branches decide only the cost, never a verdict or a residual.
    """
    q1, q2 = sup.q1, sup.q2
    qp, qm = sup.q_plus, sup.q_minus
    ham = sup.hamiltonian
    zero = LinearMap.zero(sup.super, sup.super)
    q1_defined = RelationCheck.of("q1 is q_plus + q_minus", qp + qm, q1)
    q2_defined = RelationCheck.of("q2 is i(q_minus - q_plus)", (qm - qp).scale((0, 1)), q2)
    qm_adjoint = RelationCheck.of("q_plus adjoint is q_minus", qp.adjoint(), qm)
    ham_adjoint = RelationCheck.of("hamiltonian self-adjoint", ham.adjoint(), ham)
    # Every map below that is checked against zero is its relation's lhs - rhs.
    qp_sq, qm_sq = qp @ qp, qm @ qm
    anti_defect = _difference(anticommutator(qp, qm), ham)
    comm_p = _difference(ham @ qp, qp @ ham)
    if qm_adjoint.holds and ham_adjoint.holds:
        comm_m = (-comm_p).adjoint()
    else:
        comm_m = _difference(ham @ qm, qm @ ham)
    if q1_defined.holds and q2_defined.holds:
        squares = qp_sq + qm_sq
        q1_sq_defect = anti_defect + squares
        q2_sq_defect = anti_defect - squares
        anti_12 = (qm_sq - qp_sq).scale((0, 2))
        comm_1 = comm_p + comm_m
        comm_2 = (comm_m - comm_p).scale((0, 1))
    else:
        q1_sq_defect = _difference(q1 @ q1, ham)
        q2_sq_defect = _difference(q2 @ q2, ham)
        anti_12 = anticommutator(q1, q2)
        comm_1 = _difference(ham @ q1, q1 @ ham)
        comm_2 = _difference(ham @ q2, q2 @ ham)
    checks = [
        RelationCheck.of("q_plus squares to zero", qp_sq, zero),
        RelationCheck.of("q_minus squares to zero", qm_sq, zero),
        RelationCheck.of("q_plus, q_minus anticommute to hamiltonian", anti_defect, zero),
        RelationCheck.of("q1 squares to hamiltonian", q1_sq_defect, zero),
        RelationCheck.of("q2 squares to hamiltonian", q2_sq_defect, zero),
        RelationCheck.of("q1, q2 anticommute", anti_12, zero),
        RelationCheck.of("hamiltonian commutes with q_plus", comm_p, zero),
        RelationCheck.of("hamiltonian commutes with q_minus", comm_m, zero),
        RelationCheck.of("hamiltonian commutes with q1", comm_1, zero),
        RelationCheck.of("hamiltonian commutes with q2", comm_2, zero),
        q1_defined,
        q2_defined,
        RelationCheck.of("q_plus recovered by halving", (q1 + q2.scale((0, 1))).halved(), qp),
        RelationCheck.of("q_minus recovered by halving", (q1 - q2.scale((0, 1))).halved(), qm),
        RelationCheck.of("q1 self-adjoint", q1.adjoint(), q1),
        RelationCheck.of("q2 self-adjoint", q2.adjoint(), q2),
        qm_adjoint,
        ham_adjoint,
    ]
    return AlgebraReport(checks=tuple(checks))


def verify_grading(sup: SuperOperators) -> AlgebraReport:
    """The parity structure: involution, eigenprojectors, anticommutation.

    The grading squares to the identity and is self-adjoint; its
    eigenprojectors are idempotent, complementary and recover it; every
    supercharge anticommutes with it; the hamiltonian commutes with it;
    and the second hermitian charge is the grading twist of the first.
    Each (anti)commutation is checked as chi q against -q chi (or H chi),
    so a relation that holds never forms a difference that cancels.  The
    product chi q1 is formed once and serves both relations that use it.
    """
    chi = sup.grading
    p0, p1 = sup.proj_bosonic, sup.proj_fermionic
    q1, q2 = sup.q1, sup.q2
    qp, qm = sup.q_plus, sup.q_minus
    ham = sup.hamiltonian
    ident = LinearMap.identity(sup.super)
    zero = LinearMap.zero(sup.super, sup.super)
    chi_q1 = chi @ q1
    checks = [
        RelationCheck.of("grading squares to identity", chi @ chi, ident),
        RelationCheck.of("grading self-adjoint", chi.adjoint(), chi),
        RelationCheck.of("bosonic projector idempotent", p0 @ p0, p0),
        RelationCheck.of("fermionic projector idempotent", p1 @ p1, p1),
        RelationCheck.of("projectors orthogonal", p0 @ p1, zero),
        RelationCheck.of("projectors complete", p0 + p1, ident),
        RelationCheck.of("projectors recover grading", p0 - p1, chi),
        RelationCheck.of("grading anticommutes with q1", chi_q1, -(q1 @ chi)),
        RelationCheck.of("grading anticommutes with q2", chi @ q2, -(q2 @ chi)),
        RelationCheck.of("grading anticommutes with q_plus", chi @ qp, -(qp @ chi)),
        RelationCheck.of("grading anticommutes with q_minus", chi @ qm, -(qm @ chi)),
        RelationCheck.of("grading commutes with hamiltonian", chi @ ham, ham @ chi),
        RelationCheck.of("q2 is i * grading * q1", chi_q1.scale((0, 1)), q2),
    ]
    return AlgebraReport(checks=tuple(checks))


def verify_factorizations(inc: IncidenceOperators) -> AlgebraReport:
    """inc.vertex_operators, assembled from incidence maps, match direct counts on inc.graph."""
    g, vops = inc.graph, inc.vertex_operators
    deg_in, deg_out, adj = degree_in_direct(g), degree_out_direct(g), adjacency_direct(g)
    checks = [
        RelationCheck.of("in-degree factorization", vops.deg_in, deg_in),
        RelationCheck.of("out-degree factorization", vops.deg_out, deg_out),
        RelationCheck.of("adjacency factorization", vops.adj, adj),
        RelationCheck.of("adjacency symmetric", vops.adj.adjoint(), vops.adj),
        RelationCheck.of("laplacian is degree minus adjacency", vops.laplacian, (deg_in + deg_out) - adj),
        RelationCheck.of("laplacian factorization", inc.vertex_laplacian, vops.laplacian),
        RelationCheck.of("laplacian self-adjoint", vops.laplacian.adjoint(), vops.laplacian),
    ]
    return AlgebraReport(checks=tuple(checks))
