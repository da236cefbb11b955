"""Spectra, kernels, pairing and the polar geometry of the difference operator.

Counting questions (kernel dimensions, the rank split between zero and
nonzero spectrum) are settled by exact integer elimination; floating point
is used only for eigenvalues and eigenvectors themselves, with every
floating claim checked against a stated tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LinearMap, SpaceMismatch, StateVector, stack_columns
from .linalg import exact_rank  # noqa: F401  unused; bench/test_bench.py traces this binding
from .operators import IncidenceOperators, SuperOperators


class NotSelfAdjoint(ValueError):
    """Raised when a spectrum is requested for a non-self-adjoint map."""


class NotAnEigenpair(ValueError):
    """Raised when eigenvector transport is fed a vector that fails residual checks."""


# -- kernel counting ----------------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    """Exact kernel and range dimensions of the difference operator family.

    rank is the exact rank of the difference operator.  The kernel of the
    operator is the space of functions constant on each weak component, so
    its dimension should equal num_components; the kernel of the adjoint
    is the cycle space.  components lists (vertices, edges) per weak
    component; formulas_consistent records the per-component cross-check
    dim_ker_adj = sum over components of m_c - (n_c - 1).
    """

    num_vertices: int
    num_edges: int
    num_components: int
    components: tuple[tuple[int, int], ...]
    rank: int
    dim_ker_diff: int
    dim_rg_diff: int
    dim_ker_adj: int
    dim_rg_adj: int
    dim_ker_dirac: int
    dim_ker_hamiltonian: int
    formulas_consistent: bool


def kernel_report(inc: IncidenceOperators) -> KernelReport:
    g = inc.graph
    forest = g.spanning_forest
    edge_counts = [0] * len(forest.components)
    for tail, _ in g.edges:
        edge_counts[forest.component[tail]] += 1
    breakdown = tuple(zip(map(len, forest.components), edge_counts))
    rank = inc.rank
    n, m = g.num_vertices, g.num_edges
    dim_ker_diff = n - rank
    dim_ker_adj = m - rank
    formulas = dim_ker_diff == len(breakdown) and dim_ker_adj == sum(
        mc - (nc - 1) for nc, mc in breakdown
    )
    return KernelReport(
        num_vertices=n,
        num_edges=m,
        num_components=len(breakdown),
        components=breakdown,
        rank=rank,
        dim_ker_diff=dim_ker_diff,
        dim_rg_diff=rank,
        dim_ker_adj=dim_ker_adj,
        dim_rg_adj=rank,
        dim_ker_dirac=dim_ker_diff + dim_ker_adj,
        dim_ker_hamiltonian=dim_ker_diff + dim_ker_adj,
        formulas_consistent=formulas,
    )


# -- spectra ------------------------------------------------------------------


def _sup(x: np.ndarray) -> float:
    """Sup norm of an array, 0 for an empty one."""
    return float(np.max(np.abs(x))) if x.size else 0.0


def _self_adjoint_dense(m: LinearMap) -> np.ndarray:
    """The dense matrix of an exactly self-adjoint map, real when m has no imaginary part.

    Real maps thus go to the real symmetric eigensolver and complex maps
    to the complex Hermitian one.
    """
    if not m.is_self_adjoint():
        raise NotSelfAdjoint(f"{m!r} is not self-adjoint")
    return m.to_dense() if m.has_imag() else m.to_dense_real()


def symmetric_spectrum(m: LinearMap) -> np.ndarray:
    """Ascending eigenvalues of an exactly self-adjoint map."""
    return np.linalg.eigvalsh(_self_adjoint_dense(m))


def eigensystem(m: LinearMap) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a self-adjoint map."""
    return np.linalg.eigh(_self_adjoint_dense(m))


def multisets_match(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Sorted pointwise comparison, absolute below magnitude 1, relative above.

    A NaN on either side never matches.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return False
    scale = np.maximum(np.abs(a), np.abs(b))
    # A tol near the float maximum overflows tol * scale to inf, which is still the right bound.
    with np.errstate(over="ignore"):
        bound = np.where(scale <= 1.0, tol, tol * scale)
    return bool(np.all(np.abs(a - b) <= bound))


@dataclass(frozen=True)
class PairingReport:
    """The two Laplacians share their nonzero spectrum.

    The number of zero eigenvalues on each side is fixed by the exact rank,
    never by a floating threshold: the vertex Laplacian has n - rank zeros,
    the edge Laplacian m - rank, and the trailing rank eigenvalues of both
    must agree to tolerance, and agree with the squared singular values of
    the difference operator.  The super Hamiltonian spectrum away from zero
    must be the multiset union of the two sides, so every nonzero level is
    at least twofold degenerate.
    """

    rank: int
    vertex_spectrum: np.ndarray
    edge_spectrum: np.ndarray
    singular_values: np.ndarray
    vertex_zeros: int
    edge_zeros: int
    nonzero_match: bool
    singular_match: bool
    hamiltonian_union_match: bool
    max_mismatch: float
    zero_block_bound: float

    @property
    def verdict(self) -> bool:
        return self.nonzero_match and self.singular_match and self.hamiltonian_union_match


def pairing_check(inc: IncidenceOperators, tol: float = 1e-8) -> PairingReport:
    rank = inc.rank
    vspec = symmetric_spectrum(inc.vertex_laplacian)
    espec = symmetric_spectrum(inc.edge_laplacian)
    n, m = inc.vertex.dim, inc.edge.dim
    vz, ez = n - rank, m - rank
    v_nonzero = vspec[vz:]
    e_nonzero = espec[ez:]
    sing = np.linalg.svd(inc.diff.to_dense_real(), compute_uv=False)
    sing_nonzero = np.sort(sing[:rank])  # numpy sorts singular values descending
    max_mismatch = _sup(v_nonzero - e_nonzero)
    zero_block = max(_sup(vspec[:vz]), _sup(espec[:ez]))
    hspec = inc.super_operators.hamiltonian_spectrum
    h_nonzero = hspec[vz + ez :]
    union = np.sort(np.concatenate([v_nonzero, e_nonzero]))
    return PairingReport(
        rank=rank,
        vertex_spectrum=vspec,
        edge_spectrum=espec,
        singular_values=np.sort(sing)[::-1],
        vertex_zeros=vz,
        edge_zeros=ez,
        nonzero_match=multisets_match(v_nonzero, e_nonzero, tol),
        singular_match=multisets_match(sing_nonzero**2, v_nonzero, tol)
        and multisets_match(sing_nonzero**2, e_nonzero, tol),
        hamiltonian_union_match=multisets_match(h_nonzero, union, tol),
        max_mismatch=max_mismatch,
        zero_block_bound=zero_block,
    )


@dataclass(frozen=True)
class DiracSpectrumReport:
    """Spectra of the two hermitian supercharges and their symmetry.

    Both spectra must be invariant under negation, agree with each other,
    and square to the super Hamiltonian spectrum; the defects are sorted
    pointwise multiset mismatches.
    """

    q1_spectrum: np.ndarray
    q2_spectrum: np.ndarray
    hamiltonian_spectrum: np.ndarray
    q1_symmetric: bool
    q2_symmetric: bool
    q1_symmetry_defect: float
    q2_symmetry_defect: float
    charges_match: bool
    squares_match: bool

    @property
    def verdict(self) -> bool:
        return self.q1_symmetric and self.q2_symmetric and self.charges_match and self.squares_match


def spectrum_symmetry_defect(spectrum: np.ndarray) -> float:
    """How far a sorted spectrum is from being invariant under negation."""
    s = np.sort(np.asarray(spectrum, dtype=float))
    return _sup(s + s[::-1])


def dirac_spectrum(sup: SuperOperators, tol: float = 1e-8) -> DiracSpectrumReport:
    q1spec = symmetric_spectrum(sup.q1)
    q2spec = symmetric_spectrum(sup.q2)
    hspec = sup.hamiltonian_spectrum
    d1 = spectrum_symmetry_defect(q1spec)
    d2 = spectrum_symmetry_defect(q2spec)
    return DiracSpectrumReport(
        q1_spectrum=q1spec,
        q2_spectrum=q2spec,
        hamiltonian_spectrum=hspec,
        q1_symmetric=multisets_match(q1spec, -q1spec, tol),
        q2_symmetric=multisets_match(q2spec, -q2spec, tol),
        q1_symmetry_defect=d1,
        q2_symmetry_defect=d2,
        charges_match=multisets_match(q1spec, q2spec, tol),
        squares_match=multisets_match(q1spec**2, hspec, tol),
    )


# -- polar decomposition ------------------------------------------------------


@dataclass(frozen=True)
class PolarReport:
    """The difference operator split into a partial isometry times its modulus.

    modulus_vertex is the operator square root of the vertex Laplacian,
    modulus_edge of the edge Laplacian, each from its own eigensystem.
    isometry maps vertex functions to edge functions, unitary between the
    orthogonal complements of the kernels; its rank is fixed by exact
    elimination.  The projector residuals compare isometry*isometry and
    isometry isometry* against projectors from the forest's component
    indicators and the fundamental cycles, so the range residual checks the
    SVD against the cycle space.  Residuals are sup-norm defects.
    """

    rank: int
    singular_values: np.ndarray
    isometry: np.ndarray
    modulus_vertex: np.ndarray
    modulus_edge: np.ndarray
    residual_factorization: float
    residual_adjoint: float
    residual_modulus_transport: float
    residual_partial_isometry: float
    residual_intertwining: float
    residual_block_identity: float
    residual_domain_projector: float
    residual_range_projector: float

    @property
    def max_residual(self) -> float:
        return max(
            self.residual_factorization,
            self.residual_adjoint,
            self.residual_modulus_transport,
            self.residual_partial_isometry,
            self.residual_intertwining,
            self.residual_block_identity,
            self.residual_domain_projector,
            self.residual_range_projector,
        )


def _kernel_projector(basis: LinearMap) -> np.ndarray:
    """Orthogonal projector onto the span of the exact integer columns of basis."""
    q, _ = np.linalg.qr(basis.to_dense_real())
    return q @ q.T


def polar_decompose(inc: IncidenceOperators) -> PolarReport:
    """Factor the difference operator as isometry @ modulus.

    The two moduli come from independent eigensystems of the two
    Laplacians.  The partial isometry is assembled from the singular
    vectors of the difference operator itself, keeping exactly rank
    singular directions with the rank fixed by exact elimination, so no
    floating cutoff decides what counts as zero.
    """
    rank = inc.rank
    n, m = inc.vertex.dim, inc.edge.dim
    d = inc.diff.to_dense_real()
    vertex_lap = inc.vertex_laplacian.to_dense_real()
    edge_lap = inc.edge_laplacian.to_dense_real()
    vvals, vvecs = np.linalg.eigh(vertex_lap)
    evals, evecs = np.linalg.eigh(edge_lap)
    # the lowest dim - rank eigenvalues are exact zeros; flattening them
    # before the square root stops sqrt from amplifying solver noise
    vvals[: n - rank] = 0.0
    evals[: m - rank] = 0.0
    modulus_vertex = (vvecs * np.sqrt(np.clip(vvals, 0.0, None))) @ vvecs.T
    modulus_edge = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    u, sing, vt = np.linalg.svd(d)
    isometry = u[:, :rank] @ vt[:rank, :]

    transported = isometry @ modulus_vertex
    res_fact = _sup(transported - d)
    res_transport = _sup(transported @ isometry.T - modulus_edge)
    del transported  # so that it is never held beside range_proj
    res_adj = _sup(modulus_vertex @ isometry.T - d.T)
    # the first-order block operator equals the block isometry times the
    # block modulus: [[0, S*],[S, 0]] @ diag(|d|, |d*|) = [[0, d*],[d, 0]]
    res_block = max(res_fact, _sup(isometry.T @ modulus_edge - d.T))
    indicators = stack_columns(list(inc.ker_diff), inc.vertex)
    res_domain = _sup(isometry.T @ isometry + _kernel_projector(indicators) - np.eye(n))
    range_proj = isometry @ isometry.T
    res_partial = _sup(range_proj @ isometry - isometry)
    res_inter = _sup(isometry @ vertex_lap @ isometry.T - edge_lap @ range_proj)
    res_range = _sup(range_proj + _kernel_projector(inc.cycle_matrix) - np.eye(m))
    return PolarReport(
        rank=rank,
        singular_values=sing[:rank],
        isometry=isometry,
        modulus_vertex=modulus_vertex,
        modulus_edge=modulus_edge,
        residual_factorization=res_fact,
        residual_adjoint=res_adj,
        residual_modulus_transport=res_transport,
        residual_partial_isometry=res_partial,
        residual_intertwining=res_inter,
        residual_block_identity=res_block,
        residual_domain_projector=res_domain,
        residual_range_projector=res_range,
    )


# -- eigenvector transport ----------------------------------------------------


@dataclass(frozen=True)
class TransportReport:
    """A nonzero vertex Laplacian eigenpair carried to the edge side.

    From an eigenpair (energy, f) of the vertex Laplacian with energy > 0,
    the normalized image g = diff f / sqrt(energy) is an edge Laplacian
    eigenvector with the same energy, and the two supercharge eigenvectors
    (f, +-g) on the direct sum space have Dirac eigenvalues +-sqrt(energy);
    the phase-twisted pairs (if, +-g) are eigenvectors of the second
    charge.  The plus and minus vectors are linearly independent, while
    their parity-pure parts (f, 0) and (0, g) are grading eigenvectors.
    Residuals are sup norms of the defining identities.
    """

    energy: float
    vertex_vector: StateVector
    edge_vector: StateVector
    residual_vertex: float
    residual_edge: float
    residual_down: float
    residual_up: float
    residual_dirac_plus: float
    residual_dirac_minus: float
    residual_q2_plus: float
    residual_q2_minus: float
    residual_hamiltonian: float
    residual_purity: float
    independent: bool

    @property
    def max_residual(self) -> float:
        return max(
            self.residual_vertex,
            self.residual_edge,
            self.residual_down,
            self.residual_up,
            self.residual_dirac_plus,
            self.residual_dirac_minus,
            self.residual_q2_plus,
            self.residual_q2_minus,
            self.residual_hamiltonian,
            self.residual_purity,
        )


def _dense_context(inc: IncidenceOperators) -> dict[str, np.ndarray]:
    sup = inc.super_operators
    return {
        "d": inc.diff.to_dense(),
        "d_adj": inc.diff_adj.to_dense(),
        "vertex_lap": inc.vertex_laplacian.to_dense(),
        "edge_lap": inc.edge_laplacian.to_dense(),
        "q1": sup.q1.to_dense(),
        "q2": sup.q2.to_dense(),
        "ham": sup.hamiltonian.to_dense(),
        "chi": sup.grading.to_dense(),
    }


def transport_eigenpair(
    inc: IncidenceOperators,
    energy: float,
    vertex_vector: StateVector,
    tol: float = 1e-6,
) -> TransportReport:
    """Carry a positive-energy vertex eigenpair across the supersymmetry.

    Raises SpaceMismatch if vertex_vector is not on inc's vertex space, and
    NotAnEigenpair if the input fails its own eigenvalue equation at tol,
    if the energy is not positive, or if the vector is negligibly small.
    """
    if vertex_vector.space != inc.vertex:
        raise SpaceMismatch(f"vertex vector on {vertex_vector.space}, not {inc.vertex}")
    if energy <= 0:
        raise NotAnEigenpair(f"transport requires positive energy, got {energy}")
    if float(np.linalg.norm(vertex_vector.coefficients)) < tol:
        raise NotAnEigenpair("vertex vector is numerically zero")
    rep = _transport(_dense_context(inc), inc, energy, vertex_vector, tol)
    if rep.residual_vertex > tol:
        raise NotAnEigenpair(
            f"vertex residual {rep.residual_vertex} exceeds tolerance {tol} at energy {energy}"
        )
    return rep


def _transport(
    ctx: dict[str, np.ndarray],
    inc: IncidenceOperators,
    energy: float,
    vertex_vector: StateVector,
    tol: float,
) -> TransportReport:
    f = vertex_vector.coefficients
    norm_f = float(np.linalg.norm(f))
    res_vertex = _sup(ctx["vertex_lap"] @ f - energy * f) / norm_f
    root = float(np.sqrt(energy))
    d = ctx["d"]
    g = (d @ f) / root
    res_edge = _sup(ctx["edge_lap"] @ g - energy * g) / norm_f
    res_down = _sup(ctx["d_adj"] @ g - root * f) / norm_f
    res_up = _sup(d @ f - root * g) / norm_f
    q1 = ctx["q1"]
    q2 = ctx["q2"]
    ham = ctx["ham"]
    chi = ctx["chi"]
    plus = np.concatenate([f, g])
    minus = np.concatenate([f, -g])
    res_dirac_plus = _sup(q1 @ plus - root * plus) / norm_f
    res_dirac_minus = _sup(q1 @ minus + root * minus) / norm_f
    # the second charge pairs the phase-twisted vertex part with the same edge part
    tw_plus = np.concatenate([1j * f, g])
    tw_minus = np.concatenate([1j * f, -g])
    res_q2_plus = _sup(q2 @ tw_plus - root * tw_plus) / norm_f
    res_q2_minus = _sup(q2 @ tw_minus + root * tw_minus) / norm_f
    res_ham = max(
        _sup(ham @ plus - energy * plus),
        _sup(ham @ minus - energy * minus),
    ) / norm_f
    pure_b = np.concatenate([f, np.zeros(inc.edge.dim)])
    pure_f = np.concatenate([np.zeros(inc.vertex.dim), g])
    res_purity = max(
        _sup(chi @ pure_b - pure_b),
        _sup(chi @ pure_f + pure_f),
    ) / norm_f
    gram = np.array(
        [
            [np.vdot(plus, plus), np.vdot(plus, minus)],
            [np.vdot(minus, plus), np.vdot(minus, minus)],
        ]
    )
    independent = bool(abs(np.linalg.det(gram)) > tol * max(1.0, norm_f**4))
    return TransportReport(
        energy=energy,
        vertex_vector=vertex_vector,
        edge_vector=StateVector(inc.edge, g),
        residual_vertex=res_vertex,
        residual_edge=res_edge,
        residual_down=res_down,
        residual_up=res_up,
        residual_dirac_plus=res_dirac_plus,
        residual_dirac_minus=res_dirac_minus,
        residual_q2_plus=res_q2_plus,
        residual_q2_minus=res_q2_minus,
        residual_hamiltonian=res_ham,
        residual_purity=res_purity,
        independent=independent,
    )


def transport_all(inc: IncidenceOperators, tol: float = 1e-6) -> list[TransportReport]:
    """Transport every positive vertex Laplacian eigenpair.

    The zero block is identified by exact rank (the lowest n - rank
    eigenpairs are skipped), so near-zero numerical eigenvalues are never
    transported by mistake.  The pairs are the eigensolver's own, so none
    is refused: a vertex residual above tol is reported in residual_vertex
    like every other residual.
    """
    vals, vecs = eigensystem(inc.vertex_laplacian)
    zeros = inc.vertex.dim - inc.rank
    ctx = _dense_context(inc)
    out = []
    for i in range(zeros, len(vals)):
        vec = StateVector(inc.vertex, vecs[:, i])
        out.append(_transport(ctx, inc, float(vals[i]), vec, tol))
    return out


# -- zero modes ---------------------------------------------------------------


@dataclass(frozen=True)
class ZeroModeReport:
    """Exact classification of the hamiltonian kernel by parity.

    Bosonic zero modes are the n - rank component indicators, fermionic
    ones the m - rank independent cycles; the index is their difference.
    Both booleans prove a basis by exact closure and exact rank.
    counts_match: diff sends each indicator of inc.ker_diff to 0, their
    supports are disjoint and nonempty (so independent), and there are
    n - rank of them.  cycles_span_kernel: diff_adj sends each fundamental
    cycle to 0, and there are m - rank of them with that exact rank.
    """

    bosonic: int
    fermionic: int
    counts_match: bool
    cycles_span_kernel: bool

    @property
    def index(self) -> int:
        return self.bosonic - self.fermionic

    @property
    def verdict(self) -> bool:
        return self.counts_match and self.cycles_span_kernel


def zero_mode_classification(inc: IncidenceOperators) -> ZeroModeReport:
    """Prove both zero-mode bases of ZeroModeReport; eliminates only for inc's two ranks."""
    bosonic, fermionic = inc.vertex.dim - inc.rank, inc.edge.dim - inc.rank
    ind = stack_columns(list(inc.ker_diff), inc.vertex)
    # the rows are sorted, so they increase exactly when no vertex is in two indicators
    disjoint = (np.diff(ind.row) > 0).all() and np.bincount(ind.col, minlength=ind.domain.dim).all()
    counts = bool(ind.domain.dim == bosonic and disjoint and (inc.diff @ ind).is_zero())
    cycles = inc.cycle_basis.vectors
    spans = len(cycles) == inc.cycle_rank == fermionic and inc.cycle_closure.is_zero()
    return ZeroModeReport(bosonic, fermionic, counts_match=counts, cycles_span_kernel=spans)
