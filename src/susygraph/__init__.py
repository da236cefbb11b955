"""Operator calculus and supersymmetry checks on finite directed graphs.

From a directed graph this package builds the incidence maps between
vertex and edge functions, the two Laplacians they generate, and the
supersymmetric package on their direct sum (Dirac operator, hermitian and
nilpotent supercharges, grading involution, super Hamiltonian).  All
construction and algebra verification is exact over Gaussian integers;
spectra, the polar decomposition and eigenvector transport are floating
point with stated tolerances, while every dimension count (kernels,
ranks, cycle space) is decided by exact elimination.
"""

__version__ = "0.1.0"

from .cycles import CycleBasis, CycleSpaceReport, cycle_space_report, fundamental_cycle_basis
from .graph import (
    DirectedGraph,
    DuplicateEdge,
    GraphFormatError,
    IndexOutOfRange,
    MalformedLine,
    SelfLoop,
    SpanningForest,
    SymmetricModeViolation,
    connected_components,
    load_edge_list,
    parse_edge_list,
    reorient,
    spanning_forest,
    symmetrize,
)
from .linalg import (
    LinearMap,
    Space,
    SpaceMismatch,
    StateVector,
    anticommutator,
    commutator,
    edge_space,
    exact_kernel_basis,
    exact_rank,
    super_space,
    vertex_space,
)
from .operators import (
    IncidenceOperators,
    SuperOperators,
    VertexOperators,
    build_incidence,
    path_graph,
)
from .report import build_report, failed_checks, serialize_report
from .spectral import (
    KernelReport,
    NotAnEigenpair,
    NotSelfAdjoint,
    PairingReport,
    PolarReport,
    TransportReport,
    dirac_spectrum,
    kernel_report,
    pairing_check,
    polar_decompose,
    symmetric_spectrum,
    transport_all,
    transport_eigenpair,
    zero_mode_classification,
)
from .susy import AlgebraReport, RelationCheck, verify_factorizations, verify_grading, verify_superalgebra

__all__ = [
    "__version__",
    "AlgebraReport",
    "CycleBasis",
    "CycleSpaceReport",
    "DirectedGraph",
    "DuplicateEdge",
    "GraphFormatError",
    "IncidenceOperators",
    "IndexOutOfRange",
    "KernelReport",
    "LinearMap",
    "MalformedLine",
    "NotAnEigenpair",
    "NotSelfAdjoint",
    "PairingReport",
    "PolarReport",
    "RelationCheck",
    "SelfLoop",
    "Space",
    "SpaceMismatch",
    "SpanningForest",
    "StateVector",
    "SuperOperators",
    "SymmetricModeViolation",
    "TransportReport",
    "VertexOperators",
    "anticommutator",
    "build_incidence",
    "build_report",
    "commutator",
    "connected_components",
    "cycle_space_report",
    "dirac_spectrum",
    "edge_space",
    "exact_kernel_basis",
    "exact_rank",
    "failed_checks",
    "fundamental_cycle_basis",
    "kernel_report",
    "load_edge_list",
    "pairing_check",
    "parse_edge_list",
    "path_graph",
    "polar_decompose",
    "reorient",
    "serialize_report",
    "spanning_forest",
    "super_space",
    "symmetric_spectrum",
    "symmetrize",
    "transport_all",
    "transport_eigenpair",
    "verify_factorizations",
    "verify_grading",
    "verify_superalgebra",
    "vertex_space",
    "zero_mode_classification",
]
