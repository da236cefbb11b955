"""Assemble analysis results into one deterministic report.

The JSON form has fixed top-level sections {graph, algebra, grading,
kernel, spectra, pairing, polar, cycles, meta}; keys are sorted and every
float is pre-rounded to 15 significant digits, so identical input and
flags produce identical bytes.  The text form mirrors the same content as
a readable table.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

from . import __version__
from .cycles import cycle_space_report
from .graph import DirectedGraph, connected_components, format_edge_list
from .operators import (
    build_incidence,
    build_super_operators,
    build_vertex_operators,
    laplacian_stencil_apply,
    path_second_difference_ok,
)
from .spectral import (
    dirac_spectrum,
    kernel_report,
    pairing_check,
    polar_decompose,
    zero_mode_classification,
)
from .susy import AlgebraReport, verify_factorizations, verify_grading, verify_superalgebra

STENCIL_TOL = 1e-12


def round_float(x: float) -> float:
    """Clamp to 15 significant digits so serialized output is stable."""
    return float(f"{float(x):.15g}")


def float_list(values) -> list[float]:
    return [round_float(v) for v in np.asarray(values, dtype=float).ravel()]


def _relations(rep: AlgebraReport) -> list[dict]:
    return [
        {"name": c.name, "pass": bool(c.holds), "residual": int(c.residual)}
        for c in rep.checks
    ]


def _graph_section(graph: DirectedGraph) -> dict:
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "mode": graph.mode,
        "num_components": len(connected_components(graph)),
        "num_reciprocal_pairs": len(graph.reciprocal_pairs),
        "edges": [[tail, head] for tail, head in graph.edges],
    }


def _algebra_section(sup, inc, vops) -> dict:
    alg = verify_superalgebra(sup)
    fact = verify_factorizations(inc, vops)
    return {
        "all_pass": bool(alg.all_hold and fact.all_hold),
        "relations": _relations(alg),
        "factorizations": _relations(fact),
    }


def _grading_section(sup) -> dict:
    rep = verify_grading(sup)
    return {"all_pass": bool(rep.all_hold), "relations": _relations(rep)}


def _kernel_section(inc) -> dict:
    rep = kernel_report(inc)
    modes = zero_mode_classification(inc)
    return {
        "rank": rep.rank,
        "dim_ker_d": rep.dim_ker_diff,
        "dim_rg_d": rep.dim_rg_diff,
        "dim_ker_d_star": rep.dim_ker_adj,
        "dim_rg_d_star": rep.dim_rg_adj,
        "dim_ker_Q": rep.dim_ker_dirac,
        "dim_ker_HS": rep.dim_ker_hamiltonian,
        "num_components": rep.num_components,
        "components": [[nc, mc] for nc, mc in rep.components],
        "formulas_consistent": bool(rep.formulas_consistent),
        "zero_modes": {
            "bosonic": modes.bosonic,
            "fermionic": modes.fermionic,
            "index": modes.index,
            "counts_match": bool(modes.counts_match),
            "cycles_span_kernel": bool(modes.cycles_span_kernel),
        },
    }


def _spectra_section(sup, tol: float) -> dict:
    rep = dirac_spectrum(sup, tol)
    return {
        "q1": float_list(rep.q1_spectrum),
        "q2": float_list(rep.q2_spectrum),
        "hamiltonian": float_list(rep.hamiltonian_spectrum),
        "q1_symmetric": bool(rep.q1_symmetric),
        "q2_symmetric": bool(rep.q2_symmetric),
        "q1_symmetry_defect": round_float(rep.q1_symmetry_defect),
        "q2_symmetry_defect": round_float(rep.q2_symmetry_defect),
        "charges_match": bool(rep.charges_match),
        "squares_match": bool(rep.squares_match),
        "verdict": bool(rep.verdict),
    }


def _pairing_section(inc, tol: float) -> dict:
    rep = pairing_check(inc, tol)
    return {
        "rank": rep.rank,
        "vertex_laplacian": float_list(rep.vertex_spectrum),
        "edge_laplacian": float_list(rep.edge_spectrum),
        "singular_values": float_list(rep.singular_values),
        "vertex_zeros": rep.vertex_zeros,
        "edge_zeros": rep.edge_zeros,
        "nonzero_match": bool(rep.nonzero_match),
        "singular_match": bool(rep.singular_match),
        "hamiltonian_union_match": bool(rep.hamiltonian_union_match),
        "max_mismatch": round_float(rep.max_mismatch),
        "zero_block_bound": round_float(rep.zero_block_bound),
        "verdict": bool(rep.verdict),
    }


def _polar_section(inc, tol: float) -> dict:
    rep = polar_decompose(inc)
    return {
        "rank": rep.rank,
        "singular_values": float_list(rep.singular_values),
        "residual_factorization": round_float(rep.residual_factorization),
        "residual_adjoint": round_float(rep.residual_adjoint),
        "residual_modulus_transport": round_float(rep.residual_modulus_transport),
        "residual_partial_isometry": round_float(rep.residual_partial_isometry),
        "residual_intertwining": round_float(rep.residual_intertwining),
        "residual_block_identity": round_float(rep.residual_block_identity),
        "residual_domain_projector": round_float(rep.residual_domain_projector),
        "residual_range_projector": round_float(rep.residual_range_projector),
        "max_residual": round_float(rep.max_residual),
        "verdict": bool(rep.max_residual < tol),
    }


def _cycles_section(graph) -> dict:
    rep = cycle_space_report(graph)
    cycles = [
        sorted([edge, sign] for edge, sign in vec.items()) for vec in rep.basis.vectors
    ]
    return {
        "cycle_count": rep.basis.dimension,
        "expected_dimension": rep.expected_dimension,
        "basis_rank": rep.basis_rank,
        "dim_ker_d_star": rep.kernel_dimension,
        "closure_residual": rep.closure_residual,
        "num_pair_cycles": len(rep.basis.pair_generators),
        "defining_edges": list(rep.basis.defining_edge),
        "cycles": cycles,
        "tree_diff_rank": rep.tree_diff_rank,
        "consistent": bool(rep.consistent),
    }


def _stencil_selftest(graph, inc, vops, seed: int) -> dict:
    rng = random.Random(seed)
    values = [rng.uniform(-1.0, 1.0) for _ in range(graph.num_vertices)]
    via_operator = vops.laplacian.to_dense_real() @ np.array(values)
    via_stencil = laplacian_stencil_apply(graph, values).real
    defect = float(np.max(np.abs(via_operator - via_stencil))) if values else 0.0
    return {
        "path_stencil_ok": bool(path_second_difference_ok(50)),
        "random_stencil_defect": round_float(defect),
        "stencil_tol": STENCIL_TOL,
        "stencil_ok": bool(defect <= STENCIL_TOL),
    }


def build_report(
    graph: DirectedGraph,
    tol: float = 1e-8,
    seed: int = 0,
    source_text: str | None = None,
    sections: tuple[str, ...] = ("algebra", "grading", "kernel", "spectra", "pairing", "polar", "cycles"),
) -> dict:
    """Run the requested analyses and assemble the report dict.

    Sections not requested are emitted as null so the top-level shape is
    constant.  meta carries tool identity, parameters, the input digest,
    the seeded stencil self-test, and cross-section consistency checks.
    """
    inc = build_incidence(graph)
    vops = build_vertex_operators(inc)
    sup = build_super_operators(inc)
    want = set(sections)
    report: dict = {
        "graph": _graph_section(graph),
        "algebra": _algebra_section(sup, inc, vops) if "algebra" in want else None,
        "grading": _grading_section(sup) if "grading" in want else None,
        "kernel": _kernel_section(inc) if "kernel" in want else None,
        "spectra": _spectra_section(sup, tol) if "spectra" in want else None,
        "pairing": _pairing_section(inc, tol) if "pairing" in want else None,
        "polar": _polar_section(inc, tol) if "polar" in want else None,
        "cycles": _cycles_section(graph) if "cycles" in want else None,
    }
    text = source_text if source_text is not None else format_edge_list(graph)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    consistency: dict = {}
    if report["kernel"] is not None and report["spectra"] is not None:
        # The exact kernel dimension says how many of the lowest eigenvalues are
        # zero; a small nonzero eigenvalue within tol above them is not a zero mode.
        zeros = report["spectra"]["hamiltonian"][: report["kernel"]["dim_ker_HS"]]
        consistency["hamiltonian_zero_count_matches"] = all(abs(v) <= tol for v in zeros)
    if report["kernel"] is not None and report["cycles"] is not None:
        consistency["cycles_match_fermionic_zero_modes"] = bool(
            report["cycles"]["cycle_count"] == report["kernel"]["zero_modes"]["fermionic"]
        )
    selftest = _stencil_selftest(graph, inc, vops, seed)
    verdicts = [selftest["stencil_ok"]]
    for key in ("algebra", "grading"):
        if report[key] is not None:
            verdicts.append(report[key]["all_pass"])
    if report["kernel"] is not None:
        verdicts.append(report["kernel"]["formulas_consistent"])
        verdicts.append(report["kernel"]["zero_modes"]["counts_match"])
        verdicts.append(report["kernel"]["zero_modes"]["cycles_span_kernel"])
    for key in ("spectra", "pairing", "polar"):
        if report[key] is not None:
            verdicts.append(report[key]["verdict"])
    if report["cycles"] is not None:
        verdicts.append(report["cycles"]["consistent"])
    verdicts.extend(consistency.values())
    report["meta"] = {
        "tool": "susygraph",
        "version": __version__,
        "tolerance": round_float(tol),
        "seed": seed,
        "input_digest": digest,
        "sections": sorted(want),
        "selftest": selftest,
        "consistency": consistency,
        "all_pass": bool(all(verdicts)),
    }
    return report


def serialize_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _text_lines(prefix: str, obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _text_lines(f"{prefix}{key}.", obj[key], out)
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            out.append(f"{prefix[:-1]:<48} {obj}")
        else:
            for i, v in enumerate(obj):
                _text_lines(f"{prefix}{i}.", v, out)
    elif isinstance(obj, bool):
        out.append(f"{prefix[:-1]:<48} {'pass' if obj else 'FAIL'}")
    elif obj is None:
        out.append(f"{prefix[:-1]:<48} (not run)")
    else:
        out.append(f"{prefix[:-1]:<48} {obj}")


def serialize_text(report: dict) -> str:
    lines: list[str] = []
    for section in ("graph", "algebra", "grading", "kernel", "spectra", "pairing", "polar", "cycles", "meta"):
        if section not in report:
            continue
        lines.append(f"[{section}]")
        _text_lines("", report[section], lines)
        lines.append("")
    return "\n".join(lines)


def serialize_report(report: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return serialize_json(report)
    if fmt == "text":
        return serialize_text(report)
    raise ValueError(f"unknown format {fmt!r}")
