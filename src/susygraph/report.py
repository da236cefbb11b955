"""Assemble analysis results into one deterministic report.

The JSON form has fixed top-level sections {graph, algebra, grading,
kernel, spectra, pairing, polar, cycles, meta}; keys are sorted and every
float is pre-rounded to 15 significant digits, so identical input and
flags produce identical bytes.  The text form mirrors the same content as
a readable table.

Every boolean in a report is a check: the text form prints it as pass or
FAIL, failed_checks names the false ones by dotted path, and meta.all_pass
is true exactly when every other boolean is.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii
from typing import Iterable

import numpy as np

from . import __version__
from .cycles import cycle_space_report
from .graph import DirectedGraph, format_edge_list
from .linalg import stack_columns
from .operators import build_incidence, laplacian_stencil_apply, path_second_difference_ok
from .spectral import (
    dirac_spectrum,
    kernel_report,
    pairing_check,
    polar_decompose,
    zero_mode_classification,
)
from .susy import AlgebraReport, verify_factorizations, verify_grading, verify_superalgebra

STENCIL_TOL = 1e-12
# Test values lie in [-B, B]: every stencil sum is an integer of magnitude at
# most 2 * B * m, exact in float64 for any edge count below 2**42.
STENCIL_VALUE_BOUND = 1000


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
        "num_components": len(graph.spanning_forest.components),
        "num_reciprocal_pairs": len(graph.reciprocal_pairs),
        "edges": [[tail, head] for tail, head in graph.edges],
    }


def _algebra_section(inc) -> dict:
    alg = verify_superalgebra(inc.super_operators)
    fact = verify_factorizations(inc)
    return {
        "all_pass": bool(alg.all_hold and fact.all_hold),
        "relations": _relations(alg),
        "factorizations": _relations(fact),
    }


def _grading_section(inc) -> dict:
    rep = verify_grading(inc.super_operators)
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


def _spectra_section(inc, tol: float) -> dict:
    rep = dirac_spectrum(inc.super_operators, tol)
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


def _cycles_section(inc) -> dict:
    rep = cycle_space_report(inc)
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


def _stencil_selftest(inc, seed: int) -> dict:
    """Compare the vertex Laplacian with the edge-list stencil on seeded integer values.

    The operator side is inc.vertex_laplacian (d*d, shared with H and the
    factorization check) times one column; the stencil's float sums of these
    small integers are exact too, so a correct Laplacian gives a defect of
    exactly 0 at any size, and no n x n array is formed.
    """
    rng = random.Random(seed)
    n = inc.vertex.dim
    values = [rng.randint(-STENCIL_VALUE_BOUND, STENCIL_VALUE_BOUND) for _ in range(n)]
    laplacian = inc.vertex_laplacian
    column = stack_columns([dict(enumerate(values))], laplacian.domain)
    via_operator = (laplacian @ column).to_dense()[:, 0]
    via_stencil = laplacian_stencil_apply(inc.graph, values)
    defect = float(np.max(np.abs(via_operator - via_stencil)))
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
    Every section reads one incidence object, so each exact rank, kernel
    basis, cycle basis, Laplacian and spectrum they share is computed once;
    the vertex operators are built only for algebra, and the super operators
    only when a section that reads them runs (algebra, grading, spectra, pairing).
    """
    inc = build_incidence(graph)
    want = set(sections)
    report: dict = {
        "graph": _graph_section(graph),
        "algebra": _algebra_section(inc) if "algebra" in want else None,
        "grading": _grading_section(inc) if "grading" in want else None,
        "kernel": _kernel_section(inc) if "kernel" in want else None,
        "spectra": _spectra_section(inc, tol) if "spectra" in want else None,
        "pairing": _pairing_section(inc, tol) if "pairing" in want else None,
        "polar": _polar_section(inc, tol) if "polar" in want else None,
        "cycles": _cycles_section(inc) if "cycles" in want else None,
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
    report["meta"] = {
        "tool": "susygraph",
        "version": __version__,
        "tolerance": round_float(tol),
        "seed": seed,
        "input_digest": digest,
        "sections": sorted(want),
        "selftest": _stencil_selftest(inc, seed),
        "consistency": consistency,
    }
    report["meta"]["all_pass"] = not failed_checks(report)
    return report


def failed_checks(report: dict) -> list[str]:
    """Dotted paths of the false booleans in a report, in JSON key order.

    Dict keys are walked in sorted order and list entries by index, so each
    path is the section name followed by the key that the text form prints
    FAIL beside.  build_report walks the report before it adds
    meta.all_pass; a finished failing report also lists meta.all_pass.
    """
    failed: list[str] = []
    _collect_false(report, (), failed)
    return failed


def _collect_false(container, path: tuple, out: list[str]) -> None:
    # The path is joined only for a false boolean, not for every nested list.
    items = sorted(container.items()) if isinstance(container, dict) else enumerate(container)
    for key, value in items:
        if value is False:
            out.append(".".join(map(str, (*path, key))))
        elif isinstance(value, (dict, list)):
            _collect_false(value, (*path, key), out)


def serialize_json(report: dict) -> str:
    """The bytes of json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + newline.

    CPython's C encoder does not indent, so json.dumps with indent writes
    every byte in Python.  This writer nests containers the same way and
    writes the long lists a report holds, of floats, of ints or of
    [int, int] pairs, with C-level joins.  NaN and infinity raise
    ValueError; dict keys must be strings.
    """
    return _json(report, "") + "\n"


def _json(obj, indent: str) -> str:
    """obj as json.dumps with sort_keys and indent=2 writes it, nested at indent."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{_json_key(k)}: {_json(v, inner)}" for k, v in sorted(obj.items()))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return f"[\n{inner}" + f",\n{inner}".join(_json_items(obj, inner)) + f"\n{indent}]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _json_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _json_items(values, inner: str) -> Iterable[str]:
    """The entries of a non-empty list, each written at inner."""
    kinds = set(map(type, values))
    if kinds == {float}:
        if all(map(math.isfinite, values)):
            return map(float.__repr__, values)
        return map(_json_float, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    pairs = kinds == {list} and set(map(len, values)) == {2}
    if pairs and set(map(type, chain.from_iterable(values))) == {int}:
        deeper = inner + "  "
        return starmap(f"[\n{deeper}{{}},\n{deeper}{{}}\n{inner}]".format, values)
    return (_json(v, inner) for v in values)


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
