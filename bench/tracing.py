"""Spans around susygraph's public functions, installed from outside the package.

A Tracer replaces every binding of each traced function with a wrapper
that records a span: name, start, end, parent span and op id.  A function
is wrapped under each name that binds it (``report.build_incidence``,
``spectral.exact_rank``, ``cli.parse_edge_list`` and so on, as well as
its defining module), so the traced call graph is the untraced one.
numpy's eigensolvers are wrapped in ``numpy.linalg``, where ``spectral``
looks them up on every call.  ``uninstall`` puts every original back.

A traced name that no longer exists is recorded as absent and reports
zero calls instead of failing the run.

Spans stay in memory; ``write_jsonl`` writes them out at the end.
Self time is a span's duration minus the durations of its direct
children; spans of one thread nest, so that is the time not covered by
any child.  Work a wrapper does for its own counters runs in a
``trace.hook`` child span, so it is never charged to a traced function.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module under susygraph, attribute; "Class.method" for methods)
TRACED = (
    ("cli.main", "cli", "main"),
    ("graph.parse_edge_list", "graph", "parse_edge_list"),
    ("operators.build_incidence", "operators", "build_incidence"),
    ("operators.build_vertex_operators", "operators", "build_vertex_operators"),
    ("operators.build_super_operators", "operators", "build_super_operators"),
    ("susy.verify_superalgebra", "susy", "verify_superalgebra"),
    ("susy.verify_grading", "susy", "verify_grading"),
    ("susy.verify_factorizations", "susy", "verify_factorizations"),
    ("linalg.matmul", "linalg", "LinearMap.__matmul__"),
    ("linalg.exact_rank", "linalg", "exact_rank"),
    ("linalg.exact_kernel_basis", "linalg", "exact_kernel_basis"),
    ("linalg.to_dense", "linalg", "LinearMap.to_dense"),
    ("linalg.to_dense_real", "linalg", "LinearMap.to_dense_real"),
    ("spectral.kernel_report", "spectral", "kernel_report"),
    ("spectral.zero_mode_classification", "spectral", "zero_mode_classification"),
    ("spectral.dirac_spectrum", "spectral", "dirac_spectrum"),
    ("spectral.pairing_check", "spectral", "pairing_check"),
    ("spectral.polar_decompose", "spectral", "polar_decompose"),
    ("cycles.cycle_space_report", "cycles", "cycle_space_report"),
    ("report.build_report", "report", "build_report"),
    ("report.serialize_report", "report", "serialize_report"),
)
EIG = "spectral.eig"
EIG_FUNCTIONS = ("eigvalsh", "eigh", "svd", "qr")
SPAN_NAMES = tuple(name for name, _, _ in TRACED) + (EIG,)
COUNTERS = (
    "operators.super_nnz",
    "spectral.eig_flops_computed",
    "spectral.eig_bytes_computed",
    "report.output_bytes",
)
HOOK = "trace.hook"


def eig_flops(function: str, args: tuple, kwargs: dict, result) -> float:
    """Textbook flop count of one dense factorization, from the matrix shape.

    Golub and Van Loan's counts: symmetric eigenvalues 4N^3/3, with
    eigenvectors 9N^3; SVD of an l x k matrix (l >= k) 4lk^2 - 4k^3/3 for
    values alone, 4l^2k + 22k^3 with both factors; Householder QR with Q
    formed 4lk^2 - 4k^3/3.  Complex input costs four times as much.
    """
    a = args[0] if args else kwargs["a"]
    l, k = max(a.shape[-2:]), min(a.shape[-2:])
    if function == "eigvalsh":
        flops = 4 * k**3 / 3
    elif function == "eigh":
        flops = 9 * k**3
    elif function == "svd" and not kwargs.get("compute_uv", True):
        flops = 4 * l * k * k - 4 * k**3 / 3
    elif function == "svd":
        flops = 4 * l * l * k + 22 * k**3
    else:
        flops = 4 * l * k * k - 4 * k**3 / 3
    return flops * (4 if a.dtype.kind == "c" else 1)


def array_bytes(args: tuple, kwargs: dict, result) -> int:
    """Bytes of the input matrix plus every array returned: the least traffic possible."""
    a = args[0] if args else kwargs["a"]
    outputs = result if isinstance(result, tuple) else (result,)
    return a.nbytes + sum(getattr(x, "nbytes", 0) for x in outputs)


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self, traced: tuple[tuple[str, str, str], ...] = TRACED) -> None:
        self.traced = traced
        self.spans: list[tuple[int, str, int | None, int, int, int]] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installing --

    def install(self) -> None:
        import numpy.linalg

        importlib.import_module("susygraph")
        self.absent = []
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "susygraph" or name.startswith("susygraph."))
        ]
        hooks = {
            "operators.build_super_operators": self._count_super_nnz,
            "report.serialize_report": self._count_output_bytes,
        }
        for name, module_name, attr in self.traced:
            module = sys.modules.get(f"susygraph.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, hooks.get(name))
            if owner_name:
                self._patch(owner, fn_name, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        for fn_name in EIG_FUNCTIONS:
            original = vars(numpy.linalg)[fn_name]
            self._patch(numpy.linalg, fn_name, self._wrap(EIG, original, self._eig_hook(fn_name)))

    def uninstall(self) -> None:
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, target, key: str, value) -> None:
        self._patched.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    # -- spans --

    def _open(self) -> tuple[int, int | None, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter_ns()

    def _close(self, name: str, opened: tuple[int, int | None, int]) -> None:
        end = time.perf_counter_ns()
        span_id, parent, start = opened
        self._stack.pop()
        self.spans.append((span_id, name, parent, self.op, start, end))

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, opened)
            if hook is not None:
                opened = tracer._open()
                try:
                    hook(args, kwargs, result)
                finally:
                    tracer._close(HOOK, opened)
            return result

        return traced

    # -- counters --

    def _count_super_nnz(self, args, kwargs, sup) -> None:
        maps = {id(v): v for v in vars(sup).values() if isinstance(getattr(type(v), "nnz", None), property)}
        self.counters["operators.super_nnz"] += sum(m.nnz for m in maps.values())

    def _count_output_bytes(self, args, kwargs, text) -> None:
        self.counters["report.output_bytes"] += len(text.encode("utf-8"))

    def _eig_hook(self, function: str):
        def hook(args, kwargs, result) -> None:
            self.counters["spectral.eig_flops_computed"] += eig_flops(function, args, kwargs, result)
            self.counters["spectral.eig_bytes_computed"] += array_bytes(args, kwargs, result)

        return hook

    # -- results --

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "parent": parent, "op": op, "start_ns": start, "end_ns": end}
            for i, name, parent, op, start, end in self.spans
        ]


def layer_totals(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """Calls, self seconds and total (inclusive) seconds per span name, over all given spans."""
    child_ns: dict[tuple[int, int], int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[(s["op"], s["parent"])] += s["end_ns"] - s["start_ns"]
    totals: dict[str, list] = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        entry = totals[s["name"]]
        entry[0] += 1
        entry[1] += duration - child_ns.get((s["op"], s["id"]), 0)
        entry[2] += duration
    return {name: (calls, self_ns / 1e9, total_ns / 1e9) for name, (calls, self_ns, total_ns) in totals.items()}


def write_jsonl(path, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")
