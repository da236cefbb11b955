"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads as wl

# Small graphs of the report_sparse generator, so traced runs stay fast: a tree and two near-trees.
TINY = dataclasses.replace(
    wl.WORKLOADS["report_sparse"], design=((6, 0.0, "oriented"), (9, 0.2, "oriented"), (12, 0.1, "oriented"))
)


@pytest.fixture(scope="module", autouse=True)
def program():
    run.import_program()


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    """Two set-up probes per run instead of eleven: each is a fresh interpreter."""
    monkeypatch.setattr(run, "SETUP_PROBES", 2)


def first_pass(workload: wl.Workload, seed: int) -> list[wl.Case]:
    return [wl.generate(workload, seed, i) for i in range(len(workload.design))]


@pytest.mark.parametrize("name", ["check_population", "spectrum_dense", "report_sparse"])
def test_seed_determines_inputs(name):
    workload = wl.WORKLOADS[name]
    same = first_pass(workload, 3)
    assert [c.text for c in same] == [c.text for c in first_pass(workload, 3)]
    other = first_pass(workload, 4)
    assert [c.text for c in same] != [c.text for c in other]
    # another seed draws other graphs on the same design: the same sizes, pass by pass
    assert sorted(c.num_vertices for c in same) == sorted(c.num_vertices for c in other)
    assert sorted(c.num_vertices for c in same) == sorted(n for n, _, _ in workload.design)
    second = [wl.generate(workload, 3, len(workload.design) + i) for i in range(len(workload.design))]
    assert not {c.text for c in same} & {c.text for c in second}


def test_cli_passes_visit_every_example_once():
    paths = wl.example_graphs(run.ROOT)
    for seed in (0, 1):
        for pass_no in range(3):
            visited = [wl.cli_order(paths, seed, pass_no * len(paths) + i) for i in range(len(paths))]
            assert sorted(visited) == paths
    orders = {tuple(wl.cli_order(paths, seed, i) for i in range(len(paths))) for seed in range(8)}
    assert len(orders) > 1


def test_hamiltonian_nnz_matches_dense_count():
    cases = first_pass(TINY, 0) + [wl.generate(wl.WORKLOADS["check_population"], 5, i) for i in range(3)]
    for case in cases:
        d = np.zeros((case.num_edges, case.num_vertices), dtype=int)
        for k, line in enumerate(line for line in case.text.splitlines() if "=" not in line):
            tail, head = map(int, line.split())
            d[k, head] += 1
            d[k, tail] -= 1
        dense = np.count_nonzero(d.T @ d) + np.count_nonzero(d @ d.T)
        assert case.hamiltonian_nnz == dense


def good_output() -> tuple[wl.Case, str]:
    case = wl.read_case(run.ROOT / "graphs/c3.txt")
    runner = run.InProcessRunner(TINY, 0, run.ROOT)
    rc, out = runner.run(run.ROOT / "graphs/c3.txt", None)
    assert rc == 0
    return case, out


def corrupt(out: str, edit) -> str:
    rep = json.loads(out)
    edit(rep)
    return json.dumps(rep, sort_keys=True, indent=2) + "\n"


def test_check_output_accepts_good_and_rejects_bad_outputs():
    case, out = good_output()
    assert run.check_output("report", case, 0, out) is None
    golden = (run.ROOT / "tests/golden/c3_report.json").read_text(encoding="utf-8")
    assert run.check_output("report", case, 0, out, golden) is None

    def set_residual(rep):
        rep["algebra"]["relations"][0]["residual"] = 1

    def set_closure(rep):
        rep["cycles"]["closure_residual"] = 2

    def drop_section(rep):
        rep["pairing"] = None

    def fail_verdict(rep):
        rep["meta"]["all_pass"] = False

    def other_input(rep):
        rep["meta"]["input_digest"] = "0" * 64

    bad = {
        "nonzero exit": (1, out, None),
        "not JSON": (0, out[: len(out) // 2], None),
        "NaN": (0, out.replace('"tolerance": 1e-08', '"tolerance": NaN'), None),
        "golden mismatch": (0, out.replace("\n", "\n ", 1), golden),
        "residual": (0, corrupt(out, set_residual), None),
        "closure": (0, corrupt(out, set_closure), None),
        "missing section": (0, corrupt(out, drop_section), None),
        "verdict": (0, corrupt(out, fail_verdict), None),
        "digest": (0, corrupt(out, other_input), None),
    }
    assert '"tolerance": 1e-08' in out
    for label, (rc, text, gold) in bad.items():
        assert run.check_output("report", case, rc, text, gold) is not None, label


class FaultyRunner:
    """A runner whose second op emits a bad report and whose third op raises."""

    def __init__(self, tmp):
        self.case, self.out = good_output()
        self.pass_size = 4
        self.tmp = tmp
        self.calls = 0

    def prepare(self, index):
        return self.case, run.ROOT / "graphs/c3.txt"

    def golden(self, case):
        return None

    def run(self, path, op):
        self.calls += 1
        if self.calls == 2:
            return 0, self.out.replace('"all_pass": true', '"all_pass": false')
        if self.calls == 3:
            raise RuntimeError("boom")
        return 0, self.out


def test_bad_ops_are_counted_and_the_run_goes_on(tmp_path):
    runner = FaultyRunner(tmp_path)
    tally, _ = run.timed_run(runner, TINY, seconds=0)
    assert len(tally.latencies) == 4
    assert [reason for _, reason in tally.failures] == ["meta.all_pass is not true", "raised RuntimeError('boom')"]


def traced_names(tracer_spec=tracing.TRACED):
    import numpy.linalg

    bound = {}
    for name, module_name, attr in tracer_spec:
        module = sys.modules.get(f"susygraph.{module_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        bound[name] = vars(owner).get(fn_name)
    bound.update({f"numpy.linalg.{fn}": vars(numpy.linalg)[fn] for fn in tracing.EIG_FUNCTIONS})
    bound["report.build_incidence"] = sys.modules["susygraph.report"].build_incidence
    bound["spectral.exact_rank"] = sys.modules["susygraph.spectral"].exact_rank
    bound["cli.parse_edge_list"] = sys.modules["susygraph.cli"].parse_edge_list
    return bound


def test_tracing_keeps_outputs_wraps_importers_and_restores(tmp_path):
    before = traced_names()
    runner = run.InProcessRunner(TINY, 0, tmp_path)
    cases = [runner.prepare(i) for i in range(runner.pass_size)]
    plain = [runner.run(path, None) for _, path in cases]
    with runner.tracer:
        assert sys.modules["susygraph.report"].build_incidence is not before["report.build_incidence"]
        assert sys.modules["susygraph.spectral"].exact_rank is not before["spectral.exact_rank"]
        assert sys.modules["susygraph.cli"].parse_edge_list is not before["cli.parse_edge_list"]
    traced = [runner.run(path, i) for i, (_, path) in enumerate(cases)]
    assert traced == plain
    assert traced_names() == before
    assert runner.tracer.absent == []
    totals = tracing.layer_totals(runner.tracer.records())
    assert totals["cli.main"][0] == len(cases)
    assert totals["operators.build_incidence"][0] == 3 * len(cases)
    for calls, self_s, total_s in totals.values():
        assert 0 <= self_s <= total_s


def test_call_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        runner = run.InProcessRunner(TINY, 1, tmp_path)
        tally, _, passes = run.traced_run(runner, TINY, seconds=0)
        assert not tally.failures
        counts.append({k: v[0] for k, v in tracing.layer_totals(runner.tracer.records()).items()})
    assert counts[0] == counts[1]
    # report runs exact_rank 8 times and exact_kernel_basis 4 times on a graph with a cycle;
    # on a tree the two ranks of the (empty) cycle basis are skipped
    assert counts[0]["linalg.exact_kernel_basis"] == 4 * 3
    assert counts[0]["linalg.exact_rank"] == 6 + 8 + 8


def test_missing_names_are_reported_absent():
    spec = tracing.TRACED + (("linalg.gone", "linalg", "no_such_function"), ("gone.module", "nowhere", "f"))
    before = traced_names()
    with tracing.Tracer(spec) as tracer:
        pass
    assert tracer.absent == ["linalg.gone", "gone.module"]
    assert traced_names() == before


def test_every_declared_metric_is_emitted(tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    probes = [{"setup_s": 0.2, "import_s": 0.1, "interpreter_start_s": 0.05}]
    runner = run.InProcessRunner(TINY, 2, tmp_path)
    tally, _, pass_seconds = run.traced_run(runner, TINY, seconds=0)
    layer, _ = run.per_layer(runner, probes, pass_seconds)
    assert {m["name"] for m in declared["per_layer"]} == set(layer)
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in declared["per_layer"])
    tally, _ = run.timed_run(runner, TINY, seconds=0)
    assert len(tally.probes) == run.SETUP_PROBES
    e2e = run.end_to_end(tally, TINY, runner.peak_rss_kib())
    assert {m["name"] for m in declared["end_to_end"]} == set(e2e)
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in declared["end_to_end"])
    assert {w["name"] for w in declared["workloads"]} == set(wl.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no susygraph package" in done.stderr
