"""Report assembly, serialization determinism, CLI behavior and exit codes."""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import directed_graphs
import susygraph.cli
import susygraph.operators
import susygraph.report
from susygraph.cli import edge_laplacian_bound, main
from susygraph.cycles import fundamental_cycle_basis
from susygraph.graph import (
    ORIENTED,
    SYMMETRIC,
    DirectedGraph,
    format_edge_list,
    parse_edge_list,
    spanning_forest,
)
from susygraph.linalg import LinearMap, exact_kernel_basis, exact_rank
from susygraph.operators import (
    adjacency_direct,
    build_incidence,
    build_super_operators,
    build_vertex_operators,
    degree_in_direct,
    degree_out_direct,
    laplacian_direct,
    path_graph,
)
from susygraph.rand import random_graph
from susygraph.report import (
    _stencil_selftest,
    build_report,
    failed_checks,
    round_float,
    serialize_json,
    serialize_report,
    serialize_text,
)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
TOP_KEYS = {"graph", "algebra", "grading", "kernel", "spectra", "pairing", "polar", "cycles", "meta"}

C3 = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "susygraph.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_round_float_fifteen_digits():
    assert round_float(1.0) == 1.0
    assert round_float(0.1 + 0.2) == round_float(0.30000000000000004)
    assert json.dumps(round_float(np_sqrt2())) == json.dumps(round_float(np_sqrt2()))


def np_sqrt2():
    import numpy as np

    return float(np.sqrt(2.0))


def test_report_schema_and_verdict():
    rep = build_report(C3)
    assert set(rep) == TOP_KEYS
    assert rep["meta"]["all_pass"] is True
    assert rep["kernel"]["dim_ker_d_star"] == 1
    assert rep["cycles"]["cycle_count"] == 1
    assert rep["graph"]["num_edges"] == 3
    assert rep["meta"]["selftest"]["path_stencil_ok"] is True
    assert rep["meta"]["consistency"]["hamiltonian_zero_count_matches"] is True
    assert rep["meta"]["consistency"]["cycles_match_fermionic_zero_modes"] is True


def test_report_sections_subset():
    rep = build_report(C3, sections=("kernel",))
    assert set(rep) == TOP_KEYS
    assert rep["kernel"] is not None
    for key in ("algebra", "grading", "spectra", "pairing", "polar", "cycles"):
        assert rep[key] is None
    assert "hamiltonian_zero_count_matches" not in rep["meta"]["consistency"]


def test_serialization_deterministic():
    a = serialize_report(build_report(C3), "json")
    b = serialize_report(build_report(C3), "json")
    assert a == b
    parsed = json.loads(a)
    assert set(parsed) == TOP_KEYS
    # keys are sorted in the byte stream
    assert a == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_text_format_mirrors_sections():
    text = serialize_report(build_report(C3), "text")
    for section in TOP_KEYS:
        assert f"[{section}]" in text
    assert "pass" in text
    with pytest.raises(ValueError):
        serialize_report(build_report(C3), "yaml")


def test_seed_changes_only_selftest_input():
    a = build_report(C3, seed=1)
    b = build_report(C3, seed=2)
    assert a["meta"]["selftest"]["stencil_ok"] and b["meta"]["selftest"]["stencil_ok"]
    a["meta"].pop("selftest")
    b["meta"].pop("selftest")
    a["meta"].pop("seed")
    b["meta"].pop("seed")
    assert a == b


def test_stencil_selftest_exact_on_high_degree_hub():
    # Float test values once summed 2000 terms at the hub: a defect of 2.27e-12 > 1e-12.
    star = DirectedGraph(2001, tuple((0, leaf) for leaf in range(1, 2001)))
    selftest = _stencil_selftest(build_incidence(star), seed=0)
    assert selftest["random_stencil_defect"] == 0.0
    assert selftest["stencil_ok"] is True


def _limit_address_space():
    # A dense float64 Laplacian of 20000 vertices alone would need 2.98 GiB.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_check_on_wide_sparse_graph_needs_no_dense_laplacian(tmp_path):
    wide = tmp_path / "wide.txt"
    wide.write_text("n=20000\n0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "susygraph.cli", "check", str(wide), "--format", "json"],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["meta"]["selftest"]["random_stencil_defect"] == 0.0


def _run_with_address_limit(*args):
    return subprocess.run(
        [sys.executable, "-m", "susygraph.cli", *args],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        timeout=20,
    )


def _write_many_components(tmp_path) -> Path:
    """20000 directed triangles plus 40000 isolated vertices: n = 10**5, 60000 components."""
    triangles = tuple(
        edge
        for a in range(0, 60000, 3)
        for edge in ((a, a + 1), (a + 1, a + 2), (a + 2, a))
    )
    many = tmp_path / "many_components.txt"
    many.write_text(format_edge_list(DirectedGraph(100000, triangles)), encoding="utf-8")
    return many


@pytest.mark.parametrize("command", ["kernel", "cycles"])
def test_kernel_and_cycles_scale_on_long_path(command, tmp_path):
    # Eager Gauss-Jordan back-substitution once made a 20000-vertex path quadratic.
    path = tmp_path / "path.txt"
    path.write_text(format_edge_list(path_graph(20000)), encoding="utf-8")
    # One spanning tree per component, each listing every non-tree edge of the
    # graph, once made 60000 components quadratic in time and memory.
    many = _write_many_components(tmp_path)
    for graph_file, rank, bosonic, cycle_count in ((path, 19999, 1, 0), (many, 40000, 60000, 20000)):
        _assert_sparse_run(command, graph_file, rank, bosonic, cycle_count)


def _assert_sparse_run(command: str, graph_file: Path, rank: int, bosonic: int, cycle_count: int):
    """kernel or cycles on graph_file passes within the limits and reports these counts."""
    proc = _run_with_address_limit(command, str(graph_file), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["meta"]["all_pass"] is True
    if command == "kernel":
        assert rep["kernel"]["rank"] == rank
        assert rep["kernel"]["zero_modes"]["bosonic"] == bosonic
    else:
        assert rep["cycles"]["cycle_count"] == cycle_count


def _wheel(spokes: int, rim_first: bool = False) -> DirectedGraph:
    """Hub 0 with a spoke to each rim vertex 1..spokes, then the rim cycle 1 -> 2 -> ... -> 1.

    rim_first numbers the rim edges before the spokes.
    """
    rim = range(1, spokes + 1)
    spoke_edges = tuple((0, v) for v in rim)
    rim_edges = tuple((v, v % spokes + 1) for v in rim)
    edges = rim_edges + spoke_edges if rim_first else spoke_edges + rim_edges
    return DirectedGraph(spokes + 1, edges)


@pytest.mark.parametrize("command", ["kernel", "cycles"])
def test_kernel_and_cycles_scale_on_hubs(command, tmp_path):
    # Rows taken in index order once made a hub quadratic: each leaf row was
    # cleared against the hub's pivot row and filled in.
    star = DirectedGraph(10001, tuple((0, leaf) for leaf in range(1, 10001)))
    for name, graph, rank, bosonic, cycle_count in (
        ("star", star, 10000, 1, 0),
        ("wheel", _wheel(10000), 10000, 1, 10000),
        # ker d by elimination once made this order quadratic (39 s, 2.3 GB)
        ("rim_first_wheel", _wheel(4000, rim_first=True), 4000, 1, 4000),
    ):
        graph_file = tmp_path / f"{name}.txt"
        graph_file.write_text(format_edge_list(graph), encoding="utf-8")
        _assert_sparse_run(command, graph_file, rank, bosonic, cycle_count)


def test_check_scales_on_many_components(tmp_path):
    proc = _run_with_address_limit("check", str(_write_many_components(tmp_path)), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["meta"]["all_pass"] is True
    assert rep["algebra"]["all_pass"] is True and rep["grading"]["all_pass"] is True


@pytest.mark.parametrize("command", ["kernel", "cycles"])
def test_kernel_and_cycles_build_no_super_operators(command, tmp_path, monkeypatch, capsys):
    # The edge Laplacian of a 2000-leaf star alone has 2000**2 entries.
    star = tmp_path / "star.txt"
    star.write_text(format_edge_list(DirectedGraph(2001, tuple((0, k) for k in range(1, 2001)))))
    monkeypatch.setattr(susygraph.operators, "build_super_operators", _fail_if_called)
    assert main([command, str(star), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["all_pass"] is True


def test_digest_tracks_source_text():
    direct = build_report(C3)
    text = (GRAPHS / "c3.txt").read_text()
    from_file = build_report(parse_edge_list(text), source_text=text)
    assert direct["meta"]["input_digest"] != from_file["meta"]["input_digest"]
    again = build_report(parse_edge_list(text), source_text=text)
    assert from_file["meta"]["input_digest"] == again["meta"]["input_digest"]


def test_cli_report_json_exit_zero(capsys):
    code = main(["report", str(GRAPHS / "c3.txt"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["meta"]["all_pass"] is True
    assert rep["kernel"]["dim_ker_d_star"] == 1


def test_cli_check_text(capsys):
    code = main(["check", str(GRAPHS / "k2.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[algebra]" in out and "[grading]" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("command", ["report", "check", "spectrum", "kernel", "cycles"])
def test_cli_subcommands_pass_on_c3(command, capsys):
    assert main([command, str(GRAPHS / "c3.txt"), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == TOP_KEYS


def test_cli_missing_file(capsys):
    code = main(["report", "does_not_exist.txt"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err


def test_cli_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe n=2\n")
    code = main(["check", str(bad)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n=2\n0 0\n")
    code = main(["report", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "self-loop" in err


def test_cli_rejects_a_number_that_int_alone_would_take(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n=3\n0 \uff11\n", encoding="utf-8")  # a fullwidth one
    code = main(["report", str(bad), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: line 2: non-integer endpoint in '0 \uff11'\n"


def test_cli_mode_override_failure(capsys):
    code = main(["report", str(GRAPHS / "c3.txt"), "--mode-override", "symmetric"])
    err = capsys.readouterr().err
    assert code == 2
    assert "symmetric mode requires" in err


def test_cli_mode_override_success(capsys):
    code = main(["report", str(GRAPHS / "c3_symmetric.txt"), "--mode-override", "oriented"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oriented" in out


def test_cli_bad_tolerance(capsys):
    code = main(["report", str(GRAPHS / "c3.txt"), "--tol", "-1"])
    assert code == 2
    assert "--tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_tolerance(tol, capsys):
    code = main(["report", str(GRAPHS / "c3.txt"), f"--tol={tol}", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "--tol must be positive and finite" in err


def test_serialize_json_refuses_nan():
    for bad in (float("nan"), float("inf"), float("-inf")):
        rep = build_report(C3)
        rep["meta"]["tolerance"] = bad
        with pytest.raises(ValueError):
            serialize_json(rep)
        rep = build_report(C3)
        rep["spectra"]["q1"][1] = bad  # an entry of a list of floats
        with pytest.raises(ValueError):
            serialize_json(rep)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


JSON_SHAPES = [
    {},
    [],
    None,
    {"empty list": [], "empty dict": {}, "none": None},
    [True, 1, False, 0],
    [[1, True], [False, 0]],
    2**70,
    [2**70, -(2**70), 0],
    [-0.0, 1e16, 1e-300, 0.1, -2.5],
    [1, 2.5],
    {"\u00e9t\u00e9": [1.5, 2], "snow \u2603": "\u2603\n\"q\"", "b": {"a": -0.0}},
    [[1, 2], [3, -4], [2**70, 0]],
    [[1, 2, 3]],
    [[1, 2.0]],
    [[[0, 1], [2, -1]], [], [[5, 1]]],
    ([1, 2], (3, 4)),
]


def test_serialize_json_matches_json_dumps():
    golden = Path(__file__).resolve().parent / "golden"
    reports = [json.loads((golden / f"{name}_report.json").read_text()) for name in ("c3", "tree")]
    for path in sorted(GRAPHS.glob("*.txt")):
        graph = parse_edge_list(path.read_text(encoding="utf-8"))
        reports.extend(build_report(graph, sections=sections) for sections in susygraph.cli.SECTIONS.values())
    rng = random.Random(18)
    for i in range(8):
        mode = ORIENTED if i % 2 else SYMMETRIC
        reports.append(build_report(random_graph(rng, rng.randint(2, 14), rng.uniform(0.1, 0.6), mode)))
    for obj in reports + JSON_SHAPES:
        assert serialize_json(obj) == _json_dumps(obj)


def test_small_eigenvalue_within_tol_is_not_a_zero_mode(tmp_path, capsys):
    # the 60-vertex path has one exact zero mode and lambda_2 ~ 0.0027 < tol
    path = tmp_path / "path60.txt"
    path.write_text(format_edge_list(path_graph(60)), encoding="utf-8")
    code = main(["report", str(path), "--tol", "1e-2", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["kernel"]["dim_ker_HS"] == 1
    assert 0 < rep["spectra"]["hamiltonian"][1] <= 1e-2
    assert rep["meta"]["consistency"]["hamiltonian_zero_count_matches"] is True
    assert code == 0


def test_cli_impossible_tolerance_fails_checks(capsys):
    # a tolerance below eigensolver noise turns spectral verdicts false
    code = main(["spectrum", str(GRAPHS / "c3.txt"), "--tol", "1e-300", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["meta"]["all_pass"] is False


def _fail_lines(text: str) -> list[str]:
    """Section-qualified keys of the text form's FAIL lines."""
    failed, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line.endswith(" FAIL"):
            failed.append(f"{section}.{line.split()[0]}")
    return failed


def _path_stencil_fails(monkeypatch):
    monkeypatch.setattr(susygraph.report, "path_second_difference_ok", lambda num_vertices: False)


def test_path_stencil_selftest_decides_the_verdict(monkeypatch, capsys):
    _path_stencil_fails(monkeypatch)
    rep = build_report(C3)
    assert rep["meta"]["all_pass"] is False
    assert failed_checks(rep) == ["meta.all_pass", "meta.selftest.path_stencil_ok"]
    assert main(["report", str(GRAPHS / "c3.txt"), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["meta"]["all_pass"] is False


def test_failed_checks_names_nested_false_booleans():
    report = {
        "b": {"ok": False, "fine": True, "inner": {"deep": False}},
        "a": [True, False, [0, False]],
        "c": [{"x": False, "y": 0}, {"x": True}, {"z": [False]}],
        "d": False,
        "e": 0,
    }
    assert failed_checks(report) == ["a.1", "a.2.1", "b.inner.deep", "b.ok", "c.0.x", "c.2.z.0", "d"]


@pytest.mark.parametrize("broken_stencil", [False, True])
@pytest.mark.parametrize("tol", [1e-8, 1e-300])
def test_text_fail_lines_are_the_failed_checks(tol, broken_stencil, monkeypatch):
    if broken_stencil:
        _path_stencil_fails(monkeypatch)
    rep = build_report(C3, tol=tol)
    failed = failed_checks(rep)
    assert sorted(_fail_lines(serialize_text(rep))) == sorted(failed)
    assert rep["meta"]["all_pass"] is (not failed)
    assert ("meta.selftest.path_stencil_ok" in failed) is broken_stencil
    # eigensolver noise fails the spectral checks at 1e-300
    assert ("pairing.verdict" in failed) is (tol == 1e-300)


def test_report_computes_each_exact_quantity_once(monkeypatch):
    counted = {
        f.__name__: f
        for f in (
            exact_kernel_basis,
            exact_rank,
            build_super_operators,
            build_vertex_operators,
            fundamental_cycle_basis,
            spanning_forest,
            degree_in_direct,
            degree_out_direct,
            adjacency_direct,
            laplacian_direct,
        )
    }
    calls = {name: [] for name in counted}
    products = []
    matmul = LinearMap.__matmul__

    def record_product(self, other):
        products.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(LinearMap, "__matmul__", record_product)

    def recorder(name, fn):
        def record(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return record

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "susygraph":
            continue
        for name, fn in counted.items():
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, recorder(name, fn))
    # two components: a 3-cycle, so the tree part of d differs from d, and a reciprocal pair;
    # then a tree, whose tree part of d is d itself
    for graph in (
        DirectedGraph(5, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3))),
        DirectedGraph(4, ((0, 1), (2, 1), (1, 3))),
    ):
        inc = build_incidence(graph)

        def vertex_laplacian_products():
            return sum(1 for a, b in products if a == inc.diff_adj and b == inc.diff)

        # from a copy of graph, so that graph's own spanning forest is still to be built
        copy = DirectedGraph(graph.num_vertices, graph.edges, graph.mode)
        cycle_matrix = build_incidence(copy).cycle_matrix

        def cycle_closure_products():
            return sum(1 for a, b in products if a == inc.diff_adj and b == cycle_matrix)

        for recorded in (*calls.values(), products):
            recorded.clear()
        rep = build_report(graph)
        assert rep["meta"]["all_pass"] is True
        # ker d is read off the forest and polar's projectors read it and the cycles, so no
        # section eliminates for a kernel basis
        assert calls["exact_kernel_basis"] == []
        # the zero-mode and cycle-space checks share d* C
        assert cycle_closure_products() == 1
        assert sum(1 for args in calls["exact_rank"] if args[0] == inc.diff) == 1
        assert len(calls["build_super_operators"]) == 1
        assert len(calls["build_vertex_operators"]) == 1
        assert len(calls["fundamental_cycle_basis"]) == 1
        assert len(calls["spanning_forest"]) == 1
        # the direct oracles once each, and d* d once: H's vertex block, the
        # factorization check and the pairing spectra all read inc.vertex_laplacian
        for name in ("degree_in_direct", "degree_out_direct", "adjacency_direct"):
            assert len(calls[name]) == 1
        assert calls["laplacian_direct"] == []
        assert vertex_laplacian_products() == 1
        products.clear()
        assert build_report(graph, sections=("algebra", "grading"))["meta"]["all_pass"] is True
        assert vertex_laplacian_products() == 1
        for recorded in (*calls.values(), products):
            recorded.clear()
        assert build_report(graph, sections=("kernel", "cycles"))["meta"]["all_pass"] is True
        assert calls["exact_kernel_basis"] == []
        assert cycle_closure_products() == 1


@pytest.mark.parametrize(
    "command, vertex_builds, super_builds",
    [("kernel", 0, 0), ("cycles", 0, 0), ("spectrum", 0, 1), ("check", 1, 1), ("report", 1, 1)],
)
def test_each_command_builds_only_the_operators_it_reads(
    command, vertex_builds, super_builds, monkeypatch, capsys
):
    # the stencil self-test reads inc.vertex_laplacian, so only the algebra
    # section's factorization check builds the degree and adjacency operators
    calls = {"build_vertex_operators": 0, "build_super_operators": 0}

    def counted(name, fn):
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(susygraph.operators, name, counted(name, getattr(susygraph.operators, name)))
    assert main([command, str(GRAPHS / "c3.txt"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["all_pass"] is True
    assert calls == {"build_vertex_operators": vertex_builds, "build_super_operators": super_builds}


def _fail_if_built(*args, **kwargs):
    raise AssertionError("an oversized graph reached build_report")


def _fail_if_called(*args, **kwargs):
    raise AssertionError("built super operators that no requested section reads")


@pytest.mark.parametrize("command", ["report", "spectrum"])
def test_cli_refuses_graph_too_large_for_dense_sections(command, tmp_path, monkeypatch, capsys):
    big = tmp_path / "big.txt"
    big.write_text("n=100000\n0 1\n")
    monkeypatch.setattr(susygraph.cli, "build_report", _fail_if_built)
    code = main([command, str(big), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"error: {big}: graph too large (n + m = 100001, limit 4096)" in err


def test_cli_refuses_graph_too_large_for_exact_algebra(tmp_path, monkeypatch, capsys):
    # 4000 leaves: n + m = 8001, and the edge Laplacian has 4000**2 = 16M entries.
    star = tmp_path / "star.txt"
    star.write_text(format_edge_list(DirectedGraph(4001, tuple((0, k) for k in range(1, 4001)))))
    monkeypatch.setattr(susygraph.operators, "build_super_operators", _fail_if_called)
    code = main(["check", str(star), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"error: {star}: graph too large (edge Laplacian up to 16000000 entries, limit 8388608)" in err


@pytest.mark.parametrize("command", list(susygraph.cli.SECTIONS))
def test_cli_refuses_too_many_vertices(command, tmp_path, monkeypatch, capsys):
    # 12 bytes of input; check, kernel and cycles once ran out of memory on it
    big = tmp_path / "big.txt"
    big.write_text("n=100000000\n")
    monkeypatch.setattr(susygraph.cli, "build_report", _fail_if_built)
    code = main([command, str(big), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"error: {big}: graph too large (n = 100000000, limit 1000000)" in err


@pytest.mark.parametrize("limit", [2, 3])
def test_cli_vertex_limit_admits_its_bound(limit, monkeypatch):
    monkeypatch.setattr(susygraph.cli, "MAX_VERTICES", limit)
    assert main(["kernel", str(GRAPHS / "c3.txt"), "--format", "json"]) == (2 if limit < 3 else 0)


@pytest.mark.parametrize("limit", [8, 9])
@pytest.mark.parametrize("command", ["report", "check", "spectrum", "kernel", "cycles"])
def test_cli_exact_size_limit_only_for_algebra_sections(command, limit, monkeypatch):
    # c3 bounds its edge Laplacian by 3 + 3 * 2 * 1 = 9 entries
    monkeypatch.setattr(susygraph.cli, "MAX_EXACT_SIZE", limit)
    refused = limit < 9 and command in ("report", "check")
    assert main([command, str(GRAPHS / "c3.txt"), "--format", "json"]) == (2 if refused else 0)


@settings(max_examples=60, deadline=None)
@given(directed_graphs(max_vertices=10))
def test_edge_laplacian_bound_counts_entries(g):
    # exact but for reciprocal pairs, whose two entries are counted at both shared vertices
    nnz = build_incidence(g).edge_laplacian.nnz
    assert edge_laplacian_bound(g) == nnz + 2 * len(g.reciprocal_pairs)


@pytest.mark.parametrize(
    "command, expected", [("report", 2), ("spectrum", 2), ("check", 0), ("kernel", 0), ("cycles", 0)]
)
def test_cli_size_limit_only_for_dense_sections(command, expected, monkeypatch, capsys):
    # c3 has n + m = 6; lowering the limit below it exercises the rule on a small graph
    monkeypatch.setattr(susygraph.cli, "MAX_DENSE_SIZE", 5)
    assert main([command, str(GRAPHS / "c3.txt"), "--format", "json"]) == expected


def test_huge_tolerance_prints_no_warning():
    # tol * scale overflows to inf near the float maximum; the bound stays inf, silently.
    code, out, err = run_cli("report", str(GRAPHS / "c3.txt"), "--tol", "1e308", "--format", "json")
    assert code == 0
    assert err == ""
    assert json.loads(out)["meta"]["all_pass"] is True


def test_cli_subprocess_round_trip():
    code, out, err = run_cli("report", str(GRAPHS / "tree.txt"), "--format", "json")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["cycles"]["cycle_count"] == 0
    assert rep["kernel"]["dim_ker_HS"] == 1


def test_cli_usage_error_exit_two():
    code, _, err = run_cli("report")
    assert code == 2
    assert "usage" in err.lower()
