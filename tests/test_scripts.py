"""The example scripts run against the current analysis API."""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import susygraph.cli
import susygraph.report
from susygraph.operators import build_incidence, build_super_operators

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "args",
    [
        ["scripts/survey_random_graphs.py", "--graphs", "5", "--max-vertices", "12"],
        ["scripts/transport_demo.py", "graphs/c3.txt"],
    ],
)
def test_script_exits_zero(args):
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout


def load_script(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
@pytest.mark.parametrize(
    "name, args",
    [("survey_random_graphs", ["--graphs", "2"]), ("transport_demo", [str(ROOT / "graphs/c3.txt")])],
)
def test_script_rejects_invalid_tolerance(name, args, tol, monkeypatch, capsys):
    script = load_script(name, monkeypatch)
    with pytest.raises(SystemExit) as exited:
        script.main([*args, f"--tol={tol}"])
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert out == ""
    assert "--tol must be positive and finite" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--graphs", "0"], "--graphs must be at least 1, got 0"),
        (["--graphs", "-2"], "--graphs must be at least 1, got -2"),
        (["--max-vertices", "1"], "--max-vertices must be at least 2, got 1"),
    ],
)
def test_survey_rejects_invalid_counts(args, message, monkeypatch, capsys):
    script = load_script("survey_random_graphs", monkeypatch)
    with pytest.raises(SystemExit) as exited:
        script.main(args)
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert out == ""
    assert message in err


def test_survey_names_each_failed_check(monkeypatch, capsys):
    survey = load_script("survey_random_graphs", monkeypatch)
    monkeypatch.setattr(susygraph.report, "path_second_difference_ok", lambda num_vertices: False)
    result = survey.survey(survey.SurveyConfig(graphs=3, max_vertices=8))
    failed = ["meta.all_pass", "meta.selftest.path_stencil_ok"]
    assert list(result.violations.values()) == [failed] * 3
    survey.print_summary(survey.SurveyConfig(graphs=3), result, 0.0)
    out = capsys.readouterr().out
    assert "failed checks in meta     6" in out
    assert out.count("meta.selftest.path_stencil_ok") == 3


def test_survey_gap_skips_the_exact_zero_block(monkeypatch):
    # at this tol the zero block's eigensolver noise lies above tol
    survey = load_script("survey_random_graphs", monkeypatch)
    result = survey.survey(survey.SurveyConfig(graphs=3, max_vertices=8, tol=1e-300))
    # Fiedler: a connected graph on k <= 8 vertices has lambda_2 >= 2 - 2 cos(pi / 8) > 0.15
    assert result.spectral_gaps and min(result.spectral_gaps) > 0.15


def test_transport_demo_fails_below_eigensolver_noise(monkeypatch, capsys):
    # the eigensolver's own pairs miss this tolerance: a FAIL verdict, not NotAnEigenpair
    demo = load_script("transport_demo", monkeypatch)
    assert demo.main([str(ROOT / "graphs/c3.txt"), "--tol", "1e-20"]) == 1
    assert capsys.readouterr().out.rstrip().endswith(": FAIL")


@pytest.mark.parametrize(
    "content, expected",
    [
        (None, "cannot read {path}: "),
        (b"\xff\xfe n=2\n", "cannot read {path}: 'utf-8' codec can't decode"),
        (b"0 1\n", "{path}: line 1: expected 'n=<count>' first"),
    ],
)
def test_transport_demo_rejects_unreadable_input(content, expected, tmp_path, monkeypatch, capsys):
    demo = load_script("transport_demo", monkeypatch)
    path = tmp_path / "graph.txt"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as exited:
        demo.main([str(path)])
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert out == ""
    assert f"error: {expected.format(path=path)}" in err and err.count("error:") == 1


@pytest.mark.parametrize(
    "limit, value, message",
    [
        ("MAX_VERTICES", 2, "graph too large (n = 3, limit 2)"),
        ("MAX_DENSE_SIZE", 5, "graph too large (n + m = 6, limit 5)"),
    ],
)
def test_transport_demo_refuses_oversized_graph(limit, value, message, monkeypatch, capsys):
    # c3 has n = 3 and n + m = 6; lowering a limit below it exercises the rule on a small graph
    demo = load_script("transport_demo", monkeypatch)
    monkeypatch.setattr(susygraph.cli, limit, value)
    path = ROOT / "graphs/c3.txt"
    with pytest.raises(SystemExit) as exited:
        demo.main([str(path)])
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert out == ""
    assert f"error: {path}: {message}" in err


@pytest.mark.parametrize(
    "limit, value, message",
    [
        ("MAX_VERTICES", 3, "graph too large (n = 8, limit 3)"),
        ("MAX_DENSE_SIZE", 10, "graph too large (n + m = 23, limit 10)"),
        ("MAX_EXACT_SIZE", 20, "graph too large (edge Laplacian up to 115 entries, limit 20)"),
    ],
)
def test_survey_refuses_oversized_graph(limit, value, message, monkeypatch, capsys):
    # the first graph of seed 0 with at most 8 vertices has n = 8 and m = 15
    survey = load_script("survey_random_graphs", monkeypatch)
    monkeypatch.setattr(susygraph.cli, limit, value)
    monkeypatch.setattr(survey, "build_report", _fail_if_reported)
    with pytest.raises(SystemExit) as exited:
        survey.main(["--graphs", "3", "--max-vertices", "8"])
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert out == ""
    assert f"error: graph 0 (n=8, m=15, oriented): {message}" in err


def _fail_if_reported(*args, **kwargs):
    raise AssertionError("an oversized graph reached build_report")


def test_survey_builds_each_graph_once(monkeypatch):
    survey = load_script("survey_random_graphs", monkeypatch)
    counted = {f.__name__: f for f in (build_incidence, build_super_operators, np.linalg.eigvalsh)}
    calls = dict.fromkeys(counted, 0)

    def recorder(name, fn):
        def record(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return record

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "susygraph"]
    for module in [*modules, survey, np.linalg]:
        for name, fn in counted.items():
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, recorder(name, fn))
    result = survey.survey(survey.SurveyConfig(graphs=3, max_vertices=12))
    assert result.clean, result.violations
    # each report also builds the 50-vertex path of its stencil self-test;
    # pairing: the two Laplacians and H; dirac: q1 and q2, sharing H's spectrum
    assert calls == {"build_incidence": 3 + 3, "build_super_operators": 3, "eigvalsh": 3 * 5}


def run_compare_outputs(other, *args):
    return subprocess.run(
        [sys.executable, "scripts/compare_outputs.py", str(other), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_compare_outputs_finds_this_checkout_identical_to_itself():
    proc = run_compare_outputs(ROOT, "--graphs", "3", "--seed", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "180 of 180 cases identical"


def test_compare_outputs_names_the_cases_a_changed_writer_breaks(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "susygraph" / "report.py"
    text = report.read_text(encoding="utf-8")
    # One byte of serialize_json: its closing newline becomes a space.
    changed = text.replace('return _json(report, "") + "\\n"', 'return _json(report, "") + " "')
    assert len(changed) == len(text) - 1
    report.write_text(changed, encoding="utf-8")
    proc = run_compare_outputs(tmp_path, "--graphs", "0")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differing = [line for line in proc.stdout.splitlines() if line.startswith("differs: ")]
    assert "differs: report c3.txt --format json --tol 1e-8 (stdout)" in differing
    # every json case differs, and no text case
    assert len(differing) == 6 * 5 * 2
    assert not [line for line in differing if "--format text" in line]


def test_compare_outputs_names_the_report_key_that_changed(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "susygraph" / "report.py"
    text = report.read_text(encoding="utf-8")
    # One value of the polar section: its rank, printed one too high.
    polar = 'rep = polar_decompose(inc)\n    return {\n        "rank": rep.rank,'
    assert text.count(polar) == 1
    report.write_text(text.replace(polar, polar[:-1] + " + 1,"), encoding="utf-8")
    proc = run_compare_outputs(tmp_path, "--graphs", "0")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differing = [line for line in proc.stdout.splitlines() if line.startswith("differs: ")]
    assert "differs: report c3.txt --format json --tol 1e-8 (stdout: polar.rank)" in differing
    assert "differs: report c3.txt --format text --tol 1e-8 (stdout)" in differing
    # only report prints polar: every report case differs, json ones by that key alone
    assert len(differing) == 6 * 2 * 2
    assert all(line.startswith("differs: report ") for line in differing)
    json_lines = [line for line in differing if "--format json" in line]
    assert len(json_lines) == 6 * 2
    assert all(line.endswith(" (stdout: polar.rank)") for line in json_lines)
