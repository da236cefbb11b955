"""Report assembly, serialization determinism, CLI behavior and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from susygraph.cli import main
from susygraph.graph import DirectedGraph, format_edge_list, parse_edge_list
from susygraph.operators import path_graph
from susygraph.report import build_report, round_float, serialize_json, serialize_report

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


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n=2\n0 0\n")
    code = main(["report", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "self-loop" in err


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
    rep = build_report(C3)
    rep["meta"]["tolerance"] = float("nan")
    with pytest.raises(ValueError):
        serialize_json(rep)


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
