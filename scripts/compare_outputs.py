"""Compare the command line's outputs between this checkout and another.

Every input runs under each of the five commands, in both output formats
and at two tolerances (1e-8, the default, and 1e-300, which fails the
spectral checks).  The inputs are every file in graphs/ plus --graphs
seeded random graphs (near-trees, dense oriented and symmetric graphs),
written once to a temporary directory, and an out-star with --star leaves
when --star is given.  Each checkout runs all cases in one subprocess
that imports the package from that checkout's src/, the two side by side.
A case differs when its exit code or the sha256 of its stdout or stderr
differs; the differing cases are listed and the exit status is 1 if there
are any.  Where the stdout of a JSON case differs, the listing names the
dotted report paths whose values differ, as failed_checks names them, or
says only "stdout" when the two parse to the same report.

Example:
    python3 scripts/compare_outputs.py ../parent-checkout --graphs 50 --seed 3 --star 1000
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("report", "check", "spectrum", "kernel", "cycles")
FORMATS = ("json", "text")
TOLERANCES = ("1e-8", "1e-300")


def _edge_list(n: int, edges: list[tuple[int, int]], mode: str) -> str:
    return "".join([f"n={n}\nmode={mode}\n", *(f"{t} {h}\n" for t, h in edges)])


def seeded_graph(rng: random.Random, index: int) -> str:
    """The edge list of graph index: a near-tree, a dense oriented or a symmetric graph in turn."""
    n = rng.randint(2, 30)
    if index % 3 == 0:
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 4)]
        edges = sorted({(t, h) if rng.random() < 0.5 else (h, t) for t, h in edges if t != h})
        return _edge_list(n, edges, "oriented")
    p = rng.uniform(0.05, 0.5)
    if index % 3 == 1:
        pairs = [(t, h) for t in range(n) for h in range(n) if t < h and rng.random() < p]
        edges = sorted((t, h) if rng.random() < 0.5 else (h, t) for t, h in pairs)
        return _edge_list(n, edges, "oriented")
    pairs = [(t, h) for t in range(n) for h in range(t + 1, n) if rng.random() < p]
    return _edge_list(n, sorted(pairs + [(h, t) for t, h in pairs]), "symmetric")


def write_inputs(directory: Path, graphs: int, seed: int, star: int) -> list[Path]:
    """graphs/ plus the generated inputs, the latter written to directory."""
    paths = sorted((ROOT / "graphs").glob("*.txt"))
    rng = random.Random(seed)
    texts = {f"seeded_{i:03d}.txt": seeded_graph(rng, i) for i in range(graphs)}
    if star:
        leaves = [(0, leaf) for leaf in range(1, star + 1)]
        texts[f"star_{star}.txt"] = _edge_list(star + 1, leaves, "oriented")
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
        paths.append(directory / name)
    return paths


def run_cases(paths: list[str]) -> dict[str, list]:
    """{case: [exit code, sha256 of stdout, sha256 of stderr, JSON stdout]} for every case, in-process.

    The last item is the stdout itself for --format json and None for text.
    """
    from susygraph.cli import main

    results = {}
    for path in paths:
        for command in COMMANDS:
            for fmt in FORMATS:
                for tol in TOLERANCES:
                    out, err = io.StringIO(), io.StringIO()
                    # A fresh filter state shows each warning again, as a fresh process would.
                    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
                        try:
                            code = main([command, path, "--format", fmt, "--tol", tol])
                        except Exception as exc:
                            code = "raised"
                            err.write("".join(traceback.format_exception_only(exc)))
                    case = f"{command} {Path(path).name} --format {fmt} --tol {tol}"
                    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
                    results[case] = [code, *digests, out.getvalue() if fmt == "json" else None]
    return results


def start_cases(checkout: Path, paths: list[Path]) -> subprocess.Popen:
    """A subprocess that runs every case with the package imported from checkout/src."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.Popen(
        [sys.executable, __file__, "--run-cases", *map(str, paths)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def finished_cases(proc: subprocess.Popen, checkout: Path) -> dict[str, list]:
    out, err = proc.communicate()
    if proc.returncode:
        raise RuntimeError(f"cases failed to run in {checkout}:\n{err}")
    return json.loads(out)


_ABSENT = object()


def changed_paths(a, b, path: tuple = ()) -> list[str]:
    """Dotted paths where two parsed reports hold different values, in sorted key order."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [
            p
            for key in sorted(a.keys() | b.keys())
            for p in changed_paths(a.get(key, _ABSENT), b.get(key, _ABSENT), (*path, key))
        ]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in changed_paths(x, y, (*path, i))]
    # type() keeps true apart from 1 and 1 from 1.0
    if type(a) is type(b) and a == b:
        return []
    return [".".join(map(str, path))]


def stdout_difference(mine: str | None, other: str | None) -> str:
    """'stdout', followed by the report paths that differ when both sides are JSON reports."""
    try:
        paths = changed_paths(json.loads(mine), json.loads(other))
    except (TypeError, ValueError):
        return "stdout"
    return f"stdout: {', '.join(paths)}" if paths else "stdout"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run-cases"]:
        json.dump(run_cases(argv[1:]), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with (the directory holding src/)")
    parser.add_argument("--graphs", type=int, default=20, help="seeded random graphs besides graphs/")
    parser.add_argument("--seed", type=int, default=0, help="seed for the random graphs")
    parser.add_argument("--star", type=int, default=0, help="also an out-star with this many leaves")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "susygraph").is_dir():
        parser.error(f"{args.other} has no src/susygraph")
    if args.graphs < 0 or args.star < 0:
        parser.error("--graphs and --star must not be negative")
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp), args.graphs, args.seed, args.star)
        # The two checkouts run side by side.
        procs = [(start_cases(checkout, paths), checkout) for checkout in (ROOT, args.other.resolve())]
        ours, theirs = (finished_cases(proc, checkout) for proc, checkout in procs)
    differing = [case for case in ours if ours[case][:3] != theirs.get(case, [None])[:3]]
    for case in differing:
        mine, other = ours[case], theirs.get(case, [None] * 4)
        what = [name for name, a, b in zip(("exit code", "stdout", "stderr"), mine, other) if a != b]
        if "stdout" in what:
            what[what.index("stdout")] = stdout_difference(mine[3], other[3])
        print(f"differs: {case} ({', '.join(what)})")
    print(f"{len(ours) - len(differing)} of {len(ours)} cases identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
