#!/usr/bin/env python3
"""Benchmark of the susygraph command line on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's own src/, never from an installed copy.  Every op runs
``susygraph <command> FILE --format json`` the way a user does: in this
process through ``susygraph.cli.main`` for the generated workloads, and
as a fresh ``python -m susygraph.cli`` child for ``cli_cold``.  Every
output is checked; a failed check counts the op as failed and the run
goes on.

With --trace 0 the run is timed with tracing off and prints the
end-to-end metrics.  Timings are scaled to a reference machine speed:
a frozen, program-independent kernel (calibrate) is timed before the
first op and after every op, and each op's latency, like each set-up
probe's time, is divided by speed_factor of the kernel times just before
and just after it.  The set-up probes, fresh interpreters, are spread
over the run's measuring time.  On a shared machine whose speed
drifts by tens of percent between runs, this keeps a run comparable with
one made minutes earlier; the unscaled figures and the run's median
slowdown are in the run record.

With --trace 1 it repeats a fixed reference set of ops, alternating
untraced and traced passes, and prints per-layer metrics per traced pass,
unscaled, from spans recorded around the package's public functions (see
tracing.py), plus the tracing overhead.

The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it is the run record: environment, input sizes, failures
and a digest of the reference outputs.  Both, and the spans of a traced
run, are also written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent
# One BLAS thread: at most nproc on any machine, and the steadiest timing on a shared one.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
# Median seconds of calibrate() over 170 timed runs of 25 s, on all four workloads and
# spread over four hours, on the reference machine (a shared 2-vCPU VM, Python 3.11).
CALIBRATION_REF_S = 0.00642
CHILD_TIMEOUT_S = 60
GOLDENS = {"c3": ROOT / "tests/golden/c3_report.json", "tree": ROOT / "tests/golden/tree_report.json"}
SECTIONS = {
    "check": ("algebra", "grading"),
    "spectrum": ("spectra", "pairing"),
    "report": ("algebra", "grading", "kernel", "spectra", "pairing", "polar", "cycles"),
}
WALL_SLACK_S = 60  # a run stops starting passes this long after its measuring time


class BenchError(Exception):
    """The program cannot be benchmarked at all: no result is printed."""


# -- checking outputs ---------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON")


def check_output(command: str, case: wl.Case, rc, out: str, golden: str | None = None) -> str | None:
    """Why an op's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit status {rc}"
    if golden is not None and out != golden:
        return "differs from golden"
    try:
        rep = json.loads(out, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    try:
        meta = rep["meta"]
        if meta["all_pass"] is not True:
            return "meta.all_pass is not true"
        if meta["input_digest"] != hashlib.sha256(case.text.encode("utf-8")).hexdigest():
            return "input digest does not match the input"
        if (rep["graph"]["num_vertices"], rep["graph"]["num_edges"]) != (case.num_vertices, case.num_edges):
            return "graph size does not match the input"
        for section in SECTIONS[command]:
            if rep[section] is None:
                return f"section {section} missing"
        for section, key in (("algebra", "relations"), ("algebra", "factorizations"), ("grading", "relations")):
            for rel in (rep[section] or {}).get(key, ()):
                if rel["residual"] != 0 or rel["pass"] is not True:
                    return f"{section}: {rel['name']} residual {rel['residual']}"
        if rep["cycles"] is not None and rep["cycles"]["closure_residual"] != 0:
            return f"cycles closure residual {rep['cycles']['closure_residual']}"
        if rep["spectra"] is not None and len(rep["spectra"]["hamiltonian"]) != case.num_vertices + case.num_edges:
            return "hamiltonian spectrum has the wrong length"
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"
    return None


# -- running ops --------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))
    return env


def spawn(cmd: list[str], out_path: Path) -> tuple[int, float, int, str]:
    """Run one child to completion: exit status, wall seconds, its own peak RSS in KiB, stdout."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, out_path.read_text(encoding="utf-8", errors="replace")


class InProcessRunner:
    """Ops of a generated workload, run through susygraph.cli.main in this process."""

    def __init__(self, workload: wl.Workload, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.pass_size = len(workload.design)
        self.tracer = tracing.Tracer()

    def prepare(self, index: int) -> tuple[wl.Case, Path]:
        case = wl.generate(self.workload, self.seed, index)
        path = self.tmp / f"case-{index}.txt"
        path.write_text(case.text, encoding="utf-8")
        return case, path

    def golden(self, case: wl.Case) -> None:
        return None

    def run(self, path: Path, op: int | None) -> tuple[int, str]:
        """One op; with an op id, under the tracer.  Time only this call."""
        out = io.StringIO()
        argv = [self.workload.command, str(path), "--format", "json"]
        tracer = contextlib.nullcontext() if op is None else self.tracer
        if op is not None:
            self.tracer.op = op
        with tracer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = sys.modules["susygraph.cli"].main(argv)
        return rc, out.getvalue()

    def warm_up(self) -> None:
        """One op on graphs/c3.txt, so lazy first-call costs (BLAS start-up) stay out of timed ops."""
        self.run(ROOT / "graphs/c3.txt", None)

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced_results(self) -> tuple[list[dict], dict[str, float], list[str]]:
        return self.tracer.records(), self.tracer.counters, self.tracer.absent


class CliRunner:
    """cli_cold: each op is a fresh interpreter running the command line on an example graph."""

    def __init__(self, workload: wl.Workload, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.paths = wl.example_graphs(ROOT)
        if not self.paths:
            raise BenchError(f"no example graphs under {ROOT / 'graphs'}")
        self.cases = {p: wl.read_case(p) for p in self.paths}
        self.pass_size = len(self.paths)
        self.peak_kib = 0
        self.spans: list[dict] = []
        self.counters = dict.fromkeys(tracing.COUNTERS, 0)
        self.absent: list[str] = []

    def prepare(self, index: int) -> tuple[wl.Case, Path]:
        path = wl.cli_order(self.paths, self.seed, index)
        return self.cases[path], path

    def golden(self, case: wl.Case) -> str | None:
        path = GOLDENS.get(case.label)
        return path.read_text(encoding="utf-8") if path is not None and path.is_file() else None

    def run(self, path: Path, op: int | None) -> tuple[int, str]:
        argv = [self.workload.command, str(path.relative_to(ROOT)), "--format", "json"]
        if op is None:
            rc, _, peak, out = spawn([sys.executable, "-m", "susygraph.cli", *argv], self.tmp / "op.out")
            self.peak_kib = max(self.peak_kib, peak)
            return rc, out
        record_path = self.tmp / "op.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--record", str(record_path),
               "--trace", "--op", str(op), "--", *argv]
        rc, _, _, out = spawn(cmd, self.tmp / "op.out")
        if record_path.is_file():
            record = json.loads(record_path.read_text(encoding="utf-8"))
            self.spans.extend(record["spans"])
            for key, value in record["counters"].items():
                self.counters[key] += value
            self.absent = record["absent"]
        return rc, out

    def warm_up(self) -> None:
        """One invocation on graphs/c3.txt, so timed ops start with the files in the page cache."""
        self.run(ROOT / "graphs/c3.txt", None)
        self.peak_kib = 0

    def peak_rss_kib(self) -> int:
        return self.peak_kib

    def traced_results(self) -> tuple[list[dict], dict[str, float], list[str]]:
        return self.spans, self.counters, self.absent


def _calibration_matrix() -> dict[int, dict[int, int]]:
    rng = random.Random(0)
    return {r: {rng.randrange(300): rng.randrange(1, 9) for _ in range(10)} for r in range(300)}


CALIBRATION_MATRIX = _calibration_matrix()


def calibrate() -> float:
    """Seconds a fixed sparse product of dict rows takes: how fast the machine runs right now.

    The kernel mirrors the exact algebra's inner loop on a frozen 300 x 300
    matrix, so machine slowdowns hit it the way they hit the program, but it
    touches nothing of the program's and runs with the collector off, so no
    change to the program changes it.  The median of three rounds is taken,
    so the first round's cold caches after an op do not count.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        rounds = []
        for _ in range(3):
            t0 = time.perf_counter()
            product: dict[int, dict[int, int]] = {}
            for r, row in CALIBRATION_MATRIX.items():
                acc = product.setdefault(r, {})
                for k, a in row.items():
                    for c, b in CALIBRATION_MATRIX[k].items():
                        acc[c] = acc.get(c, 0) + a * b
            rounds.append(time.perf_counter() - t0)
        return statistics.median(rounds)
    finally:
        if collecting:
            gc.enable()


def speed_factor(before_s: float, after_s: float) -> float:
    """How much slower than the reference machine this one ran, from the calibrate() times around a timing.

    The machine's speed drifts within seconds: on the reference machine one
    op, repeated, swung between 73 and 160 ms within a minute, and the
    kernel's time with it.  So each timing is scaled by the kernel timed
    next to it.
    """
    return (before_s + after_s) / 2 / CALIBRATION_REF_S


def setup_probe(command: str, tmp: Path) -> dict:
    """A fresh interpreter that imports susygraph and runs one warm-up op on graphs/c3.txt.

    Its set-up time is scaled by the calibrations timed just before and just after it.
    """
    before = calibrate()
    record_path = tmp / "probe.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--record", str(record_path), "--",
           command, "graphs/c3.txt", "--format", "json"]
    spawned = time.monotonic()
    rc, _, _, _ = spawn(cmd, tmp / "probe.out")
    if rc != 0 or not record_path.is_file():
        err = (tmp / "probe.err").read_text(encoding="utf-8", errors="replace")
        raise BenchError(f"set-up probe exited {rc}: {err.strip()[-400:]}")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    factor = speed_factor(before, calibrate())
    unscaled = record["import_s"] + record["main_s"]
    return {
        "setup_s": unscaled / factor,
        "unscaled_setup_s": unscaled,
        "speed_factor": factor,
        "import_s": record["import_s"],
        "interpreter_start_s": record["started"] - spawned,
    }


class SetupProbes:
    """SETUP_PROBES set-up probes spread evenly over a run's measuring time.

    On a shared machine, probes made back to back see the same passing
    slowdown, which shifted a run's whole median; spread out, they sample
    many moments of the run.
    """

    def __init__(self, command: str, tmp: Path, seconds: float):
        self.command, self.tmp, self.interval = command, tmp, seconds / SETUP_PROBES
        self.probes: list[dict] = []

    def at(self, elapsed: float) -> None:
        """Probe once if the run, `elapsed` seconds in, has reached the next probe's turn."""
        if len(self.probes) < SETUP_PROBES and elapsed >= len(self.probes) * self.interval:
            self.probes.append(setup_probe(self.command, self.tmp))

    def finish(self) -> list[dict]:
        """The probes, after making those whose turn a short run did not reach."""
        while len(self.probes) < SETUP_PROBES:
            self.probes.append(setup_probe(self.command, self.tmp))
        return self.probes


# -- the two kinds of run -----------------------------------------------------


class Tally:
    """Attempted ops, their latencies and failures, the inputs they covered, the run's set-up probes."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.probes: list[dict] = []
        self.calibrations: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.n = self.m = self.nnz = 0
        self.labels: set[str] = set()

    def add(self, case: wl.Case, seconds: float, reason: str | None) -> None:
        self.latencies.append(seconds)
        if reason is not None:
            self.failures.append((case.label, reason))
        if case.label not in self.labels:
            self.labels.add(case.label)
            self.n += case.num_vertices
            self.m += case.num_edges
            self.nnz += case.hamiltonian_nnz


def execute(runner, command: str, case: wl.Case, path: Path, op: int | None) -> tuple[float, str | None, str]:
    """Run and check one op: its latency, why it failed (None if it did not), its output."""
    t0 = time.perf_counter()
    try:
        rc, out = runner.run(path, op)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op, not a failed run
        return time.perf_counter() - t0, f"raised {exc!r}", ""
    seconds = time.perf_counter() - t0
    return seconds, check_output(command, case, rc, out, runner.golden(case)), out


def timed_run(runner, workload: wl.Workload, seconds: float) -> tuple[Tally, str]:
    """Whole passes, each on fresh inputs, until the ops' summed latency is nearest `seconds`."""
    tally, digest = Tally(), hashlib.sha256()
    prober = SetupProbes(workload.command, runner.tmp, seconds)
    tally.calibrations.append(calibrate())  # before the first op; each op appends the one after it
    wall_limit = time.monotonic() + seconds + WALL_SLACK_S
    busy, index = 0.0, 0
    while time.monotonic() < wall_limit:
        pass_busy = 0.0
        for _ in range(runner.pass_size):
            case, path = runner.prepare(index)
            latency, reason, out = execute(runner, workload.command, case, path, None)
            tally.calibrations.append(calibrate())
            pass_busy += latency
            tally.add(case, latency, reason)
            prober.at(busy + pass_busy)
            if index < runner.pass_size:
                digest.update(out.encode("utf-8"))
            index += 1
        busy += pass_busy
        if busy + pass_busy / 2 >= seconds:
            break
    tally.probes = prober.finish()
    return tally, digest.hexdigest()


def traced_run(runner, workload: wl.Workload, seconds: float):
    """Untraced and traced passes over the first pass's inputs, in pairs, for about `seconds`."""
    tally, digest = Tally(), hashlib.sha256()
    cases = [runner.prepare(i) for i in range(runner.pass_size)]
    expected: list[str] = []
    pass_seconds: dict[bool, list[float]] = {False: [], True: []}
    prober = SetupProbes(workload.command, runner.tmp, seconds)
    start = time.monotonic()
    while True:
        pair_start = time.monotonic()
        for traced in (False, True):
            busy = 0.0
            for i, (case, path) in enumerate(cases):
                op = len(pass_seconds[True]) * len(cases) + i if traced else None
                latency, reason, out = execute(runner, workload.command, case, path, op)
                tally.calibrations.append(calibrate())
                busy += latency
                if len(expected) < len(cases):
                    expected.append(out)
                    digest.update(out.encode("utf-8"))
                elif reason is None and out != expected[i]:
                    reason = "output differs between passes" + (" (traced)" if traced else "")
                tally.add(case, latency, reason)
                prober.at(time.monotonic() - start)
            pass_seconds[traced].append(busy)
        now = time.monotonic()
        if now - start + (now - pair_start) / 2 >= seconds or now - start > seconds + WALL_SLACK_S:
            break
    tally.probes = prober.finish()
    return tally, digest.hexdigest(), pass_seconds


# -- metrics ------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(latencies: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def scaled_latencies(tally: Tally) -> list[float]:
    """Each op's latency at the reference machine's speed, from the calibrations around it."""
    cal = tally.calibrations
    return [t / speed_factor(before, after) for t, before, after in zip(tally.latencies, cal, cal[1:])]


def end_to_end(tally: Tally, workload: wl.Workload, peak_kib: int) -> dict:
    """The end-to-end metrics; every timing is scaled to the reference machine's speed."""
    verified = len(tally.latencies) - len(tally.failures)
    latencies = scaled_latencies(tally)
    return {
        "ops_per_s": metric(verified / sum(latencies), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": metric(1e3 * percentile(latencies, workload.tail_percentile), "ms"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in tally.probes), "s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
    }


def per_layer(runner, probes: list[dict], pass_seconds: dict) -> tuple[dict, list[dict]]:
    spans, counters, absent = runner.traced_results()
    passes = len(pass_seconds[True])
    totals = tracing.layer_totals(spans)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s, total_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = metric(calls / passes, "count")
        metrics[f"{name}.self_s"] = metric(self_s / passes, "s")
        metrics[f"{name}.total_s"] = metric(total_s / passes, "s")
    units = {"operators.super_nnz": "count", "spectral.eig_flops_computed": "flop"}
    for name, value in counters.items():
        metrics[name] = metric(value / passes, units.get(name, "B"))
    metrics["cli.interpreter_start_s"] = metric(statistics.median(p["interpreter_start_s"] for p in probes), "s")
    metrics["cli.import_s"] = metric(statistics.median(p["import_s"] for p in probes), "s")
    traced_s = statistics.median(pass_seconds[True])
    untraced_s = statistics.median(pass_seconds[False])
    metrics["trace.ops_per_s"] = metric(runner.pass_size / traced_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = metric(runner.pass_size / untraced_s, "1/s")
    metrics["trace.overhead_frac"] = metric(traced_s / untraced_s - 1.0, "fraction")
    metrics["trace.absent_names"] = metric(len(absent), "count")
    return metrics, spans


# -- entry point --------------------------------------------------------------


def environment(args, workload: wl.Workload, tally: Tally, digest: str) -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    attempted = len(tally.latencies)
    tail_ms = percentile(tally.latencies, workload.tail_percentile)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "graphs": len(tally.labels),
        "total_n": tally.n,
        "total_m": tally.m,
        "total_hamiltonian_nnz": tally.nnz,
        "attempted": attempted,
        "failed": len(tally.failures),
        "failed_frac": len(tally.failures) / attempted,
        "machine_slowdown": statistics.median(tally.calibrations) / CALIBRATION_REF_S,
        "unscaled_ops_per_s": (attempted - len(tally.failures)) / sum(tally.latencies),
        "unscaled_op_p50_ms": 1e3 * statistics.median(tally.latencies),
        "unscaled_setup_s": statistics.median(p["unscaled_setup_s"] for p in tally.probes),
        "tail_percentile": workload.tail_percentile,
        "samples_above_tail": sum(x > tail_ms for x in tally.latencies),
        "latency_samples": attempted,
        "setup_probes": tally.probes,
        "reference_outputs_sha256": digest,
        "failures": tally.failures[:10],
    }


def import_program() -> None:
    if not (SRC / "susygraph" / "__init__.py").is_file():
        raise BenchError(f"no susygraph package under {SRC}")
    os.environ.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))  # before numpy loads
    sys.path.insert(0, str(SRC))
    import susygraph.cli

    if Path(susygraph.cli.__file__).resolve().parent != (SRC / "susygraph").resolve():
        raise BenchError(f"imported susygraph from {susygraph.cli.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    try:
        import_program()
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_name:
            tmp = Path(tmp_name)
            runner_type = CliRunner if workload.name == "cli_cold" else InProcessRunner
            runner = runner_type(workload, args.seed, tmp)
            runner.warm_up()
            if args.trace:
                tally, digest, pass_seconds = traced_run(runner, workload, args.seconds)
                metrics, spans = per_layer(runner, tally.probes, pass_seconds)
                tracing.write_jsonl(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl", spans)
            else:
                tally, digest = timed_run(runner, workload, args.seconds)
                metrics = end_to_end(tally, workload, runner.peak_rss_kib())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = environment(args, workload, tally, digest)
    result = {
        "correct": not tally.failures,
        "attempted": len(tally.latencies),
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    with open(OUT_DIR / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
