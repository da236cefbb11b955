"""Run the susygraph command line in this fresh interpreter and time its parts.

    python bench/child.py --record FILE [--trace --op N] -- <susygraph arguments>

The package must be importable (run.py sets PYTHONPATH to the checkout's
src/).  stdout carries exactly the command's output.  FILE receives one
JSON object: when the interpreter reached this script (``started``, on
the system-wide monotonic clock, so the parent can subtract its spawn
time), how long importing ``susygraph.cli`` took, how long ``main`` ran,
its exit code, and with --trace the spans and counters of the run.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    record_path = opts[opts.index("--record") + 1]
    trace = "--trace" in opts

    t0 = time.perf_counter()
    import susygraph.cli

    import_s = time.perf_counter() - t0
    record = {"started": STARTED, "import_s": import_s}
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.op = int(opts[opts.index("--op") + 1])
        tracer.install()
    t1 = time.perf_counter()
    try:
        rc = susygraph.cli.main(cli_args)
    finally:
        record["main_s"] = time.perf_counter() - t1
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
            record.update(spans=tracer.records(), counters=tracer.counters, absent=tracer.absent)
    record["rc"] = rc
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
