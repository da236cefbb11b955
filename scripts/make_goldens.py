"""Regenerate the golden CLI reports under tests/golden/.

Runs the command-line entry point of this checkout's src/ on the bundled
example graphs and freezes the JSON output.  Rerun after any intentional
change to the report schema, then review the diff before committing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = ["c3", "tree"]


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    # the child must import this checkout's package, not an installed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in CASES:
        graph = ROOT / "graphs" / f"{name}.txt"
        cmd = [sys.executable, "-m", "susygraph.cli", "report", str(graph), "--format", "json"]
        result = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if result.returncode != 0:
            sys.stderr.write(f"{name}: exit {result.returncode}\n{result.stderr}")
            return 1
        out = GOLDEN / f"{name}_report.json"
        out.write_text(result.stdout)
        print(f"wrote {out.relative_to(ROOT)} ({len(result.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
