"""Print the count ledger of the repository benchmark's traced runs.

For each of ``sweep``, ``walk`` and ``traced`` this runs
``python3 perfbench/run.py --workload W --seed 1 --trace 1`` and keeps
every per-layer metric that is not a duration (not a ``.s`` metric):
the 37 call counts, event counts and ratios of counts. They do not
depend on the host's speed, so CI compares them exactly with the
committed ledger::

    python3 .github/perfbench_counts.py > /tmp/perfbench-counts.json
    diff -u .github/perfbench-counts.json /tmp/perfbench-counts.json

A change that moves a count regenerates the file the same way (redirect
into ``.github/perfbench-counts.json``) and says why. ``service`` is
left out: its shared-cache counters depend on how its worker threads
interleave.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "walk", "traced")


def counts(workload: str) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: the traced run's output checks failed\n{done.stdout}")
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if not name.endswith(".s")
    }


def main() -> None:
    print(json.dumps({workload: counts(workload) for workload in WORKLOADS}, indent=2))


if __name__ == "__main__":
    main()
