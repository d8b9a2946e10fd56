"""Regenerate ``expected.json``, the outputs every benchmark run is
checked against.

    python3 perfbench/make_expected.py

* ``sweep``: per Table 1 cell, every game row's sigma, steady sigma,
  min gap and faults, and every closed-form check's measured value, from
  ``run_cell``. They are cross-checked against the rows
  ``python -m repro.experiments --quick --json`` writes, so the table is
  what the CLI reports.
* ``walk``: the fault count of every corpus walk in both configurations.

Only regenerate when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads


def sweep_rows() -> dict[str, list]:
    import repro.experiments.table1 as table1

    return {
        spec.name: workloads.cell_rows(table1.run_cell(spec))
        for spec in table1.cell_specs(quick=True)
    }


def cli_rows() -> list[list]:
    """Game and check rows, in order, from the experiments CLI."""
    workloads.OUT.mkdir(exist_ok=True)
    dump = workloads.OUT / "cli-results.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--quick", "--json", str(dump)],
        check=True, env=env, stdout=subprocess.DEVNULL, timeout=900,
    )
    payload = json.loads(dump.read_text())
    games = [
        [g["sigma"], g["steady_sigma"], g["min_gap"], g["faults"]] for g in payload["games"]
    ]
    return games + [[c["measured"]] for c in payload["checks"]]


def walk_faults() -> dict[str, list[int]]:
    graph, searchers = workloads.walk_searchers()
    table: dict[str, list[int]] = {}
    for config, searcher in searchers.items():
        table[config] = [
            searcher.run_adversary(workloads.corpus_walk(graph, k), workloads.WALK_STEPS).faults
            for k in range(workloads.WALK_CORPUS)
        ]
    return table


def main() -> int:
    run.import_program()
    sweep = sweep_rows()
    import repro.experiments.table1 as table1

    kinds = {spec.name: spec.kind for spec in table1.cell_specs(quick=True)}
    ordered = [row for name in sweep if kinds[name] == "game" for row in sweep[name]]
    ordered += [row for name in sweep if kinds[name] == "check" for row in sweep[name]]
    if json.dumps(ordered) != json.dumps(cli_rows()):
        raise SystemExit("make_expected: run_cell rows differ from the CLI's --json rows")
    table = {"sweep": sweep, "walk": walk_faults()}
    workloads.EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
