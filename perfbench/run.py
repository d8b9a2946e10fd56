"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload walk --trace 1     # per-layer ledger
    python3 perfbench/run.py --workload all                # every workload, one table

Run from the repository root. The program is imported from ``src/``
next to this directory and nothing else. Untraced runs (``--trace 0``)
repeat the workload's pass as many times as fit in ``--seconds`` at its
nominal pass time (at least its minimum number of passes) under a
``HostClock`` and report the end-to-end metrics in reference seconds; a
traced run (``--trace 1``) runs one pass with every layer wrapped and
reports the per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

#: The end-to-end metrics every workload reports (BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "steps/s"),
    ("requests_per_s", "req/s"),
    ("latency_p50_ms", "ms"),
    ("disk_reads_per_request", "reads/req"),
    ("peak_rss_mb", "MB"),
)
#: Printed too, but not gated: a tail mostly measures the shared host,
#: only ``traced`` has replay, forensics and a trace, and ``failed_frac``
#: travels as ``attempted``/``failed`` in the result.
REPORT_ONLY = (
    ("latency_tail_ms", "ms"),
    ("replay_s", "s"),
    ("forensics_s", "s"),
    ("trace_mb", "MB"),
    ("failed_frac", "ratio"),
)


def import_program() -> None:
    """Put ``src/`` first on the path and import the program from it;
    exit non-zero when it is missing, before any result is printed."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: repro was imported from {repro.__file__}, not {SRC}")


def nearest_rank(values: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile of ``values`` and how many samples
    lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def probe_setup(workload: str, seed: int) -> float:
    """Reference seconds from starting a fresh interpreter to the
    workload being ready for its first timed operation."""
    started = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup", repr(started)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def run_untraced(workload: Workload, seconds: float) -> tuple[dict, dict, list[str], int, int]:
    """Measured passes; returns (end-to-end metrics, notes, problems,
    attempted, failed)."""
    count = max(workload.min_passes, round(seconds / workload.nominal_pass_s))
    with HostClock() as clock:
        passes = [workload.run_pass() for _ in range(count)]
    problems = [p for result in passes for p in result.problems] + workload.finish()
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    # Every duration is in reference seconds: the host's speed swings by
    # up to 2x within seconds, which the clock takes out (hostclock.py).
    ref = clock.seconds
    walls = [ref(r.start, r.end) for r in passes]
    per_request: dict[str, list[float]] = {}
    for r in passes:
        for key, (sent, answered) in r.requests.items():
            per_request.setdefault(key, []).append(ref(sent, answered))
    latencies = [x for times in per_request.values() for x in times]
    tail, beyond = nearest_rank(latencies, workload.tail_percentile)
    completed = len(latencies)
    metrics = {
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(r.steps / w for r, w in zip(passes, walls)),
        "requests_per_s": statistics.median(len(r.requests) / w for r, w in zip(passes, walls)),
        "latency_p50_ms": statistics.median(
            statistics.median(times) for times in per_request.values()
        ) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "disk_reads_per_request": sum(r.reads for r in passes) / completed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
    }
    if passes[0].stages:
        metrics["replay_s"] = statistics.median(ref(*r.stages["replay"]) for r in passes)
        metrics["forensics_s"] = statistics.median(ref(*r.stages["forensics"]) for r in passes)
        metrics["trace_mb"] = statistics.median(r.trace_bytes for r in passes) / 1e6
    notes = {
        "wall_s": (
            f"median of {len(passes)} passes; {statistics.median(r.end - r.start for r in passes):.3f} s"
            f" on this host's clock, which ran at {clock.speed():.2f}x the reference speed"
        ),
        "latency_p50_ms": f"median over {len(per_request)} requests of each one's median",
        "latency_tail_ms": (
            f"p{workload.tail_percentile:g} of {completed} samples, {beyond} beyond"
        ),
        "failed_frac": f"{failed} of {attempted}",
        "derived": workload.derived(passes, ref),
    }
    return metrics, notes, problems, attempted, failed


def run_traced(workload: Workload, name: str) -> tuple[dict, list[str], int, int]:
    """One pass with every layer wrapped; returns (per-layer metrics,
    problems, attempted, failed) and writes the spans and the ledger
    under ``out/``."""
    import layers
    from tracer import Tracer

    with Tracer() as tracer:
        layers.install(tracer)
        patched = tracer.patched()
        result = workload.run_pass(tracer)
    problems = list(result.problems)
    problems += [
        f"tracer: {owner.__name__}.{attr} was not restored"
        for owner, attr, original in patched
        if vars(owner)[attr] is not original
    ]
    problems += workload.finish()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{name}.bin")
    metrics = layers.layer_metrics(tracer.ledger())
    (out / f"ledger-{name}.json").write_text(json.dumps(metrics, indent=1) + "\n")
    return metrics, problems, result.attempted, result.failed


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args: argparse.Namespace) -> int:
    if args.probe_setup is not None:
        with HostClock() as clock:
            # The instant the parent started this interpreter, on this
            # process's perf_counter; the clock extrapolates before its
            # first probe at that probe's rate.
            started = time.perf_counter() - (time.time() - float(args.probe_setup))
            import_program()
            workload = WORKLOADS[args.workload]()
            workload.setup(args.seed)
            ready = time.perf_counter()
        print(clock.seconds(started, ready))
        workload.close()
        return 0

    import_program()
    if not args.trace:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    try:
        if args.trace:
            import layers

            values, problems, attempted, failed = run_traced(workload, args.workload)
            units = dict(layers.PER_LAYER)
            print(f"workload {args.workload}: seed {args.seed}, traced pass")
            for key, value in values.items():
                print(f"  {key:40s} {fmt(value):>14s} {units[key]}")
        else:
            values, notes, problems, attempted, failed = run_untraced(workload, args.seconds)
            values["setup_s"] = statistics.median(setups)
            notes["setup_s"] = f"median of {len(setups)} set-ups in fresh interpreters"
            print(f"workload {args.workload}: seed {args.seed}")
            for key, unit in END_TO_END + REPORT_ONLY:
                shown = fmt(values[key]) if key in values else "n/a"
                note = f"  ({notes[key]})" if key in notes else ""
                print(f"  {key:24s} {shown:>12s} {unit}{note}")
            for line in notes["derived"]:
                print(f"  {line}")
            print("REPORT " + json.dumps({k: values.get(k) for k, _ in END_TO_END + REPORT_ONLY}))
            units = dict(END_TO_END)
            values = {k: values[k] for k in units}
    finally:
        workload.close()
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one table of the reported
    metrics."""
    columns = list(WORKLOADS)
    rows: dict[str, dict] = {}
    correct = True
    for name in columns:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=False,
        )
        if done.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} failed:\n{done.stderr}")
        lines = done.stdout.splitlines()
        rows[name] = json.loads(next(l for l in lines if l.startswith("REPORT "))[7:])
        correct = correct and json.loads(lines[-1])["correct"]
    print(f"{'metric':24s} {'unit':10s}" + "".join(f"{c:>14s}" for c in columns))
    for key, unit in END_TO_END + REPORT_ONLY:
        cells = "".join(
            f"{fmt(rows[c][key]) if rows[c][key] is not None else 'n/a':>14s}" for c in columns
        )
        print(f"{key:24s} {unit:10s}{cells}")
    print("all outputs correct" if correct else "SOME OUTPUT CHECKS FAILED")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        import_program()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
