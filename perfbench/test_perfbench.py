"""Tests of the benchmark's tracing helper and of its traced runs.

    python3 -m pytest perfbench -q

The traced-run tests start ``run.py`` in subprocesses and take about
two minutes.
"""

from __future__ import annotations

import functools
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import hostclock
import run
from hostclock import HostClock
from tracer import Tracer, ledger_of, read_spans

HERE = Path(__file__).resolve().parent


class Toy:
    def outer(self) -> int:
        time.sleep(0.01)
        return self.inner() + self.inner()

    def inner(self) -> int:
        time.sleep(0.005)
        return 1

    def countdown(self, n: int) -> int:
        return 0 if n == 0 else 1 + self.countdown(n - 1)


def square(x: int) -> int:
    return x * x


def test_self_time_excludes_child_spans():
    with Tracer() as tracer:
        tracer.wrap(Toy, "outer", "toy.outer")
        tracer.wrap(Toy, "inner", "toy.inner")
        start = time.perf_counter()
        assert Toy().outer() == 2
        total = time.perf_counter() - start
        ledger = tracer.ledger()
    assert ledger["toy.outer.calls"] == 1
    assert ledger["toy.inner.calls"] == 2
    assert ledger["toy.inner.s"] >= 0.01
    assert 0.01 <= ledger["toy.outer.s"] <= total - ledger["toy.inner.s"]


def test_a_call_inside_a_span_of_its_own_name_is_not_counted_again():
    with Tracer() as tracer:
        tracer.wrap(Toy, "countdown", "toy.countdown")
        assert Toy().countdown(5) == 5
        assert tracer.ledger()["toy.countdown.calls"] == 1


def test_restore_puts_every_original_back():
    module = types.ModuleType("toy_module")
    module.square = square
    originals = (vars(Toy)["outer"], vars(Toy)["inner"], square)
    with Tracer() as tracer:
        tracer.wrap(Toy, "outer", "toy.outer")
        tracer.wrap(Toy, "inner", "toy.inner")
        tracer.wrap(module, "square", "toy.square")
        assert module.square(3) == 9
        assert vars(Toy)["outer"] is not originals[0]
    assert (vars(Toy)["outer"], vars(Toy)["inner"], module.square) == originals
    assert vars(Toy)["outer"] is originals[0] and module.square is square


def test_observers_count_at_the_call_boundary():
    module = types.ModuleType("toy_module")
    module.square = square
    with Tracer() as tracer:
        tracer.wrap(
            module, "square", "toy.square",
            before=lambda spans, args: spans.add("toy.square.inputs", args[0]),
            after=lambda spans, args, result: spans.add("toy.square.outputs", result),
        )
        for x in (1, 2, 3):
            module.square(x)
        ledger = tracer.ledger()
    assert ledger["toy.square.calls"] == 3
    assert ledger["toy.square.inputs"] == 6
    assert ledger["toy.square.outputs"] == 14


def test_threads_record_into_their_own_spans():
    with Tracer() as tracer:
        tracer.wrap(Toy, "inner", "toy.inner")

        def work() -> None:
            with tracer.span("toy.thread"):
                for _ in range(3):
                    Toy().inner()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        ledger = tracer.ledger()
    assert ledger["toy.thread.calls"] == 4
    assert ledger["toy.inner.calls"] == 12
    # Each thread's root span covers only its own three inner calls.
    assert ledger["toy.thread.s"] < 4 * 0.005


def test_written_spans_reproduce_the_ledger(tmp_path):
    with Tracer() as tracer:
        tracer.wrap(Toy, "outer", "toy.outer")
        tracer.wrap(Toy, "inner", "toy.inner")
        Toy().outer()
        tracer.record("toy.wait", 1.0, 1.5)
        tracer.write(tmp_path / "spans.bin")
        ledger = tracer.ledger()
    names, threads = read_spans(tmp_path / "spans.bin")
    assert ledger_of(names, threads) == ledger
    assert ledger["toy.wait.s"] == 0.5


def test_host_clock_scales_program_time_and_leaves_probes_out():
    ref = hostclock.REFERENCE_PROBE_S
    clock = HostClock()
    # Probes at 0 s and 1 s on a host twice the reference speed, then
    # one slow probe at 2 s.
    clock.starts = [0.0, 1.0, 2.0]
    clock.ends = [ref / 2, 1.0 + ref / 2, 2.0 + ref]
    clock._fold()
    assert clock.seconds(0.25, 0.75) == pytest.approx(0.5 * 2)
    # Across the probe at 1 s: its own time is left out.
    assert clock.seconds(0.5, 1.5) == pytest.approx((0.5 + 0.5 - ref / 2) * 2)
    assert clock.seconds(1.0, 1.0 + ref / 2) == 0
    # One slow probe among fast ones is outvoted by the median.
    assert clock.seconds(1.0 + ref / 2, 2.0) == pytest.approx((1.0 - ref / 2) * 2)
    # Past the last probe the clock extrapolates at its rate.
    assert clock.seconds(2.0 + ref, 3.0 + ref) == pytest.approx(2)


def test_host_clock_probes_while_running_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * hostclock.TICK_S:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock.starts) >= 5
    assert 0 < clock.seconds(start, end)
    assert clock.seconds(start, end) == pytest.approx((end - start) * clock.speed(), rel=0.5)


def test_a_traced_pass_restores_every_wrapped_attribute():
    run.import_program()
    import layers
    import workloads

    workload = workloads.Service()
    workload.setup(run.DEFAULT_SEED)
    try:
        with Tracer() as tracer:
            layers.install(tracer)
            patched = tracer.patched()
            assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
            result = workload.run_pass(tracer)
    finally:
        workload.close()
    assert not result.problems
    assert len(patched) > 50
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)


@functools.lru_cache(maxsize=None)
def traced_run(workload: str, attempt: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["sweep", "walk", "traced"])
def test_calls_ledger_is_byte_identical_across_traced_runs(workload):
    def calls(metrics: dict) -> str:
        return json.dumps({k: v for k, v in metrics.items() if k.endswith(".calls")})

    assert calls(traced_run(workload, 1)) == calls(traced_run(workload, 2))


@pytest.mark.parametrize("workload", ["sweep", "walk", "service"])
def test_unconfigured_runs_never_call_the_hook(workload):
    metrics = traced_run(workload, 1)
    assert metrics["engine.run.calls"] > 0
    assert metrics["obs.hook.calls"] == 0


def test_the_traced_workload_calls_the_hook():
    assert traced_run("traced", 1)["obs.hook.calls"] > 0


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_what_the_runs_report():
    import layers

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
