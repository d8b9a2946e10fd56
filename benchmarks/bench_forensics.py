"""Forensics analysis throughput over a traced campaign.

Three numbers this benchmark pins down for ``BENCH_forensics.json``:

* **scan + analysis cost** — one :func:`repro.obs.forensics.analyze_trace`
  pass (trace scan, generalized Mattson stack distances, Belady MIN
  taxonomy replay, per-block ledger) over the merged trace of a quick
  campaign sweep, relative to the number of events analyzed;
* **self-check health** — the same run asserts the replay-grade
  invariant (every LRU run predicted exactly) and records the taxonomy
  totals, so the history tracks analysis *correctness* alongside wall
  time;
* **large-block cost** — the same analysis over the quick ``tree``
  cell (B=1023), whose blocks are large enough that any per-copy work
  in the taxonomy's MIN replay, rather than per-reference work,
  dominates the time.
"""

from repro.experiments import run_campaign
from repro.obs.forensics import analyze_trace, self_check_failures

SUBSET = ["grid1d", "pathological", "example2"]


def test_forensics_over_campaign_trace(benchmark, tmp_path):
    trace = tmp_path / "bench.trace.jsonl"
    run_campaign(
        tmp_path / "bench.jsonl", quick=True, jobs=1, names=SUBSET,
        trace_out=trace,
    )
    events = len(trace.read_text().splitlines())

    doc = benchmark.pedantic(
        lambda: analyze_trace(trace), rounds=1, iterations=1, warmup_rounds=0
    )
    assert self_check_failures(doc) == []
    totals = doc["totals"]
    assert totals["self_check"]["applicable"] > 0
    assert totals["self_check"]["failed"] == 0
    benchmark.extra_info["trace_events"] = events
    benchmark.extra_info["runs"] = totals["runs"]
    benchmark.extra_info["observed_faults"] = totals["observed_faults"]
    benchmark.extra_info["taxonomy"] = {
        "compulsory": totals["compulsory"],
        "capacity": totals["capacity"],
        "policy_induced": totals["policy_induced"],
        "min_unavailable": totals["min_unavailable"],
    }
    benchmark.extra_info["self_check"] = totals["self_check"]


def test_forensics_large_blocks(benchmark, tmp_path):
    trace = tmp_path / "tree.trace.jsonl"
    run_campaign(
        tmp_path / "tree.jsonl", quick=True, jobs=1, names=["tree"],
        trace_out=trace,
    )

    doc = benchmark.pedantic(
        lambda: analyze_trace(trace), rounds=1, iterations=1, warmup_rounds=0
    )
    assert self_check_failures(doc) == []
    totals = doc["totals"]
    assert totals["self_check"]["applicable"] > 0
    assert totals["self_check"]["failed"] == 0
    assert max(run["block_size"] for run in doc["runs"]) == 1023
    benchmark.extra_info["runs"] = totals["runs"]
    benchmark.extra_info["observed_faults"] = totals["observed_faults"]
    benchmark.extra_info["self_check"] = totals["self_check"]
