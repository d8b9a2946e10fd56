"""Campaign runner overheads: journaling, resume, and retry latency.

Three numbers this benchmark pins down for ``BENCH_campaign.json``:

* **journal overhead** — a supervised, journaled campaign versus the
  bare serial sweep over the same cells (the cost of supervision is
  process forks plus atomic manifest commits per transition);
* **resume overhead** — resuming an already-complete manifest, which
  must be nearly free: every cell is loaded from the journal and no
  worker ever starts;
* **retry latency distribution** — the modeled backoff delays a
  chaos-kill campaign grants, pulled from the campaign metrics
  histogram (deterministic for a fixed chaos/retry seed).
"""

import json
from pathlib import Path

from repro.experiments import run_all, run_campaign
from repro.experiments.chaos import ChaosConfig
from repro.obs import Instrumentation, MetricsRegistry, use_instrumentation

SUBSET = ["grid1d", "pathological", "example2"]


def test_campaign_vs_serial_overhead(benchmark, tmp_path):
    serial = run_all(quick=True, names=SUBSET)

    def campaign():
        return run_campaign(
            tmp_path / "bench.jsonl", quick=True, jobs=1, names=SUBSET
        )

    games, checks = benchmark.pedantic(
        campaign, rounds=1, iterations=1, warmup_rounds=0
    )
    assert len(games) == len(serial[0])
    assert len(checks) == len(serial[1])
    manifest_lines = (tmp_path / "bench.jsonl").read_text().splitlines()
    benchmark.extra_info["cells"] = len(SUBSET)
    benchmark.extra_info["journal_records"] = len(manifest_lines)


def test_resume_overhead(benchmark, tmp_path):
    """Resuming a finished campaign skips every cell: the cost is one
    journal parse plus result reloads, not a sweep."""
    path = tmp_path / "done.jsonl"
    run_campaign(path, quick=True, jobs=1, names=SUBSET)

    def resume():
        return run_campaign(
            path, quick=True, jobs=1, names=SUBSET, resume=True
        )

    games, checks = benchmark.pedantic(
        resume, rounds=1, iterations=1, warmup_rounds=0
    )
    assert games and checks
    benchmark.extra_info["cells_skipped"] = len(SUBSET)
    benchmark.extra_info["journal_bytes"] = path.stat().st_size


def test_retry_latency_distribution(benchmark, tmp_path):
    """A chaos campaign's granted backoff delays, as a distribution."""
    metrics = MetricsRegistry()

    def chaotic():
        with use_instrumentation(Instrumentation(metrics=metrics)):
            return run_campaign(
                tmp_path / "chaos.jsonl",
                quick=True,
                jobs=2,
                names=SUBSET,
                chaos=ChaosConfig(kill_every=2, seed=7),
            )

    games, checks = benchmark.pedantic(
        chaotic, rounds=1, iterations=1, warmup_rounds=0
    )
    assert not any(g.error for g in games)  # every kill was retried away
    snapshot = metrics.snapshot()
    delays = snapshot.get("campaign_retry_delay", {})
    benchmark.extra_info["retry_delays"] = delays
    benchmark.extra_info["retry_delay_percentiles"] = metrics.histogram(
        "campaign_retry_delay"
    ).percentiles()
    benchmark.extra_info["worker_deaths"] = snapshot.get(
        "campaign_worker_deaths", 0
    )
    # The full campaign_* counter family (started/done/retries/deaths)
    # rides into BENCH_campaign.json so the history tracks supervision
    # behavior, not just wall time.
    benchmark.extra_info["campaign_counters"] = {
        name: value
        for name, value in snapshot.items()
        if name.startswith("campaign_") and isinstance(value, int)
    }
    # Ambient metrics switch on the telemetry plane: worker registries
    # merge back in, so engine-side counters are visible here too.
    benchmark.extra_info["engine_faults"] = snapshot.get("faults", 0)
    assert delays.get("count", 0) >= 1
