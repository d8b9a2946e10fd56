"""``python -m repro.service`` — run a seeded load burst.

Builds a store, starts the service, drives a generated burst through
it (closed lockstep / closed threaded / open loop), drains, and prints
a JSON summary. ``--metrics-out`` writes the merged metrics snapshot
(byte-identical across re-runs in ``--mode closed`` — the CI smoke
diffs two of them), the record of every request, latency and shed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.cache import atomic_write_text
from repro.errors import ReproError
from repro.experiments.loadgen import (
    LoadSpec,
    closed_loop,
    closed_loop_threaded,
    isolated_block_reads,
    open_loop,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.server import SearchService, ServiceConfig, TenantConfig
from repro.service.stores import STORE_FAMILIES, StoreSpec, build_store


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a seeded search-request burst from one shared "
        "blocked store.",
    )
    store = parser.add_argument_group("store")
    store.add_argument(
        "--store", default="path", choices=sorted(STORE_FAMILIES),
        help="store family (default: path)",
    )
    store.add_argument("--block-size", type=int, default=16, metavar="B")
    store.add_argument(
        "--memory-blocks", type=int, default=2, metavar="N",
        help="per-run private memory, in blocks (default: 2)",
    )
    store.add_argument(
        "--size", type=int, default=1024, metavar="N",
        help="substrate scale: path length / tree vertex target / "
        "regular-graph order (default: 1024)",
    )
    store.add_argument("--store-seed", type=int, default=7, metavar="SEED")

    service = parser.add_argument_group("service")
    service.add_argument("--workers", type=int, default=2, metavar="N")
    service.add_argument("--queue-bound", type=int, default=32, metavar="N")
    service.add_argument(
        "--cache-blocks", type=int, default=8, metavar="N",
        help="shared cache capacity, in blocks (default: 8)",
    )
    service.add_argument("--read-cost", type=float, default=10.0, metavar="C")
    service.add_argument(
        "--tenants", default="alpha,beta", metavar="NAMES",
        help="comma-separated tenant names (default: alpha,beta)",
    )
    service.add_argument(
        "--tenant-cache-blocks", type=int, default=4, metavar="N",
        help="each tenant's cache budget, in blocks (default: 4)",
    )
    service.add_argument(
        "--max-pending", type=int, default=8, metavar="N",
        help="per-tenant pending-request bound (default: 8)",
    )

    load = parser.add_argument_group("load")
    load.add_argument("--clients", type=int, default=4, metavar="N")
    load.add_argument(
        "--requests", type=int, default=8, metavar="N",
        help="requests per client (default: 8)",
    )
    load.add_argument("--steps", type=int, default=256, metavar="N")
    load.add_argument("--workload", default="walk", choices=("walk", "greedy"))
    load.add_argument("--zipf", type=float, default=1.1, metavar="S")
    load.add_argument("--zipf-ranks", type=int, default=64, metavar="N")
    load.add_argument("--seed", type=int, default=0, metavar="SEED")
    load.add_argument(
        "--mode", default="closed",
        choices=("closed", "closed-threaded", "open"),
        help="closed = deterministic lockstep (default); closed-threaded = "
        "one thread per client; open = submit-all, collect sheds",
    )

    out = parser.add_argument_group("output")
    out.add_argument(
        "--compare-isolated", action="store_true",
        help="also run every stream serially without the shared cache "
        "and report the disk reads saved by sharing",
    )
    out.add_argument("--metrics-out", metavar="PATH")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    store = build_store(
        StoreSpec(
            family=args.store,
            block_size=args.block_size,
            memory_blocks=args.memory_blocks,
            size=args.size,
            seed=args.store_seed,
        )
    )
    tenant_names = tuple(
        name.strip() for name in args.tenants.split(",") if name.strip()
    )
    metrics = MetricsRegistry()
    service = SearchService(
        store,
        [
            TenantConfig(
                name,
                cache_blocks=args.tenant_cache_blocks,
                max_pending=args.max_pending,
            )
            for name in tenant_names
        ],
        ServiceConfig(
            workers=args.workers,
            queue_bound=args.queue_bound,
            cache_blocks=args.cache_blocks,
            read_cost=args.read_cost,
        ),
        metrics=metrics,
    )
    load = LoadSpec(
        clients=args.clients,
        requests_per_client=args.requests,
        num_steps=args.steps,
        workload=args.workload,
        tenants=tenant_names,
        zipf_s=args.zipf,
        zipf_ranks=args.zipf_ranks,
        seed=args.seed,
    )
    shed_count = 0
    try:
        if args.mode == "closed":
            closed_loop(service, load)
        elif args.mode == "closed-threaded":
            closed_loop_threaded(service, load)
        else:
            _, sheds = open_loop(service, load)
            shed_count = len(sheds)
    finally:
        service.drain()
    summary = service.summary()
    summary["mode"] = args.mode
    summary["shed_total"] = shed_count
    if args.compare_isolated:
        isolated = isolated_block_reads(load, store)
        shared = service.cache.stats().disk_reads
        summary["isolated_block_reads"] = isolated
        summary["shared_disk_reads"] = shared
        summary["reads_saved"] = isolated - shared
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.metrics_out:
        atomic_write_text(
            args.metrics_out,
            json.dumps(metrics.snapshot(), indent=2, sort_keys=True) + "\n",
        )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
