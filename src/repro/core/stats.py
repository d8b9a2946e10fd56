"""Search-trace statistics.

The unit of measure in the paper is the *blocking speed-up*
``sigma(B)``: the number of path steps taken per page fault. A
:class:`SearchTrace` records everything a simulation produced —
steps, faults, the gap structure between faults, and block-read
accounting — so both the average speed-up (the paper's ``sigma``) and
worst-case per-fault guarantees (the proofs' "at least ``r`` steps
until the next fault") can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.typing import BlockId


@dataclass
class SearchTrace:
    """Outcome of simulating one search.

    Attributes:
        steps: number of edges traversed (the path length ``L``).
        faults: page faults, including any fault on the starting vertex.
        fault_gaps: steps elapsed between consecutive faults; the first
            entry is the steps before the first fault after the start.
            The (possibly fault-free) tail of the walk is *not*
            included, so ``sum(fault_gaps) <= steps``.
        blocks_read: total block reads (equals ``faults`` for a lazy
            pager whose policy services each fault with one read on a
            reliable disk).
        block_reads: the sequence of block ids read, in order.
        retries: re-read attempts granted by the retry policy after
            transient failures (0 on a reliable disk).
        failed_reads: physical read attempts that failed (transient,
            corrupt, or lost), retries included.
        corrupt_reads: the subset of ``failed_reads`` whose failure was
            checksum-detected corruption.
        fallback_reads: faults serviced from an *alternate* block after
            the chosen block proved unreadable — the storage blow-up
            acting as redundancy.
        io_time: modeled I/O time — every physical read attempt charged
            at the configured read cost plus all backoff delays. Stays
            0.0 when no reliability layer is configured.
    """

    steps: int = 0
    faults: int = 0
    fault_gaps: list[int] = field(default_factory=list)
    blocks_read: int = 0
    block_reads: list[BlockId] = field(default_factory=list)
    retries: int = 0
    failed_reads: int = 0
    corrupt_reads: int = 0
    fallback_reads: int = 0
    io_time: float = 0.0

    @property
    def distinct_blocks_read(self) -> int:
        """Number of different block ids ever read."""
        return len(set(self.block_reads))

    @property
    def speedup(self) -> float:
        """The measured blocking speed-up ``sigma = steps / faults``.

        Infinite when the walk never faulted.
        """
        if self.faults == 0:
            return float("inf")
        return self.steps / self.faults

    @property
    def steady_speedup(self) -> float:
        """The speed-up excluding the compulsory start-up fault.

        Any search must fault once to load the start vertex (gap 0),
        which no blocking can avoid; the paper's guarantees concern the
        ongoing walk. When the first recorded fault is that start-up
        fault, it is discounted here.
        """
        faults = self.faults
        if self.fault_gaps and self.fault_gaps[0] == 0 and faults > 1:
            faults -= 1
        if faults == 0:
            return float("inf")
        return self.steps / faults

    @property
    def min_gap(self) -> int:
        """The worst-case (smallest) number of steps between faults.

        The per-fault guarantee the lower-bound proofs establish.
        The first gap is excluded only when it is the compulsory
        start-up fault (gap 0 on an uncovered start vertex — an
        artifact, not a property of the blocking) and other gaps
        exist; a genuine first measurement (the walk started covered)
        counts, mirroring :attr:`steady_speedup`.
        """
        if not self.fault_gaps:
            return self.steps
        gaps = self.fault_gaps
        if gaps[0] == 0 and len(gaps) > 1:
            gaps = gaps[1:]
        return min(gaps)

    @property
    def mean_gap(self) -> float:
        """Average steps between consecutive faults."""
        if not self.fault_gaps:
            return float("inf")
        return sum(self.fault_gaps) / len(self.fault_gaps)

    def gap_histogram(self) -> dict[int, int]:
        """Occurrences of each fault-gap length — the distributional
        view behind ``min_gap`` (useful for seeing how often a blocking
        is pushed to its worst case vs its typical spacing)."""
        histogram: dict[int, int] = {}
        for gap in self.fault_gaps:
            histogram[gap] = histogram.get(gap, 0) + 1
        return dict(sorted(histogram.items()))

    @property
    def read_attempts(self) -> int:
        """Total physical read attempts: successful loads plus failures."""
        return self.blocks_read + self.failed_reads

    @property
    def degraded(self) -> bool:
        """Whether the run saw any disk trouble at all."""
        return self.failed_reads > 0 or self.fallback_reads > 0

    def snapshot(self) -> dict[str, Any]:
        """Every counter as a plain dict (lists copied) — the ground
        truth a ``run_end`` trace event carries, and what
        ``repro.obs.replay`` reconstructs and verifies against."""
        return {
            "steps": self.steps,
            "faults": self.faults,
            "fault_gaps": list(self.fault_gaps),
            "blocks_read": self.blocks_read,
            "block_reads": list(self.block_reads),
            "retries": self.retries,
            "failed_reads": self.failed_reads,
            "corrupt_reads": self.corrupt_reads,
            "fallback_reads": self.fallback_reads,
            "io_time": self.io_time,
        }

    def summary(self) -> str:
        """One-line human-readable digest.

        Reliability counters are appended only when nonzero, so traces
        from the default (reliable-disk) configuration print exactly as
        they always have.
        """
        sigma = "inf" if self.faults == 0 else f"{self.speedup:.3f}"
        text = (
            f"steps={self.steps} faults={self.faults} sigma={sigma} "
            f"min_gap={self.min_gap} reads={self.blocks_read} "
            f"distinct={self.distinct_blocks_read}"
        )
        if self.degraded or self.retries:
            text += (
                f" failed_reads={self.failed_reads} retries={self.retries} "
                f"fallbacks={self.fallback_reads} io_time={self.io_time:.1f}"
            )
        return text
