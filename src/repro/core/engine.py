"""The search simulator.

This is the game of Section 2 run for real: a path is traced through
the graph one edge at a time; whenever the pathfront reaches an
uncovered vertex a page fault occurs, the block-choice policy picks a
block containing the vertex, the eviction policy frees room, and the
block is read. The engine is *lazy* (Theorem 1: lazy on-line pagers are
optimal in the weak model) — it reads exactly one block per fault and
never reads otherwise.

Two front ends of one game loop:

* :func:`simulate_path` — replay a pre-computed vertex sequence
  (off-line workloads, random walks, recorded traces);
* :func:`simulate_adversary` — alternate moves with an on-line
  :class:`Adversary` that sees the coverage state through a read-only
  :class:`MemoryView` (the worst-case game of the upper-bound proofs).

Both say only where the path starts and how it moves; one run brackets
the game with fresh memory and its trace events, and one loop plays it.
"""

from __future__ import annotations

import abc
import itertools
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.block import Block
from repro.core.blocking import Blocking
from repro.core.memory import Memory, WeakMemory, make_memory
from repro.core.model import ModelParams
from repro.core.policies import BlockChoicePolicy
from repro.core.stats import SearchTrace
from repro.errors import (
    AdversaryError,
    BlockReadError,
    BudgetExceededError,
    GraphError,
    PagingError,
)
from repro.graphs.base import Graph
from repro.obs.context import current_instrumentation
from repro.paging.eviction import (
    EvictionPolicy,
    InstrumentedEviction,
    default_eviction,
)
from repro.typing import BlockId, Vertex

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.reliability
    from repro.obs.instrument import InstrumentationHook
    from repro.reliability.store import ReliabilityConfig


class MemoryView:
    """Read-only window onto memory state, handed to adversaries.

    The paper's adversaries know exactly what is in memory (the upper
    bounds are worst case over paths, so the path generator may exploit
    full knowledge); exposing coverage queries plus the fault count is
    enough for every adversary in the paper.

    :meth:`uncovered_among` answers a batch of vertices in one call and
    returns a set that callers probe and never iterate, because its
    order depends on ``PYTHONHASHSEED``. An adversary picks from it by
    an order of its own: the corridor adversaries take the first cell
    of minimum L1 distance in their cross-section's product order.
    """

    def __init__(self, memory: Memory, trace: SearchTrace) -> None:
        self._memory = memory
        self._trace = trace

    def covers(self, vertex: Vertex) -> bool:
        """Whether the vertex is currently covered."""
        return self._memory.covers(vertex)

    def uncovered(self, vertex: Vertex) -> bool:
        """Convenience negation, handy as a BFS predicate."""
        return not self._memory.covers(vertex)

    def uncovered_among(self, vertices: Iterable[Vertex]) -> set[Vertex]:
        """The given vertices that are not covered, answered in one
        call: the weak model takes one C-level set difference per
        resident block instead of a :meth:`covers` call per vertex.
        Probe the result, never iterate it."""
        return self._memory.uncovered_among(vertices)

    @property
    def fault_count(self) -> int:
        """Faults so far — lets adversaries invalidate cached plans."""
        return self._trace.faults

    @property
    def covered_count(self) -> int:
        """Number of distinct covered vertices. Up to O(M) in the weak
        model (a union of the resident blocks), so poll it per fault
        at most, not per move; per-move questions go to :meth:`covers`."""
        return self._memory.covered_count

    @property
    def memory_capacity(self) -> int:
        return self._memory.capacity


class Adversary(abc.ABC):
    """An on-line path generator playing against the pager."""

    @abc.abstractmethod
    def start(self, view: MemoryView) -> Vertex:
        """The vertex the path begins on."""

    @abc.abstractmethod
    def step(self, pathfront: Vertex, view: MemoryView) -> Vertex:
        """The next vertex; must be adjacent to ``pathfront``."""

    def reset(self) -> None:
        """Clear per-run state (default: stateless)."""


#: Where a run's path starts, and how it moves on from the pathfront.
_Start = Callable[[MemoryView], Vertex]
_Step = Callable[[Vertex, MemoryView], Vertex]


class _PathEnd(Exception):
    """A fixed path ran out of vertices: the game ends there."""


class Searcher:
    """A configured simulator bundling graph, blocking, and policies.

    Reusable across runs; each run gets fresh memory. This is the
    library's main entry point:

    >>> searcher = Searcher(graph, blocking, policy, params)
    >>> trace = searcher.run_path(path)
    >>> trace.speedup
    """

    def __init__(
        self,
        graph: Graph,
        blocking: Blocking,
        policy: BlockChoicePolicy,
        params: ModelParams,
        eviction: EvictionPolicy | None = None,
        validate_moves: bool = True,
        reliability: "ReliabilityConfig | None" = None,
        instrumentation: "InstrumentationHook | None" = None,
    ) -> None:
        """Args:
        reliability: optional unreliable-disk model
            (:class:`~repro.reliability.store.ReliabilityConfig`).
            When given, block fetches go through a
            :class:`~repro.reliability.store.ResilientBlockStore`
            (fault injection, retries, IO-time accounting), permanently
            unreadable blocks trigger replica fallback over the other
            blocks covering the faulting vertex, and the config's
            ``step_budget`` watchdog aborts runaway runs. When ``None``
            (the default) the engine runs the original fast path —
            zero overhead, bit-identical traces.
        instrumentation: optional
            :class:`~repro.obs.instrument.InstrumentationHook`
            receiving the run's typed event stream (run_start, step,
            fault, block_read, retry, fallback, eviction, run_end).
            Defaults to the ambient hook installed by
            :func:`repro.obs.context.use_instrumentation`; when neither
            is set the engine keeps its original uninstrumented hot
            path — zero overhead, bit-identical traces.
        """
        if blocking.block_size > params.memory_size:
            raise PagingError(
                f"blocking block size {blocking.block_size} exceeds "
                f"M={params.memory_size}"
            )
        self.graph = graph
        self.blocking = blocking
        self.policy = policy
        self.params = params
        self.eviction = eviction if eviction is not None else default_eviction(params)
        # The policy's own class name, captured before any instrumented
        # wrapping — run_start reports it so offline analytics (stack
        # distances, Belady taxonomy) know the replacement discipline.
        self.eviction_name = type(self.eviction).__name__
        self.validate_moves = validate_moves
        self.reliability = reliability
        if instrumentation is None:
            instrumentation = current_instrumentation()
        self._instr = instrumentation
        if instrumentation is not None:
            self.eviction = InstrumentedEviction(self.eviction, instrumentation)
        if reliability is not None:
            self._store = reliability.make_store(blocking)
            self._store.instrumentation = instrumentation
            self._step_budget = reliability.step_budget
        else:
            self._store = None
            self._step_budget = None

    # -- front ends: where the path starts and how it moves ---------------

    def run_path(self, path: Iterable[Vertex]) -> SearchTrace:
        """Trace a pre-computed vertex sequence; returns its statistics.

        Raises :class:`~repro.errors.GraphError` when the path's first
        vertex is not in the graph (mirroring the adversary driver's
        start check), so a bogus start fails cleanly instead of
        surfacing as a confusing policy or blocking error.
        """
        vertices = iter(path)

        def move(pathfront: Vertex, view: MemoryView) -> Vertex:
            for vertex in vertices:
                return vertex
            raise _PathEnd

        def start(view: MemoryView) -> Vertex:
            vertex = move(None, view)
            if not self.graph.has_vertex(vertex):
                raise GraphError(f"path start vertex {vertex!r} is not in the graph")
            return vertex

        return self._run("path", start, move, itertools.repeat(None))

    def run_adversary(self, adversary: Adversary, num_steps: int) -> SearchTrace:
        """Play ``num_steps`` moves of the adversary game."""
        adversary.reset()

        def start(view: MemoryView) -> Vertex:
            vertex = adversary.start(view)
            if not self.graph.has_vertex(vertex):
                raise AdversaryError(f"start vertex {vertex!r} is not in the graph")
            return vertex

        return self._run("adversary", start, adversary.step, range(num_steps))

    # -- the game ----------------------------------------------------------

    def _run(
        self, driver: str, start: _Start, step: _Step, moves: Iterable[object]
    ) -> SearchTrace:
        """One run from fresh memory: the ``run_start`` … ``run_end``
        bracket (with the error that ended the run, if any) around
        :meth:`_drive`."""
        self.policy.reset()
        self.eviction.reset()
        if self._store is not None:
            self._store.reset()
        memory = make_memory(self.params)
        trace = SearchTrace()
        instr = self._instr
        if instr is None:
            return self._drive(start, step, moves, memory, trace)
        instr.run_start(driver, self.params, self._read_cost(), self.eviction_name)
        error: str | None = None
        try:
            return self._drive(start, step, moves, memory, trace, instr)
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            instr.run_end(trace, error)

    # The one drive loop, tuned as the engine's hot path: every per-step
    # callable (the move source, the fused memory visit, the move check)
    # is bound to a local before the loop, the covered-vertex fast path
    # is a single ``memory.visit`` call, and fault servicing lives in
    # :meth:`_fault` so the loop body stays small. The uninstrumented
    # call (instr=None) performs the seed's exact trace mutations —
    # bit-identical results, verified by trace replay.

    def _drive(
        self,
        start: _Start,
        step: _Step,
        moves: Iterable[object],
        memory: Memory,
        trace: SearchTrace,
        instr: "InstrumentationHook | None" = None,
    ) -> SearchTrace:
        """Serve the start vertex (an arrival, not a step), then one
        step per item of ``moves``; a fixed path ends early by raising
        :class:`_PathEnd`."""
        view = MemoryView(memory, trace)
        visit = memory.visit
        has_edge = self.graph.has_edge
        validate = self.validate_moves
        budgeted = self._step_budget is not None
        holders = self._holder_query(memory, instr)
        try:
            pathfront = start(view)
            if budgeted:
                self._check_budget(trace)
            if not visit(pathfront):
                self._fault(pathfront, memory, trace, 0, instr)
                if budgeted:
                    self._check_budget(trace)
            steps_since_fault = 0
            for _ in moves:
                nxt = step(pathfront, view)
                if validate and (nxt == pathfront or not has_edge(pathfront, nxt)):
                    raise AdversaryError(
                        f"illegal move: {pathfront!r} -> {nxt!r} is not an edge"
                    )
                trace.steps += 1
                steps_since_fault += 1
                if instr is not None:
                    instr.step(nxt, holders(nxt) if holders is not None else None)
                if budgeted:
                    self._check_budget(trace)
                if not visit(nxt):
                    self._fault(nxt, memory, trace, steps_since_fault, instr)
                    steps_since_fault = 0
                    # Re-check after servicing: the fault's read attempts
                    # (retry storms included) count against the budget,
                    # and on the final arrival there is no next iteration
                    # to catch the overage.
                    if budgeted:
                        self._check_budget(trace)
                pathfront = nxt
        except _PathEnd:
            pass
        return trace

    def _read_cost(self) -> float | None:
        """Per-attempt modeled read cost, None on a reliable disk."""
        return self._store.read_cost if self._store is not None else None

    @staticmethod
    def _holder_query(
        memory: Memory, instr: "InstrumentationHook | None"
    ) -> "Callable[[Vertex], tuple[BlockId, ...]] | None":
        """Per-arrival holder-block query for step events, or ``None``.

        Weak-model instrumented runs record which resident blocks hold
        each arriving vertex (in load order — the order ``visit``
        refreshes their recency), giving offline forensics the true
        block-reference string. Strong-model and uninstrumented runs
        record nothing; the uninstrumented hot path never pays the call.
        """
        if instr is None or not isinstance(memory, WeakMemory):
            return None
        return memory.covering_blocks

    # -- internals --------------------------------------------------------

    def _fault(
        self,
        vertex: Vertex,
        memory: Memory,
        trace: SearchTrace,
        steps_since_fault: int,
        instr: "InstrumentationHook | None",
    ) -> None:
        """Service a page fault at ``vertex`` (the cold path: the drive
        loops call this only when ``memory.visit`` reported a miss)."""
        trace.faults += 1
        trace.fault_gaps.append(steps_since_fault)
        if instr is not None:
            instr.fault(vertex, steps_since_fault, trace.faults)
        block_id = self.policy.choose(vertex, self.blocking, memory)
        if self._store is None:
            block = self.blocking.block(block_id)
        else:
            block = self._fetch_resilient(vertex, block_id, trace)
            block_id = block.block_id
        if vertex not in block:
            raise PagingError(
                f"policy chose block {block_id!r}, which does not contain the "
                f"faulting vertex {vertex!r}"
            )
        self.eviction.make_room(memory, block)
        memory.load(block)
        trace.blocks_read += 1
        trace.block_reads.append(block_id)
        memory.touch(vertex)
        if instr is not None:
            instr.block_read(block, vertex, memory, trace)

    def _fetch_resilient(
        self, vertex: Vertex, block_id: BlockId, trace: SearchTrace
    ) -> Block:
        """Read the chosen block through the resilient store, falling
        back to *alternate blocks covering the faulting vertex* when the
        read fails for good — the paper's storage blow-up exploited as
        redundancy. Raises :class:`BlockReadError` with the partial
        trace attached only when no covering replica survives."""
        assert self._store is not None
        try:
            return self._store.read(block_id, trace)
        except BlockReadError:
            last_error: BlockReadError | None = None
            for alternate in self.blocking.blocks_for(vertex):
                if alternate == block_id:
                    continue
                try:
                    block = self._store.read(alternate, trace)
                except BlockReadError as exc:
                    last_error = exc
                    continue
                trace.fallback_reads += 1
                if self._instr is not None:
                    self._instr.fallback(vertex, block_id, block.block_id)
                return block
            raise BlockReadError(
                f"no readable block covers vertex {vertex!r}: chosen block "
                f"{block_id!r} and every alternate replica failed",
                block_id=last_error.block_id if last_error else block_id,
                vertex=vertex,
                attempts=last_error.attempts if last_error else 0,
                permanent=True,
                trace=trace,
            ) from None

    def _check_budget(self, trace: SearchTrace) -> None:
        """The step-budget watchdog: total work units (path steps plus
        physical read attempts) may not exceed the configured budget."""
        work = trace.steps + trace.read_attempts
        if self._step_budget is not None and work > self._step_budget:
            raise BudgetExceededError(
                f"run exceeded its step budget of {self._step_budget} "
                f"work units ({trace.steps} steps, "
                f"{trace.read_attempts} read attempts)",
                trace=trace,
            )


def simulate_path(
    graph: Graph,
    blocking: Blocking,
    policy: BlockChoicePolicy,
    params: ModelParams,
    path: Iterable[Vertex],
    eviction: EvictionPolicy | None = None,
    validate_moves: bool = True,
    reliability: "ReliabilityConfig | None" = None,
    instrumentation: "InstrumentationHook | None" = None,
) -> SearchTrace:
    """One-shot helper around :meth:`Searcher.run_path`."""
    searcher = Searcher(
        graph, blocking, policy, params, eviction, validate_moves,
        reliability=reliability, instrumentation=instrumentation,
    )
    return searcher.run_path(path)


def simulate_adversary(
    graph: Graph,
    blocking: Blocking,
    policy: BlockChoicePolicy,
    params: ModelParams,
    adversary: Adversary,
    num_steps: int,
    eviction: EvictionPolicy | None = None,
    validate_moves: bool = True,
    reliability: "ReliabilityConfig | None" = None,
    instrumentation: "InstrumentationHook | None" = None,
) -> SearchTrace:
    """One-shot helper around :meth:`Searcher.run_adversary`."""
    searcher = Searcher(
        graph, blocking, policy, params, eviction, validate_moves,
        reliability=reliability, instrumentation=instrumentation,
    )
    return searcher.run_adversary(adversary, num_steps)
