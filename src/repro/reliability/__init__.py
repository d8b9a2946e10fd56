"""Fault injection and resilient I/O for the paging engine.

The paper buys blocking speed-up with storage blow-up ``s`` — vertices
replicated across blocks. This package exercises that replication as
*fault tolerance*: seeded, deterministic fault injectors model an
unreliable disk (transient failures, checksum-detected corruption,
permanent block loss), retry policies govern re-reads with backoff, and
the engine's replica fallback recovers from lost blocks using the very
alternate copies the blow-up paid for.

Everything is opt-in: a :class:`Searcher` without a
:class:`ReliabilityConfig` runs the seed's exact fast path.
"""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.reliability.faults": (
        "FailOnNthRead", "FaultInjector", "FaultOutcome", "LostBlocks", "NeverFail",
        "ProbabilisticFaults",
    ),
    "repro.reliability.retry": (
        "ExponentialBackoff", "FixedRetry", "NoRetry", "RetryPolicy",
    ),
    "repro.reliability.store": ("ReliabilityConfig", "ResilientBlockStore"),
}

if TYPE_CHECKING:
    from repro.reliability.faults import (
        FailOnNthRead as FailOnNthRead,
        FaultInjector as FaultInjector,
        FaultOutcome as FaultOutcome,
        LostBlocks as LostBlocks,
        NeverFail as NeverFail,
        ProbabilisticFaults as ProbabilisticFaults,
    )
    from repro.reliability.retry import (
        ExponentialBackoff as ExponentialBackoff,
        FixedRetry as FixedRetry,
        NoRetry as NoRetry,
        RetryPolicy as RetryPolicy,
    )
    from repro.reliability.store import (
        ReliabilityConfig as ReliabilityConfig,
        ResilientBlockStore as ResilientBlockStore,
    )
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
