"""locksan — the deterministic runtime lock-order sanitizer.

The dynamic half of the concurrency gate (the static half is
:mod:`repro.lint.concurrency`; both report violations with the *same
vocabulary*, the ``VIOLATION_*`` constants below, so CI can diff them).

Opt-in by construction: nothing in the default import path touches
``threading``. A test (or the pytest fixture in ``tests/conftest.py``)
calls :func:`install`, which swaps a *per-module* ``threading`` shim
into the named repro modules — ``queue.Queue``'s internal locks and
the interpreter's own machinery stay uninstrumented, so only the
locks this codebase allocates are observed. :func:`uninstall` restores
the originals and the default path is bit-identical to the seed.

What the sanitizer records, per instrumented lock:

* a **stable name** — the allocation site (``file.py:lineno``, plus an
  ordinal for loops), never ``id()`` or a thread id, so two runs of the
  same test produce the same names;
* the **runtime lock-order graph** — an edge ``A -> B`` whenever a
  thread acquires ``B`` while holding ``A``, tagged with the acquiring
  code location;
* **violations** — lock-order inversions (both ``A -> B`` and
  ``B -> A`` observed) and blocking-while-locked events
  (``Event.wait`` / ``Condition.wait`` on a *different* lock while an
  instrumented lock is held).

:meth:`LockSanitizer.report_json` is byte-stable: entries are sorted
by lock name and code location, violations are deduplicated on
content, and nothing derived from wall-clock time, thread identity, or
object identity is emitted. Two clean runs of the same suite produce
the same bytes — which is exactly what the CI concurrency gate
asserts.
"""

from __future__ import annotations

import json
import sys
import threading as _threading
from typing import Any, Iterable, Sequence

# ---------------------------------------------------------------------------
# The shared violation vocabulary (imported by repro.lint.concurrency)
# ---------------------------------------------------------------------------

#: RL008 / dynamic: state touched without the lock that guards it.
VIOLATION_UNGUARDED = "unguarded-access"
#: RL009 / dynamic: two locks acquired in both orders.
VIOLATION_LOCK_ORDER = "lock-order-cycle"
#: RL010: a thread target mutates shared state with no guard at all.
VIOLATION_UNGUARDED_CAPTURE = "unguarded-capture"
#: RL011 / dynamic: a blocking operation ran while a lock was held.
VIOLATION_BLOCKING_CALL = "blocking-while-locked"

VIOLATION_KINDS = (
    VIOLATION_BLOCKING_CALL,
    VIOLATION_LOCK_ORDER,
    VIOLATION_UNGUARDED,
    VIOLATION_UNGUARDED_CAPTURE,
)

# Real (uninstrumented) primitives, captured at import time so the
# sanitizer's own internals never observe themselves.
_REAL_LOCK = _threading.Lock
_REAL_RLOCK = _threading.RLock
_REAL_CONDITION = _threading.Condition
_REAL_EVENT = _threading.Event

#: Modules whose lock allocations the service/cache/obs tests exercise.
DEFAULT_MODULES = (
    "repro.cache",
    "repro.obs.metrics",
    "repro.service.cache",
    "repro.service.server",
    "repro.service.stores",
)

_THIS_FILE = __file__


def _call_site() -> str:
    """``file.py:lineno`` of the nearest frame outside this module.

    Deterministic across runs of the same source tree (no ids, no
    clocks) — the property every emitted name and location rides on.
    """
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == _THIS_FILE:
        frame = frame.f_back
    if frame is None:  # pragma: no cover -- only if called at top level
        return "<unknown>:0"
    filename = frame.f_code.co_filename.replace("\\", "/").rsplit("/", 1)[-1]
    return f"{filename}:{frame.f_lineno}"


class LockSanitizer:
    """Collects acquisition order and violations for instrumented locks.

    Internal state is guarded by a *real* lock so the sanitizer never
    recurses into itself; the per-thread held stack lives in a
    ``threading.local`` so no cross-thread synchronisation is needed on
    the hot path.
    """

    def __init__(self) -> None:
        self._guard = _REAL_LOCK()
        self._held = _threading.local()
        self._site_ordinals: dict[str, int] = {}
        self._lock_names: set[str] = set()
        # (src, dst) -> first acquisition site that created the edge.
        self._edges: dict[tuple[str, str], str] = {}
        # Content-keyed so detection order (a thread race) cannot
        # change the report.
        self._violations: set[tuple[str, tuple[str, ...], tuple[str, ...], str]] = set()

    # -- naming ------------------------------------------------------------

    def register_lock(self, site: str) -> str:
        """A stable name for a lock allocated at ``site`` (ordinal
        suffix for repeat allocations, e.g. in loops)."""
        with self._guard:
            ordinal = self._site_ordinals.get(site, 0)
            self._site_ordinals[site] = ordinal + 1
            name = site if ordinal == 0 else f"{site}#{ordinal}"
            self._lock_names.add(name)
            return name

    # -- the held stack ----------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    # -- events ------------------------------------------------------------

    def before_acquire(self, name: str, site: str) -> None:
        """Record order edges *before* the acquire can block (so the
        edge exists even if the acquire deadlocks)."""
        stack = self._stack()
        if name in stack:  # RLock re-entry: no new ordering information
            return
        with self._guard:
            for held in stack:
                if held == name:
                    continue
                self._edges.setdefault((held, name), site)
                reverse = self._edges.get((name, held))
                if reverse is not None:
                    locks = tuple(sorted((held, name)))
                    sites = tuple(sorted((site, reverse)))
                    self._violations.add(
                        (
                            VIOLATION_LOCK_ORDER,
                            locks,
                            sites,
                            f"`{held}` and `{name}` acquired in both orders",
                        )
                    )

    def note_acquired(self, name: str) -> None:
        self._stack().append(name)

    def note_released(self, name: str) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def note_blocking(
        self, label: str, site: str, exempt: str | None = None
    ) -> None:
        """A blocking operation at ``site``; any held lock other than
        ``exempt`` (a Condition releases its own lock) is a violation."""
        held = [name for name in self._stack() if name != exempt]
        if not held:
            return
        with self._guard:
            self._violations.add(
                (
                    VIOLATION_BLOCKING_CALL,
                    tuple(sorted(held)),
                    (site,),
                    f"`{label}` while holding {', '.join(sorted(held))}",
                )
            )

    # -- reporting ---------------------------------------------------------

    def violations(self) -> list[dict[str, Any]]:
        with self._guard:
            raw = sorted(self._violations)
        return [
            {
                "kind": kind,
                "locks": list(locks),
                "sites": list(sites),
                "detail": detail,
            }
            for kind, locks, sites, detail in raw
        ]

    def report(self) -> dict[str, Any]:
        """The full run report: locks seen, order edges, violations.

        Everything is sorted by (lock name, code location); nothing
        depends on wall-clock time, thread identity, or object ids.
        """
        with self._guard:
            locks = sorted(self._lock_names)
            edges = sorted(
                (src, dst, site) for (src, dst), site in self._edges.items()
            )
        return {
            "schema": 1,
            "locks": locks,
            "edges": [
                {"from": src, "to": dst, "site": site}
                for src, dst, site in edges
            ],
            "violations": self.violations(),
        }

    def report_json(self) -> str:
        """The report as canonical JSON — byte-identical across runs
        of the same (clean or equally seeded) workload."""
        return json.dumps(
            self.report(), sort_keys=True, separators=(",", ":")
        )


# ---------------------------------------------------------------------------
# Instrumented primitives
# ---------------------------------------------------------------------------


class _InstrumentedLock:
    """A ``threading.Lock``/``RLock`` stand-in reporting to a sanitizer."""

    def __init__(self, sanitizer: LockSanitizer, inner: Any, name: str) -> None:
        self._san = sanitizer
        self._inner = inner
        self.san_name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._san.before_acquire(self.san_name, _call_site())
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._san.note_acquired(self.san_name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._san.note_released(self.san_name)

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:
        # Tests introspect lock internals; stay a transparent proxy.
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"<locksan {self.san_name}>"


class _InstrumentedCondition:
    """``threading.Condition`` stand-in: waiting releases *this* lock
    (exempt), but waiting while holding any *other* lock is the exact
    convoy RL011 bans."""

    def __init__(
        self, sanitizer: LockSanitizer, name: str, lock: Any = None
    ) -> None:
        self._san = sanitizer
        self.san_name = name
        inner_lock = getattr(lock, "_inner", lock)
        self._inner = _REAL_CONDITION(inner_lock)

    def acquire(self, *args: Any) -> bool:
        self._san.before_acquire(self.san_name, _call_site())
        acquired = self._inner.acquire(*args)
        if acquired:
            self._san.note_acquired(self.san_name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._san.note_released(self.san_name)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def wait(self, timeout: float | None = None) -> bool:
        self._san.note_blocking(
            "Condition.wait", _call_site(), exempt=self.san_name
        )
        return bool(self._inner.wait(timeout))

    def wait_for(self, predicate: Any, timeout: float | None = None) -> Any:
        self._san.note_blocking(
            "Condition.wait_for", _call_site(), exempt=self.san_name
        )
        return self._inner.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


class _InstrumentedEvent:
    """``threading.Event`` stand-in: ``wait`` while holding any
    instrumented lock is a blocking-while-locked violation."""

    def __init__(self, sanitizer: LockSanitizer) -> None:
        self._san = sanitizer
        self._inner = _REAL_EVENT()

    def wait(self, timeout: float | None = None) -> bool:
        self._san.note_blocking("Event.wait", _call_site())
        return bool(self._inner.wait(timeout))

    def set(self) -> None:
        self._inner.set()

    def clear(self) -> None:
        self._inner.clear()

    def is_set(self) -> bool:
        return bool(self._inner.is_set())

    def __getattr__(self, name: str) -> Any:
        # Tests introspect event internals; stay a transparent proxy.
        return getattr(self._inner, name)


class _ThreadingShim:
    """A drop-in for a module's ``threading`` global: lock factories
    return instrumented proxies, everything else passes through."""

    def __init__(self, sanitizer: LockSanitizer) -> None:
        self._san = sanitizer

    def Lock(self) -> _InstrumentedLock:  # noqa: N802 -- mirrors threading
        name = self._san.register_lock(_call_site())
        return _InstrumentedLock(self._san, _REAL_LOCK(), name)

    def RLock(self) -> _InstrumentedLock:  # noqa: N802
        name = self._san.register_lock(_call_site())
        return _InstrumentedLock(self._san, _REAL_RLOCK(), name)

    def Condition(self, lock: Any = None) -> _InstrumentedCondition:  # noqa: N802
        name = self._san.register_lock(_call_site())
        return _InstrumentedCondition(self._san, name, lock)

    def Event(self) -> _InstrumentedEvent:  # noqa: N802
        return _InstrumentedEvent(self._san)

    def __getattr__(self, name: str) -> Any:
        return getattr(_threading, name)


# ---------------------------------------------------------------------------
# Install / uninstall
# ---------------------------------------------------------------------------

_ACTIVE: LockSanitizer | None = None
_PATCHED: dict[str, Any] = {}


def install(modules: Sequence[str] | None = None) -> LockSanitizer:
    """Swap an instrumenting ``threading`` shim into each named module
    (default: :data:`DEFAULT_MODULES`) and return the sanitizer.

    Only locks allocated *after* install are observed — tests construct
    their subjects inside the instrumented window. Idempotent per
    session: a second install without :func:`uninstall` raises, because
    two sanitizers would split the held-stack view.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("locksan already installed; call uninstall() first")
    import importlib

    sanitizer = LockSanitizer()
    shim = _ThreadingShim(sanitizer)
    for module_name in modules if modules is not None else DEFAULT_MODULES:
        module = importlib.import_module(module_name)
        if getattr(module, "threading", None) is not None:
            _PATCHED[module_name] = module.threading
            module.threading = shim  # type: ignore[attr-defined]
    _ACTIVE = sanitizer
    return sanitizer


def uninstall() -> None:
    """Restore every patched module's real ``threading``."""
    global _ACTIVE
    import importlib

    for module_name, original in _PATCHED.items():
        module = importlib.import_module(module_name)
        module.threading = original  # type: ignore[attr-defined]
    _PATCHED.clear()
    _ACTIVE = None


def current() -> LockSanitizer | None:
    """The installed sanitizer, if any (None on the default path)."""
    return _ACTIVE


def assert_clean(sanitizer: LockSanitizer) -> None:
    """Raise with the full deterministic report if violations exist."""
    violations = sanitizer.violations()
    if violations:
        raise AssertionError(
            "locksan violations:\n" + json.dumps(violations, indent=2, sort_keys=True)
        )


__all__ = [
    "DEFAULT_MODULES",
    "LockSanitizer",
    "VIOLATION_BLOCKING_CALL",
    "VIOLATION_KINDS",
    "VIOLATION_LOCK_ORDER",
    "VIOLATION_UNGUARDED",
    "VIOLATION_UNGUARDED_CAPTURE",
    "assert_clean",
    "current",
    "install",
    "uninstall",
]
