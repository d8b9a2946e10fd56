"""Outside-in span tracing for the benchmark's traced runs.

The program is never edited: :meth:`Tracer.wrap` replaces a public
function at its class or module attribute with a wrapper that records
one span per call, and :meth:`Tracer.restore` puts every original
object back. Spans stay in memory (name, start, end, parent) until the
run ends; :meth:`Tracer.ledger` folds them into calls and self time per
name, and :meth:`Tracer.write` dumps them to a file.

Rules the wrappers follow:

* A call entered while a span of the same name is already open on the
  same thread is not a span of its own (a facade delegating to the
  object it wraps, ``super()`` calls, nested builders). Its time stays
  in the outer span and it is not counted again.
* Self time is a span's duration minus the time its child spans cover.
* Counters are taken at the same call boundaries, by ``before``/``after``
  observers that run outside the timed interval.

Each thread records into its own buffers, so worker threads never
contend on a lock while tracing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

#: Observer run before a traced call: ``before(spans, args)``.
Before = Callable[["ThreadSpans", tuple], None]
#: Observer run after a traced call returns: ``after(spans, args, result)``.
After = Callable[["ThreadSpans", tuple, Any], None]

_MAX_NAMES = 512


class ThreadSpans:
    """One thread's spans in start order, its open-span stack, and the
    counters its observers added."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.open = [0] * _MAX_NAMES
        self.counters: dict[str, float] = {}

    def begin(self, name_id: int) -> int:
        """Open a span; returns its index."""
        stack = self.stack
        index = len(self.starts)
        self.names.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.open[name_id] += 1
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int, name_id: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()
        self.open[name_id] -= 1

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def parent_name_id(self) -> int:
        """Name id of the innermost open span, -1 when none is open."""
        return self.names[self.stack[-1]] if self.stack else -1


class Tracer:
    """Records spans around wrapped functions; see the module docstring.

    Use as a context manager so the originals come back even when the
    traced run raises::

        with Tracer() as tracer:
            tracer.wrap(SomeClass, "method", "layer.method")
            ...
            ledger = tracer.ledger()
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []
        #: Values set directly by the benchmark (ratios, byte counts).
        self.values: dict[str, float] = {}

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is not None:
            return found
        if len(self.names) >= _MAX_NAMES:
            raise ValueError(f"more than {_MAX_NAMES} span names")
        self._ids[name] = len(self.names)
        self.names.append(name)
        return self._ids[name]

    def spans(self) -> ThreadSpans:
        """The calling thread's buffers (created on first use)."""
        try:
            return self._local.spans
        except AttributeError:
            spans = ThreadSpans(threading.current_thread().name)
            with self._threads_lock:
                self._threads.append(spans)
            self._local.spans = spans
            return spans

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        name_id = self.name_id(name)
        spans = self.spans()
        index = spans.begin(name_id)
        try:
            yield
        finally:
            spans.end(index, name_id)

    def record(self, name: str, start: float, end: float) -> None:
        """A finished root span whose interval the caller measured, e.g.
        a wait that began on another thread."""
        spans = self.spans()
        spans.names.append(self.name_id(name))
        spans.parents.append(-1)
        spans.starts.append(start)
        spans.ends.append(end)

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        before: Before | None = None,
        after: After | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        recording wrapper. With ``name=None`` the wrapper records no
        span and only runs the observers."""
        original = vars(owner)[attr]
        name_id = self.name_id(name) if name is not None else -1
        get_spans = self.spans

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            spans = get_spans()
            if name_id >= 0 and spans.open[name_id]:
                return original(*args, **kwargs)
            if before is not None:
                before(spans, args)
            if name_id < 0:
                result = original(*args, **kwargs)
            else:
                index = spans.begin(name_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans.end(index, name_id)
            if after is not None:
                after(spans, args, result)
            return result

        # Name and docstring only: copying a wrapped class's namespace
        # into the function would be misleading.
        functools.update_wrapper(wrapper, original, updated=())
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def patched(self) -> list[tuple[Any, str, Any]]:
        """Every ``(owner, attr, original)`` currently wrapped."""
        return list(self._patched)

    def restore(self) -> None:
        """Put every original attribute back, newest wrapper first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def ledger(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.s`` (self time) for every span
        name, plus every observer counter and directly set value."""
        out = ledger_of(self.names, self._threads)
        for spans in self._threads:
            for key, amount in spans.counters.items():
                out[key] = out.get(key, 0) + amount
        out.update(self.values)
        return out

    def write(self, path: str | Path) -> None:
        """Dump the spans: one JSON header line, then per thread the
        raw ``names``/``parents`` (int32) and ``starts``/``ends``
        (float64) arrays in native byte order. :func:`read_spans`
        loads the file back."""
        threads = list(self._threads)
        header = {
            "names": self.names,
            "threads": [
                {"name": spans.thread_name, "spans": len(spans.starts)}
                for spans in threads
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for spans in threads:
                for column in (spans.names, spans.parents, spans.starts, spans.ends):
                    column.tofile(fh)


def _fold(spans: ThreadSpans, calls: list[int], self_s: list[float]) -> None:
    """Add one thread's spans to the per-name totals. Children start
    after their parent, so one pass from the newest span back has every
    child's duration in hand before its parent is reached."""
    names, parents, starts, ends = spans.names, spans.parents, spans.starts, spans.ends
    child = [0.0] * len(starts)
    for index in range(len(starts) - 1, -1, -1):
        duration = ends[index] - starts[index]
        name_id = names[index]
        calls[name_id] += 1
        self_s[name_id] += duration - child[index]
        parent = parents[index]
        if parent >= 0:
            child[parent] += duration


def read_spans(path: str | Path) -> tuple[list[str], list[ThreadSpans]]:
    """Load a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        threads = []
        for info in header["threads"]:
            spans = ThreadSpans(info["name"])
            for column in (spans.names, spans.parents, spans.starts, spans.ends):
                column.fromfile(fh, info["spans"])
            threads.append(spans)
    return header["names"], threads


def ledger_of(names: list[str], threads: list[ThreadSpans]) -> dict[str, float]:
    """Calls and self time per name, recomputed from loaded spans."""
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for spans in threads:
        _fold(spans, calls, self_s)
    out: dict[str, float] = {}
    for name_id, name in enumerate(names):
        out[f"{name}.calls"] = calls[name_id]
        out[f"{name}.s"] = self_s[name_id]
    return out
