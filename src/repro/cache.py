"""Construction cache: memoize expensive, deterministic builds.

The harness rebuilds the same objects over and over — the Table 1
sweep and the parameter sweeps construct identical random-regular
graphs, radii extrema, ball covers, and reduced blockings many times,
and every one of those is a pure function of ``(graph class, params)``.
This module gives them one shared, bounded memo:

* an in-memory LRU keyed by ``(kind, key)`` — ``kind`` names the
  construction ("graph", "radii.min", "ballcover.packing", ...), and
  ``key`` is a hashable tuple of the parameters that determine the
  result (for graph-derived constructions, the graph's
  :meth:`~repro.graphs.base.Graph.cache_key` plus the remaining
  parameters);
* optionally, a pickle spill directory so constructions survive across
  processes and sessions (``--cache-dir`` on the experiments CLI).

Correctness contract: a construction may be cached only if it is a
*deterministic* function of its key, and callers must treat the cached
object as immutable — everything stored here (graphs, blockings, radii)
is shared by reference. Randomized constructions qualify because every
generator in :mod:`repro.graphs.generators` takes an explicit seed,
which then belongs in the key. Objects whose key cannot be stated
(``cache_key() is None``, e.g. a hand-mutated adjacency graph) are
rebuilt every time — :func:`cached` with ``key=None`` simply calls the
builder.

The cache is process-local. The campaign runner forks workers,
so entries built *before* the fork are inherited by every worker for
free; entries built after the fork stay in their worker. The on-disk
store is shared either way (writes are atomic renames).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable


def atomic_write_bytes(path: str | os.PathLike[str], data: bytes) -> None:
    """Write ``data`` to ``path`` via tempfile + :func:`os.replace`.

    The write is crash-atomic: readers see either the old complete
    file or the new complete file, never a truncated mix — the same
    idiom the construction cache's pickle spill uses, shared here so
    result dumps and campaign manifests commit identically. Concurrent
    writers race safely (last rename wins, both files were complete).
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: str | os.PathLike[str], text: str, encoding: str = "utf-8"
) -> None:
    """Text-mode :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ConstructionCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
        }


class ConstructionCache:
    """A bounded LRU memo for deterministic constructions.

    ``maxsize`` bounds the number of in-memory entries; the least
    recently *used* entry is dropped first (the dict is kept in use
    order, the same trick :class:`~repro.core.memory.WeakMemory` uses
    for its recency index). ``disk_dir`` adds a persistent pickle
    store consulted on memory misses and written on builds.
    """

    def __init__(self, maxsize: int = 128, disk_dir: str | None = None) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._entries: dict[tuple[str, Hashable], Any] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, full_key: tuple[str, Hashable]) -> bool:
        with self._lock:
            return full_key in self._entries

    def get_or_build(
        self, kind: str, key: Hashable, builder: Callable[[], Any]
    ) -> Any:
        """The cached value for ``(kind, key)``, building it on miss.

        The builder runs outside the lock (it may itself consult the
        cache); concurrent misses on the same key may build twice, and
        the first store wins — harmless for deterministic builders.
        """
        full_key = (kind, key)
        with self._lock:
            entries = self._entries
            if full_key in entries:
                self.stats.hits += 1
                value = entries.pop(full_key)
                entries[full_key] = value  # reinsert: keep use order
                return value
            self.stats.misses += 1
        value, from_disk = self._load_from_disk(full_key)
        if not from_disk:
            value = builder()
            self._store_to_disk(full_key, value)
        with self._lock:
            entries = self._entries
            if full_key not in entries:
                while len(entries) >= self.maxsize:
                    entries.pop(next(iter(entries)))
                    self.stats.evictions += 1
                entries[full_key] = value
        return value

    def clear(self) -> None:
        """Drop every in-memory entry (the disk store is untouched)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> list[tuple[str, Hashable]]:
        """In-memory keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    # -- disk spill ------------------------------------------------------

    def _disk_path(self, full_key: tuple[str, Hashable]) -> str:
        kind, key = full_key
        digest = hashlib.sha256(repr((kind, key)).encode()).hexdigest()[:32]
        safe_kind = "".join(c if c.isalnum() or c in "._-" else "_" for c in kind)
        return os.path.join(self.disk_dir, f"{safe_kind}-{digest}.pkl")

    def _load_from_disk(self, full_key) -> tuple[Any, bool]:
        if self.disk_dir is None:
            return None, False
        try:
            with open(self._disk_path(full_key), "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            # Missing, corrupt, or stale (unimportable) entry: rebuild.
            return None, False
        self.stats.disk_hits += 1
        return value, True

    def _store_to_disk(self, full_key, value) -> None:
        if self.disk_dir is None:
            return
        path = self._disk_path(full_key)
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            atomic_write_bytes(
                path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self.stats.disk_writes += 1
        except (OSError, pickle.PickleError):
            pass  # an unspillable value is still served from memory


@dataclass
class _CacheConfig:
    """Process-global cache configuration (see :func:`configure_cache`)."""

    enabled: bool = True
    cache: ConstructionCache = field(default_factory=ConstructionCache)


_config = _CacheConfig()


def get_cache() -> ConstructionCache:
    """The process-global construction cache."""
    return _config.cache


def cache_enabled() -> bool:
    return _config.enabled


def configure_cache(
    maxsize: int | None = None,
    disk_dir: str | None = None,
    enabled: bool | None = None,
) -> ConstructionCache:
    """Reconfigure the global cache; returns the (fresh) instance.

    Passing ``maxsize`` or ``disk_dir`` replaces the cache (dropping
    its entries); ``enabled=False`` makes :func:`cached` bypass it
    entirely (the CLI's ``--no-cache``).
    """
    if enabled is not None:
        _config.enabled = enabled
    if maxsize is not None or disk_dir is not None:
        current = _config.cache
        _config.cache = ConstructionCache(
            maxsize=maxsize if maxsize is not None else current.maxsize,
            disk_dir=disk_dir if disk_dir is not None else current.disk_dir,
        )
    return _config.cache


def cached(kind: str, key: Hashable | None, builder: Callable[[], Any]) -> Any:
    """Memoize ``builder()`` under ``(kind, key)`` in the global cache.

    ``key=None`` means "this object has no stable identity" (e.g. a
    graph without a :meth:`cache_key`): the builder simply runs. The
    same holds while caching is disabled.
    """
    if key is None or not _config.enabled:
        return builder()
    return _config.cache.get_or_build(kind, key, builder)
