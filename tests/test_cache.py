"""Construction cache: LRU bounds, disk spill, and graph cache keys."""

import pytest

from repro import cache as cache_module
from repro.analysis import radii
from repro.cache import ConstructionCache, cached, configure_cache, get_cache
from repro.graphs import (
    CompleteTree,
    GridGraph,
    InfiniteGridGraph,
    path_graph,
    torus_graph,
)


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Isolate every test behind its own global cache."""
    monkeypatch.setattr(cache_module, "_cache", ConstructionCache())


class TestConstructionCache:
    def test_miss_builds_then_hits(self):
        cache = ConstructionCache(maxsize=4)
        calls = []
        build = lambda: calls.append(1) or "value"
        assert cache.get_or_build("k", (1,), build) == "value"
        assert cache.get_or_build("k", (1,), build) == "value"
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_distinct_kinds_do_not_collide(self):
        cache = ConstructionCache(maxsize=4)
        assert cache.get_or_build("a", (1,), lambda: "A") == "A"
        assert cache.get_or_build("b", (1,), lambda: "B") == "B"

    def test_lru_eviction_drops_least_recently_used(self):
        cache = ConstructionCache(maxsize=2)
        cache.get_or_build("k", "a", lambda: 1)
        cache.get_or_build("k", "b", lambda: 2)
        cache.get_or_build("k", "a", lambda: 1)  # refresh a
        cache.get_or_build("k", "c", lambda: 3)  # evicts b
        assert cache.stats.evictions == 1
        assert ("k", "b") not in cache
        assert ("k", "a") in cache
        assert ("k", "c") in cache

    def test_clear_empties_memory(self):
        cache = ConstructionCache(maxsize=4)
        cache.get_or_build("k", (1,), lambda: "x")
        cache.clear()
        assert len(cache) == 0

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            ConstructionCache(maxsize=0)

    def test_disk_roundtrip(self, tmp_path):
        first = ConstructionCache(maxsize=4, disk_dir=str(tmp_path))
        first.get_or_build("k", (1, 2), lambda: {"deep": [1, 2, 3]})
        assert first.stats.disk_writes == 1
        # A fresh cache (fresh process, conceptually) finds it on disk.
        second = ConstructionCache(maxsize=4, disk_dir=str(tmp_path))
        value = second.get_or_build(
            "k", (1, 2), lambda: pytest.fail("should not rebuild")
        )
        assert value == {"deep": [1, 2, 3]}
        assert second.stats.disk_hits == 1

    def test_corrupt_disk_entry_rebuilds(self, tmp_path):
        cache = ConstructionCache(maxsize=4, disk_dir=str(tmp_path))
        path = cache._disk_path(("k", (7,)))
        import os

        os.makedirs(tmp_path, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get_or_build("k", (7,), lambda: "rebuilt") == "rebuilt"

    def test_concurrent_get_or_build_one_valid_entry(self):
        """The service's store memo leans on this: racing first-touches
        of one key may build more than once (documented), but every
        caller gets an equal value and exactly one entry survives."""
        import threading

        cache = ConstructionCache(maxsize=8)
        barrier = threading.Barrier(8)
        results, errors = [], []
        lock = threading.Lock()

        def work():
            try:
                barrier.wait()
                value = cache.get_or_build(
                    "k", ("hot",), lambda: {"payload": list(range(16))}
                )
                with lock:
                    results.append(value)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 8
        assert all(value == {"payload": list(range(16))} for value in results)
        assert len(cache) == 1
        assert cache.stats.hits + cache.stats.misses == 8

    def test_concurrent_distinct_keys_no_lost_updates(self):
        """Parallel builds of distinct keys never clobber each other:
        every key answers with its own value afterwards."""
        import threading

        cache = ConstructionCache(maxsize=256)
        errors = []

        def work(worker):
            try:
                for i in range(20):
                    key = (worker, i)
                    value = cache.get_or_build("k", key, lambda k=key: k * 2)
                    assert value == key * 2
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(worker,)) for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for worker in range(6):
            for i in range(20):
                key = (worker, i)
                assert cache.get_or_build(
                    "k", key, lambda: pytest.fail("should be cached")
                ) == key * 2


def _race_spill(args):
    """One racing writer: spill ``payload`` under the shared key."""
    disk_dir, tag = args
    cache = ConstructionCache(maxsize=4, disk_dir=disk_dir)
    cache.get_or_build("k", ("shared",), lambda: {"writer": tag, "data": [tag] * 500})
    return tag


class TestAtomicWrites:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        from repro.cache import atomic_write_bytes, atomic_write_text

        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        atomic_write_text(tmp_path / "out.txt", "text\n")
        assert (tmp_path / "out.txt").read_text() == "text\n"
        # No stray temp files survive a successful commit.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.txt"]

    def test_failed_write_leaves_no_temp_and_old_content(self, tmp_path):
        from repro.cache import atomic_write_bytes

        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"old")

        class Boom(Exception):
            pass

        import os as _os
        real_replace = _os.replace

        def exploding_replace(src, dst):
            raise Boom("died at the rename boundary")

        _os.replace = exploding_replace
        try:
            with pytest.raises(Boom):
                atomic_write_bytes(path, b"new")
        finally:
            _os.replace = real_replace
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]

    def test_concurrent_writers_race_to_one_valid_pickle(self, tmp_path):
        """Two processes spilling the same key at once: the loser's
        rename wins or loses wholesale, never interleaves — the spill
        file is always one of the two complete pickles."""
        import pickle

        from repro.experiments.campaign import _pool_context

        ctx = _pool_context()
        for round_id in range(3):
            disk_dir = str(tmp_path / f"round{round_id}")
            with ctx.Pool(processes=2) as pool:
                pool.map(_race_spill, [(disk_dir, "a"), (disk_dir, "b")])
            probe = ConstructionCache(maxsize=4, disk_dir=disk_dir)
            spill = probe._disk_path(("k", ("shared",)))
            value = pickle.loads(open(spill, "rb").read())
            assert value["writer"] in ("a", "b")
            assert value["data"] == [value["writer"]] * 500
            # And a fresh cache can read it back through the front door.
            assert probe.get_or_build(
                "k", ("shared",), lambda: pytest.fail("should not rebuild")
            ) == value


class TestGlobalCache:
    def test_cached_uses_global_cache(self):
        assert cached("t", ("x",), lambda: 41) == 41
        assert cached("t", ("x",), lambda: pytest.fail("rebuild")) == 41
        assert get_cache().stats.hits == 1

    def test_none_key_bypasses(self):
        calls = []
        for _ in range(2):
            cached("t", None, lambda: calls.append(1))
        assert len(calls) == 2
        assert len(get_cache()) == 0

    def test_configure_replaces_instance(self):
        before = get_cache()
        after = configure_cache(maxsize=7)
        assert after is get_cache()
        assert after is not before
        assert after.maxsize == 7


class TestGraphCacheKeys:
    def test_implicit_graphs_have_keys(self):
        assert InfiniteGridGraph(2).cache_key() == ("infinite-grid", 2)
        assert GridGraph((3, 4)).cache_key() == ("grid", (3, 4))
        assert CompleteTree(2, 5).cache_key() == ("complete-tree", 2, 5)

    def test_generators_tag_keys(self):
        assert path_graph(10).cache_key() == ("path", 10)
        assert torus_graph((3, 3)).cache_key() == ("torus", (3, 3))

    def test_mutation_clears_generator_key(self):
        graph = path_graph(10)
        graph.add_edge(0, 5)
        assert graph.cache_key() is None

    def test_hand_built_graph_has_no_key(self):
        from repro.graphs.adjacency import AdjacencyGraph

        graph = AdjacencyGraph.from_edges([(0, 1), (1, 2)])
        assert graph.cache_key() is None


class TestRadiiCaching:
    def test_min_radius_memoized_and_unchanged(self):
        graph = path_graph(30)
        get_cache().clear()
        fresh_value = radii.min_radius(graph, 5)
        hits_before = get_cache().stats.hits
        assert radii.min_radius(graph, 5) == fresh_value
        assert get_cache().stats.hits == hits_before + 1

    def test_sampled_extrema_not_memoized(self):
        graph = path_graph(30)
        radii.min_radius(graph, 5, sample=10, seed=1)
        # Neither an extrema entry nor a neighborhood table: nothing.
        assert get_cache().keys() == []

    def test_mutated_graph_not_memoized(self):
        graph = path_graph(30)
        graph.add_edge(0, 29)
        radii.min_radius(graph, 5)
        assert len(get_cache()) == 0


class TestBlockingCaching:
    def test_lemma13_blocking_is_shared(self):
        from repro.blockings import lemma13_blocking

        graph = path_graph(40)
        first = lemma13_blocking(graph, 4)
        second = lemma13_blocking(graph, 4)
        assert first[0] is second[0]
        assert lemma13_blocking(graph, 8)[0] is not first[0]

    def test_steiner_skeleton_cached(self):
        from repro.analysis.steiner import build_skeletal_steiner_tree

        graph = torus_graph((4, 4))
        first = build_skeletal_steiner_tree(graph, 2)
        second = build_skeletal_steiner_tree(graph, 2)
        assert first is second
