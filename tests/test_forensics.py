"""Fault forensics: stack distances, taxonomy, ledger, self-check.

The load-bearing claims under test:

* **Replay-grade exactness** — for every clean weak-model LRU run, the
  generalized Mattson pass over the arrival-level reference string
  predicts the engine's observed fault count *exactly* at the run's
  actual m; for s=1 path runs the same single trace is exact at every
  other m too (the reference string does not depend on m).
* **Taxonomy totals always reconcile** — compulsory + capacity +
  policy-induced == observed wherever MIN is available, and an s>1
  reference string degrades to "MIN unavailable" instead of raising.
* **Byte stability** — the forensics document over a campaign's merged
  trace is byte-identical across ``--jobs`` counts and chaos retries.
* Old (pre-forensics) wire forms still scan: runs without step-level
  holder blocks fall back to the reads-only reference string and are
  excluded from the self-check, not crashed on.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FirstBlockPolicy, ModelParams, Searcher
from repro.adversaries import RandomWalkAdversary
from repro.blockings import (
    OtherCopyPolicy,
    contiguous_1d_blocking,
    offset_1d_blocking,
)
from repro.core.blocking import ExplicitBlocking
from repro.core.model import PagingModel
from repro.errors import PagingError
from repro.experiments import ChaosConfig, run_campaign
from repro.graphs import InfiniteGridGraph
from repro.obs import (
    Histogram,
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
    use_instrumentation,
)
from repro.obs.forensics import (
    LRU_EVICTION,
    Arrival,
    RunRecord,
    analyze_trace,
    block_ledger,
    fold_forensics_metrics,
    render_markdown,
    scan_trace,
    self_check_failures,
    stack_distances,
    taxonomy,
    to_json,
)
from repro.obs.forensics import _block_key
from repro.obs.forensics import main as forensics_main
from repro.paging.belady import belady_trace
from repro.paging.eviction import EvictAllPolicy

B = 8
LINE = InfiniteGridGraph(1)
GAMES_ONLY = ["grid1d", "pathological"]


def line_walk(*ranges):
    """Concatenate integer ranges into a 1-d vertex path."""
    return [(i,) for r in ranges for i in r]


def traced_path(tmp_path, name, path, *, memory_size=2 * B, blocking=None,
                paging_model=PagingModel.WEAK, eviction=None):
    trace_path = tmp_path / f"{name}.jsonl"
    instr = Instrumentation(sink=JsonlSink(trace_path))
    searcher = Searcher(
        LINE,
        blocking or contiguous_1d_blocking(B),
        FirstBlockPolicy(),
        ModelParams(B, memory_size, paging_model),
        eviction=eviction,
        instrumentation=instr,
    )
    trace = searcher.run_path(path)
    instr.close()
    return trace_path, trace


# -- the replay-grade self-check ----------------------------------------


class TestSelfCheck:
    def test_exact_at_the_actual_m(self, tmp_path):
        path = line_walk(range(32), range(30, -1, -1), range(1, 32))
        trace_path, trace = traced_path(tmp_path, "t", path)
        doc = analyze_trace(trace_path)
        (run,) = doc["runs"]
        assert run["eviction"] == LRU_EVICTION
        check = run["self_check"]
        assert check["applicable"]
        assert check["ok"]
        assert check["predicted"] == check["observed"] == trace.faults
        assert self_check_failures(doc) == []
        assert doc["totals"]["self_check"] == {
            "applicable": 1, "passed": 1, "failed": 0,
        }

    def test_one_trace_is_exact_at_every_m_for_s1_paths(self, tmp_path):
        """An s=1 path run's reference string does not depend on m, so
        the Mattson pass from ONE trace predicts the observed fault
        count of separate real runs at every other memory size."""
        path = line_walk(range(32), range(30, -1, -1), range(1, 32))
        trace_path, _ = traced_path(tmp_path, "probe", path, memory_size=2 * B)
        (rec,) = scan_trace(trace_path)
        stack = stack_distances(rec)
        assert stack is not None and stack.exact
        for m in (B, 2 * B, 3 * B, 4 * B):
            _, observed = traced_path(tmp_path, f"m{m}", path, memory_size=m)
            assert stack.predicted_faults(m) == observed.faults, m

    def test_exact_on_multi_holder_random_walk(self, tmp_path):
        """s=2 offset blocking: covered arrivals can touch two resident
        holders; the min-distance rule still lands exactly on the
        engine's fault count at the actual m."""
        trace_path = tmp_path / "walk.jsonl"
        instr = Instrumentation(sink=JsonlSink(trace_path))
        trace = Searcher(
            LINE, offset_1d_blocking(B), OtherCopyPolicy(),
            ModelParams(B, 2 * B), instrumentation=instr,
        ).run_adversary(RandomWalkAdversary(LINE, (0,), seed=5), 2000)
        instr.close()
        (rec,) = scan_trace(trace_path)
        assert any(len(a.refs) > 1 for a in rec.arrivals)  # s>1 exercised
        doc = analyze_trace(trace_path)
        (run,) = doc["runs"]
        assert run["self_check"]["applicable"]
        assert run["self_check"]["ok"]
        assert run["self_check"]["observed"] == trace.faults

    def test_non_lru_runs_are_not_applicable(self, tmp_path):
        trace_path, _ = traced_path(
            tmp_path, "ea", line_walk(range(48)), eviction=EvictAllPolicy()
        )
        (run,) = analyze_trace(trace_path)["runs"]
        assert run["eviction"] == "EvictAllPolicy"
        assert not run["self_check"]["applicable"]
        assert run["self_check"]["ok"] is None

    def test_strong_model_runs_have_no_reference_string(self, tmp_path):
        trace_path, _ = traced_path(
            tmp_path, "strong", line_walk(range(48)),
            paging_model=PagingModel.STRONG,
        )
        (rec,) = scan_trace(trace_path)
        assert not rec.touch_tracked
        assert stack_distances(rec) is None
        tax = taxonomy(rec)
        assert tax["min_status"].startswith("unavailable: strong-model")
        assert tax["capacity"] is None


# -- fault taxonomy -----------------------------------------------------


class TestTaxonomy:
    def test_totals_reconcile_when_min_is_available(self, tmp_path):
        path = line_walk(range(32), range(30, -1, -1), range(1, 32))
        trace_path, trace = traced_path(tmp_path, "t", path)
        (rec,) = scan_trace(trace_path)
        tax = taxonomy(rec)
        assert tax["min_status"] == "exact"
        assert tax["compulsory"] == len(set(rec.read_sequence))
        assert tax["capacity"] >= 0 and tax["policy_induced"] >= 0
        assert (
            tax["compulsory"] + tax["capacity"] + tax["policy_induced"]
            == trace.faults
        )
        assert tax["min_faults"] <= trace.faults  # MIN is optimal

    def test_s_gt_1_reference_string_degrades_to_min_unavailable(
        self, tmp_path
    ):
        """Satellite regression: a multi-holder arrival makes the
        synthetic MIN blocking s>1; ``belady_trace`` refuses it and the
        taxonomy reports that instead of raising."""
        trace_path = tmp_path / "walk.jsonl"
        instr = Instrumentation(sink=JsonlSink(trace_path))
        Searcher(
            LINE, offset_1d_blocking(B), OtherCopyPolicy(),
            ModelParams(B, 2 * B), instrumentation=instr,
        ).run_adversary(RandomWalkAdversary(LINE, (0,), seed=5), 2000)
        instr.close()
        (rec,) = scan_trace(trace_path)
        assert any(len(a.refs) > 1 for a in rec.arrivals)
        tax = taxonomy(rec)  # must not raise
        assert tax["min_status"].startswith("MIN unavailable")
        assert tax["capacity"] is None and tax["policy_induced"] is None
        doc = analyze_trace(trace_path)
        assert doc["totals"]["min_unavailable"] == 1

    def test_old_wire_form_falls_back_to_reads_only(self, tmp_path):
        """A pre-forensics trace (no step holder blocks, no eviction
        name) scans fine: excluded from the self-check, taxonomy on the
        approximate reads-only reference string."""
        trace_path, trace = traced_path(tmp_path, "t", line_walk(range(24)))
        stripped = tmp_path / "old.jsonl"
        lines = []
        for line in trace_path.read_text().splitlines():
            payload = json.loads(line)
            payload.pop("blocks", None)
            payload.pop("eviction", None)
            lines.append(json.dumps(payload))
        stripped.write_text("\n".join(lines) + "\n")
        (rec,) = scan_trace(stripped)
        assert not rec.touch_tracked and rec.eviction is None
        assert stack_distances(rec) is None
        tax = taxonomy(rec)
        assert tax["min_status"] == "approximate: reads-only reference string"
        assert (
            tax["compulsory"] + tax["capacity"] + tax["policy_induced"]
            == trace.faults
        )
        (run,) = analyze_trace(stripped)["runs"]
        assert not run["self_check"]["applicable"]


def pseudo_vertex_taxonomy(rec):
    """The reference taxonomy: MIN as forensics first ran it, on an s=1
    reconstruction of the reference string. Block ``b`` becomes the
    pseudo-vertices ``(b, 0..size-1)`` of an :class:`ExplicitBlocking`,
    a single-holder arrival visits ``(b, 0)``, and a multi-holder
    arrival visits a ``("__shared__", k)`` vertex placed in every one
    of its holders, which ``belady_trace`` then refuses."""
    compulsory = len(set(map(_block_key, rec.read_sequence)))
    out = {
        "compulsory": compulsory,
        "capacity": None,
        "policy_induced": None,
        "min_faults": None,
        "min_status": "",
    }
    if not rec.complete or rec.observed_faults is None:
        out["min_status"] = "unavailable: run incomplete"
        return out
    if rec.model != "weak":
        out["min_status"] = (
            "unavailable: strong-model run (weak-model MIN not comparable)"
        )
        return out
    observed = rec.observed_faults
    if not rec.read_sequence:
        out.update(capacity=0, policy_induced=0, min_faults=0, min_status="exact")
        return out
    if rec.touch_tracked:
        refs = [a.refs for a in rec.arrivals]
        basis = "exact"
    else:
        refs = [(block_id,) for block_id in rec.read_sequence]
        basis = "approximate: reads-only reference string"
    blocks = {
        block_id: [(block_id, i) for i in range(size)]
        for block_id, size in rec.block_sizes.items()
    }
    shared = {}
    path = []
    for ref in refs:
        if len(ref) == 1:
            path.append((ref[0], 0))
            continue
        vertex = shared.get(ref)
        if vertex is None:
            vertex = ("__shared__", len(shared))
            shared[ref] = vertex
            for block_id in ref:
                blocks.setdefault(block_id, []).append(vertex)
        path.append(vertex)
    capacity_b = max(len(vertices) for vertices in blocks.values())
    try:
        blocking = ExplicitBlocking(capacity_b, blocks)
        params = ModelParams(
            block_size=rec.block_size, memory_size=rec.memory_size
        )
        min_faults = belady_trace(path, blocking, params).faults
    except PagingError as exc:
        out["min_status"] = f"MIN unavailable: {exc}"
        return out
    capacity = max(0, min(min_faults, observed) - compulsory)
    out.update(
        capacity=capacity,
        policy_induced=observed - compulsory - capacity,
        min_faults=min_faults,
        min_status=basis,
    )
    return out


@st.composite
def min_records(draw):
    """Complete weak-model runs over at most 6 block ids (ints or
    tuples), every id sized unless dropped, with occasional
    multi-holder arrivals. Sizes are at least 1, since a loaded block
    holds a vertex, and may exceed m, which MIN cannot page."""
    ids = draw(st.sampled_from([list(range(6)), [(i, -i) for i in range(6)]]))
    block_size = draw(st.integers(1, 4))
    memory_size = draw(st.integers(block_size, 3 * block_size))
    sizes = {b: draw(st.integers(1, memory_size + 1)) for b in ids}
    for b in draw(st.lists(st.sampled_from(ids), max_size=2)):
        if len(sizes) > 1:
            sizes.pop(b, None)
    single = st.sampled_from(ids).map(lambda b: (b,))
    multi = st.lists(
        st.sampled_from(ids), min_size=2, max_size=3, unique=True
    ).map(tuple)
    refs = draw(st.lists(st.one_of(single, single, single, multi), max_size=40))
    reads = [ref[0] for ref in refs if len(ref) == 1]
    touch_tracked = draw(st.booleans())
    return RunRecord(
        run=0, driver="path", model="weak", block_size=block_size,
        memory_size=memory_size, eviction=LRU_EVICTION,
        arrivals=[Arrival(refs=ref, fault=len(ref) == 1) for ref in refs],
        block_sizes=sizes,
        read_sequence=reads,
        observed_faults=draw(st.integers(0, 60)),
        observed_steps=len(refs), touch_tracked=touch_tracked, ended=True,
    )


class TestMinOnBlockIds:
    @given(min_records())
    @settings(max_examples=400, deadline=None)
    def test_taxonomy_equals_the_pseudo_vertex_reference(self, rec):
        assert taxonomy(rec) == pseudo_vertex_taxonomy(rec)

    def test_the_generator_reaches_every_outcome(self):
        """Each way MIN ends shows up among the generated runs."""
        seen = set()

        @given(min_records())
        @settings(
            max_examples=400, deadline=None, database=None, derandomize=True
        )
        def collect(rec):
            status = taxonomy(rec)["min_status"]
            if "lives in 0 blocks" in status:
                seen.add("missing size")
            elif "lives in" in status:
                seen.add("multi-holder")
            elif "nothing evictable" in status:
                seen.add("block larger than m")
            elif rec.read_sequence:
                seen.add(status)

        collect()
        assert seen == {
            "missing size", "multi-holder", "block larger than m",
            "exact", "approximate: reads-only reference string",
        }


# -- the stack pass against a plain recency stack ------------------------


def recency_stack_reference(rec):
    """The Mattson pass done the slow way: a list of the sized blocks,
    least recent first, where a block's distance is the cumulative size
    of the blocks above it plus its own."""
    stack = []
    references = compulsory = 0
    distances = {}
    exact, note = True, None
    for arrival in rec.arrivals:
        seen = [
            sum(rec.block_sizes[b] for b in stack[stack.index(block_id):])
            for block_id in arrival.refs if block_id in stack
        ]
        if seen:
            best = min(seen)
            distances[best] = distances.get(best, 0) + 1
        else:
            compulsory += 1
            if arrival.refs and not arrival.fault:
                exact, note = False, "covered arrival references an unseen block"
        for block_id in arrival.refs:
            if block_id in rec.block_sizes:
                if block_id in stack:
                    stack.remove(block_id)
                stack.append(block_id)
                references += 1
    return references, compulsory, distances, exact, note


@st.composite
def stack_records(draw):
    """Touch-tracked runs drawn as :func:`min_records` draws them, where
    about one arrival in two repeats the previous arrival's last
    reference: the top of the stack when that block is sized."""
    rec = draw(min_records())
    arrivals = []
    for arrival in rec.arrivals:
        if arrivals and draw(st.booleans()):
            arrivals.append(Arrival(refs=(arrivals[-1].refs[-1],), fault=False))
        arrivals.append(arrival)
    return dataclasses.replace(rec, arrivals=arrivals, touch_tracked=True)


class TestStackAgainstReference:
    @given(stack_records())
    @settings(max_examples=400, deadline=None)
    def test_equals_a_plain_recency_stack(self, rec):
        stack = stack_distances(rec)
        got = (
            stack.references, stack.compulsory, stack.distances,
            stack.exact, stack.note,
        )
        assert got == recency_stack_reference(rec)


# -- per-block ledger ---------------------------------------------------


class TestLedger:
    def test_heat_churn_and_gaps_on_a_known_walk(self, tmp_path):
        """0..23 at M=2B: three compulsory loads, the third evicting
        the (least recent) first block; every vertex touches exactly
        one holder, so each block has 8 unit-gap references."""
        trace_path, trace = traced_path(tmp_path, "t", line_walk(range(24)))
        assert trace.faults == 3
        (rec,) = scan_trace(trace_path)
        rows = block_ledger(rec)
        assert len(rows) == 3
        assert [row["references"] for row in rows] == [8, 8, 8]
        assert all(row["reads"] == 1 and row["reloads"] == 0 for row in rows)
        assert sum(row["evictions"] for row in rows) == 1
        assert all(
            row["gap_p50"] == row["gap_p90"] == row["gap_p99"] == 1
            for row in rows
        )

    def test_reloads_count_evict_reload_cycles(self, tmp_path):
        """Sweeping 0..23 twice at M=2B makes every block cycle through
        eviction and reload."""
        trace_path, trace = traced_path(
            tmp_path, "t", line_walk(range(24), range(22, -1, -1))
        )
        (rec,) = scan_trace(trace_path)
        rows = block_ledger(rec)
        assert sum(row["reads"] for row in rows) == trace.faults
        assert sum(row["reloads"] for row in rows) == trace.faults - 3
        assert sum(row["evictions"] for row in rows) >= 1

    @given(
        st.lists(st.sampled_from([0, 1, (2, -2)]), max_size=300),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_gap_percentiles_equal_the_histogram(self, reads, touch_tracked):
        """Each block's gap percentiles are those ``Histogram`` gives
        for the same gaps, whether positions count arrivals or reads."""
        rec = RunRecord(
            run=0, driver="path", model="weak", block_size=1, memory_size=1,
            eviction=LRU_EVICTION, touch_tracked=touch_tracked,
            arrivals=[Arrival(refs=(b,), fault=True) for b in reads],
            block_sizes={b: 1 for b in reads}, read_sequence=reads,
        )
        rows = block_ledger(rec)
        assert len(rows) == len(set(reads))
        for row in rows:
            key = _block_key(row["block"])
            at = [i for i, b in enumerate(reads) if _block_key(b) == key]
            gaps = Histogram()
            for earlier, later in zip(at, at[1:]):
                gaps.observe(later - earlier)
            assert [row["gap_p50"], row["gap_p90"], row["gap_p99"]] == list(
                gaps.percentiles().values()
            )


# -- document plumbing --------------------------------------------------


class TestDocument:
    def test_metrics_folding_matches_totals(self, tmp_path):
        trace_path, _ = traced_path(
            tmp_path, "t", line_walk(range(32), range(30, -1, -1))
        )
        doc = analyze_trace(trace_path)
        registry = MetricsRegistry()
        fold_forensics_metrics(registry, doc)
        snap = registry.snapshot()
        totals = doc["totals"]
        assert snap["forensics_runs"] == totals["runs"]
        assert snap["forensics_compulsory_faults"] == totals["compulsory"]
        assert snap["forensics_capacity_faults"] == totals["capacity"]
        assert snap["forensics_policy_faults"] == totals["policy_induced"]
        assert snap["forensics_selfcheck_runs"] == 1
        assert "forensics_selfcheck_failures" not in snap
        (run,) = doc["runs"]
        assert snap["forensics_stack_distance"]["count"] == sum(
            count for _, count in run["stack"]["distance_histogram"]
        )

    def test_markdown_renders_every_section(self, tmp_path):
        trace_path, _ = traced_path(
            tmp_path, "t", line_walk(range(24), range(22, -1, -1))
        )
        text = render_markdown(analyze_trace(trace_path))
        assert "## Fault forensics" in text
        assert "### Miss-ratio curves" in text
        assert "### Block churn" in text
        assert "Self-check: 1/1 exact" in text

    def test_miss_ratio_curve_is_monotone_and_anchored(self, tmp_path):
        path = line_walk(range(32), range(30, -1, -1), range(1, 32))
        trace_path, _ = traced_path(tmp_path, "t", path)
        (run,) = analyze_trace(trace_path)["runs"]
        curve = run["stack"]["miss_ratio_curve"]
        assert curve  # at least one knee
        faults = [row[1] for row in curve]
        assert faults == sorted(faults, reverse=True)  # larger m, fewer faults
        assert all(0.0 < row[2] <= 1.0 for row in curve)


# -- byte stability over campaign traces --------------------------------


class TestCampaignForensics:
    def _campaign(self, tmp_path, tag, jobs, chaos=None):
        trace = tmp_path / f"{tag}.trace.jsonl"
        run_campaign(
            tmp_path / f"{tag}.manifest.jsonl",
            quick=True, jobs=jobs, names=GAMES_ONLY, chaos=chaos,
            trace_out=trace,
        )
        return trace

    def test_byte_identical_across_jobs_and_chaos(self, tmp_path):
        serial = self._campaign(tmp_path, "j1", jobs=1)
        pooled = self._campaign(tmp_path, "j2", jobs=2)
        chaotic = self._campaign(
            tmp_path, "chaos", jobs=2, chaos=ChaosConfig(kill_every=2, seed=7)
        )
        docs = [to_json(analyze_trace(t)) for t in (serial, pooled, chaotic)]
        assert docs[0] == docs[1] == docs[2]
        doc = json.loads(docs[0])
        assert doc["totals"]["self_check"]["failed"] == 0
        assert doc["totals"]["self_check"]["passed"] > 0
        # Merged traces attribute runs to their cells.
        assert {run["cell"] for run in doc["runs"]} == set(GAMES_ONLY)


# -- the CLI ------------------------------------------------------------


class TestForensicsCli:
    def test_check_passes_and_out_is_canonical(self, tmp_path, capsys):
        trace_path, _ = traced_path(
            tmp_path, "t", line_walk(range(24), range(22, -1, -1))
        )
        out = tmp_path / "forensics.json"
        assert forensics_main(
            [str(trace_path), "--check", "--out", str(out)]
        ) == 0
        captured = capsys.readouterr()
        assert "## Fault forensics" in captured.out
        assert "self-check ok: 1 LRU runs predicted exactly" in captured.err
        assert out.read_text() == to_json(analyze_trace(trace_path))

    def test_json_format_emits_the_document(self, tmp_path, capsys):
        trace_path, _ = traced_path(tmp_path, "t", line_walk(range(24)))
        assert forensics_main([str(trace_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == analyze_trace(trace_path)

    def test_check_fails_when_nothing_is_checkable(self, tmp_path, capsys):
        trace_path, _ = traced_path(
            tmp_path, "ea", line_walk(range(48)), eviction=EvictAllPolicy()
        )
        assert forensics_main([str(trace_path), "--check"]) == 1
        assert "no checkable LRU run" in capsys.readouterr().err

    def test_experiments_cli_folds_forensics_metrics(self, tmp_path):
        """``--forensics`` rides the experiments CLI and lands its
        counters in the shared metrics registry."""
        metrics = MetricsRegistry()
        trace = tmp_path / "t.jsonl"
        with use_instrumentation(Instrumentation(metrics=metrics)):
            run_campaign(
                tmp_path / "m.jsonl", quick=True, jobs=1,
                names=["grid1d"], trace_out=trace,
            )
        doc = analyze_trace(trace)
        fold_forensics_metrics(metrics, doc)
        snap = metrics.snapshot()
        assert snap["forensics_runs"] == doc["totals"]["runs"] > 0
        assert snap["forensics_selfcheck_runs"] > 0
