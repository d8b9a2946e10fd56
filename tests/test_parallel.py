"""Cell specs and the two sweep runners: serial ``run_all`` and the
multi-process ``run_campaign`` (what ``--jobs N`` runs) give equal
results and degrade identically across process boundaries.

The heavyweight equality checks run on a small subset of cells
(``SUBSET``) so the suite stays fast; the CI benchmark job does the
full-sweep byte-comparison.
"""

import pickle

import pytest

from repro.errors import ReproError
from repro.experiments import (
    cell_specs,
    dump_results,
    run_all,
    run_campaign,
    run_cell,
)
from repro.reliability import (
    ExponentialBackoff,
    ProbabilisticFaults,
    ReliabilityConfig,
)

SUBSET = ["grid1d", "pathological", "example2"]


class TestCellSpecs:
    def test_specs_cover_games_then_checks(self):
        specs = cell_specs(quick=True)
        kinds = [spec.kind for spec in specs]
        assert kinds == ["game"] * 13 + ["check"] * 3

    def test_quick_caps_steps(self):
        by_name = {s.name: s for s in cell_specs(quick=True)}
        assert by_name["tree"].kwargs["num_steps"] == 2_000
        assert by_name["pathological"].kwargs["num_steps"] == 2_000
        full = {s.name: s for s in cell_specs(quick=False)}
        assert full["tree"].kwargs["num_steps"] == 15_000
        assert full["pathological"].kwargs["num_steps"] == 2_000

    def test_names_filter_preserves_order(self):
        specs = cell_specs(quick=True, names=["example2", "grid1d"])
        assert [s.name for s in specs] == ["grid1d", "example2"]

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="no-such-cell"):
            cell_specs(quick=True, names=["no-such-cell"])

    def test_spec_pickles(self):
        spec = cell_specs(quick=True, names=["tree"])[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert run_cell(clone)[0].experiment == "T1-R1"


def _dump_bytes(tmp_path, tag, games, checks):
    path = tmp_path / f"{tag}.json"
    dump_results(str(path), games, checks)
    return path.read_bytes()


class TestRunAllParallel:
    def test_parallel_matches_serial_on_subset(self, tmp_path):
        serial = run_all(quick=True, names=SUBSET)
        parallel = run_campaign(
            tmp_path / "m.jsonl", quick=True, jobs=2, names=SUBSET
        )
        assert _dump_bytes(tmp_path, "serial", *serial) == _dump_bytes(
            tmp_path, "parallel", *parallel
        )


class TestErrorDegradation:
    """A cell that dies under fault injection degrades to an errored
    result without poisoning siblings — identically on both paths."""

    @pytest.fixture(scope="class")
    def lossy(self):
        # Every block read is permanently lost: game cells cannot
        # complete a single run and must degrade.
        return ReliabilityConfig(
            injector=ProbabilisticFaults(
                transient_rate=0.0, loss_rate=1.0, seed=0
            ),
            retry=ExponentialBackoff(max_attempts=2, jitter=0.5, seed=0),
            step_budget=100_000,
        )

    def test_parallel_degrades_like_serial(self, lossy, tmp_path):
        serial_games, serial_checks = run_all(
            quick=True, names=SUBSET, reliability=lossy
        )
        par_games, par_checks = run_campaign(
            tmp_path / "m.jsonl",
            quick=True,
            jobs=2,
            names=SUBSET,
            reliability=lossy,
        )
        assert [g.error for g in serial_games] == [g.error for g in par_games]
        assert all(g.error for g in serial_games)
        # The check cell is unaffected by its siblings' failures.
        assert len(par_checks) == len(serial_checks) > 0
        assert all(c.holds for c in par_checks)

    def test_degraded_cell_names_its_error(self, lossy):
        results = run_cell(
            cell_specs(quick=True, names=["grid1d"], reliability=lossy)[0]
        )
        assert results
        for result in results:
            assert result.error
            assert result.error.split(":")[0].endswith("Error")
