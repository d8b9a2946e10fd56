"""Experiment harness regenerating the paper's Table 1."""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.experiments.ablations": (
        "copies_ablation", "eviction_ablation", "model_ablation", "policy_ablation",
    ),
    "repro.experiments.campaign": ("CampaignError", "run_campaign"),
    "repro.experiments.chaos": ("ChaosConfig", "ChaosController", "corrupt_file"),
    "repro.experiments.figures": (
        "all_figures", "render_figure4", "render_figure6", "render_figure7",
        "render_tessellation",
    ),
    "repro.experiments.harness": (
        "CheckResult", "ExperimentResult", "run_game", "run_worst_case",
    ),
    "repro.experiments.io": ("dump_results", "load_results"),
    "repro.experiments.manifest": (
        "CellState", "Manifest", "ManifestError", "ManifestWriter", "load_manifest",
        "spec_fingerprint",
    ),
    "repro.experiments.repetition": ("SigmaStats", "repeat_game"),
    "repro.experiments.report": (
        "degraded", "failures", "format_checks", "format_games",
    ),
    "repro.experiments.sweeps": (
        "SweepSeries", "grid_sigma_vs_B", "isothetic_gap_vs_dimension",
        "memory_tradeoff_sweep", "sigma_vs_failure_rate", "tree_sigma_vs_lgB",
    ),
    "repro.experiments.table1": (
        "CellSpec", "ballcover_checks", "cell_specs", "diagonal_row", "example1_checks",
        "example2_checks", "general_rows", "geometric_rows", "grid1d_finite_row",
        "grid1d_row", "grid2d_rows", "gridd_reduced_rows", "gridd_rows",
        "isothetic_rows", "nonuniform_row", "pathological_rows", "redundancy_gap_rows",
        "run_all", "run_cell", "tree_row",
    ),
}

if TYPE_CHECKING:
    from repro.experiments.ablations import (
        copies_ablation as copies_ablation,
        eviction_ablation as eviction_ablation,
        model_ablation as model_ablation,
        policy_ablation as policy_ablation,
    )
    from repro.experiments.campaign import (
        CampaignError as CampaignError,
        run_campaign as run_campaign,
    )
    from repro.experiments.chaos import (
        ChaosConfig as ChaosConfig,
        ChaosController as ChaosController,
        corrupt_file as corrupt_file,
    )
    from repro.experiments.figures import (
        all_figures as all_figures,
        render_figure4 as render_figure4,
        render_figure6 as render_figure6,
        render_figure7 as render_figure7,
        render_tessellation as render_tessellation,
    )
    from repro.experiments.harness import (
        CheckResult as CheckResult,
        ExperimentResult as ExperimentResult,
        run_game as run_game,
        run_worst_case as run_worst_case,
    )
    from repro.experiments.io import (
        dump_results as dump_results,
        load_results as load_results,
    )
    from repro.experiments.manifest import (
        CellState as CellState,
        Manifest as Manifest,
        ManifestError as ManifestError,
        ManifestWriter as ManifestWriter,
        load_manifest as load_manifest,
        spec_fingerprint as spec_fingerprint,
    )
    from repro.experiments.repetition import (
        SigmaStats as SigmaStats,
        repeat_game as repeat_game,
    )
    from repro.experiments.report import (
        degraded as degraded,
        failures as failures,
        format_checks as format_checks,
        format_games as format_games,
    )
    from repro.experiments.sweeps import (
        SweepSeries as SweepSeries,
        grid_sigma_vs_B as grid_sigma_vs_B,
        isothetic_gap_vs_dimension as isothetic_gap_vs_dimension,
        memory_tradeoff_sweep as memory_tradeoff_sweep,
        sigma_vs_failure_rate as sigma_vs_failure_rate,
        tree_sigma_vs_lgB as tree_sigma_vs_lgB,
    )
    from repro.experiments.table1 import (
        CellSpec as CellSpec,
        ballcover_checks as ballcover_checks,
        cell_specs as cell_specs,
        diagonal_row as diagonal_row,
        example1_checks as example1_checks,
        example2_checks as example2_checks,
        general_rows as general_rows,
        geometric_rows as geometric_rows,
        grid1d_finite_row as grid1d_finite_row,
        grid1d_row as grid1d_row,
        grid2d_rows as grid2d_rows,
        gridd_reduced_rows as gridd_reduced_rows,
        gridd_rows as gridd_rows,
        isothetic_rows as isothetic_rows,
        nonuniform_row as nonuniform_row,
        pathological_rows as pathological_rows,
        redundancy_gap_rows as redundancy_gap_rows,
        run_all as run_all,
        run_cell as run_cell,
        tree_row as tree_row,
    )
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
