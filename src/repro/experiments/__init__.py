"""Experiment harness: sweeps, figures, ablations, text rendering."""

from repro.experiments.ablations import (
    AblationResult,
    dispatch_policy_ablation,
    efficient_broadcast_ablation,
    partition_ablation,
    update_threshold_ablation,
)
from repro.experiments.figures import (
    ClaimCheck,
    FigureResult,
    figure2_motion_overhead,
    figure3_hops,
    figure4_update_transmissions,
)
from repro.experiments.degraded import (
    default_degraded_campaign,
    figure_degraded,
)
from repro.experiments.render import render_series_table, render_table
from repro.experiments.resilience import (
    figure_resilience,
    figure_resilience_permanence,
)
from repro.experiments.verification import (
    default_network_campaign,
    figure_verification,
)
from repro.experiments.runner import (
    CacheStats,
    SweepPoint,
    SweepResult,
    run_config,
    run_config_timed,
    run_grid,
    run_many,
    sweep,
)

__all__ = [
    "AblationResult",
    "CacheStats",
    "ClaimCheck",
    "FigureResult",
    "SweepPoint",
    "SweepResult",
    "dispatch_policy_ablation",
    "efficient_broadcast_ablation",
    "partition_ablation",
    "update_threshold_ablation",
    "figure2_motion_overhead",
    "figure3_hops",
    "figure4_update_transmissions",
    "default_degraded_campaign",
    "default_network_campaign",
    "figure_degraded",
    "figure_resilience",
    "figure_resilience_permanence",
    "figure_verification",
    "render_series_table",
    "render_table",
    "run_config",
    "run_config_timed",
    "run_grid",
    "run_many",
    "sweep",
]
