"""Programmatic ablation studies.

The benchmark suite prints these; the functions live here so library
users can run the same studies and get structured results back.  Each
returns an :class:`AblationResult` with one labelled
:class:`~repro.metrics.RunReport` (or metric dict) per variant.

Every study executes through :func:`~repro.experiments.runner.run_many`,
so an optional :class:`~repro.store.RunStore` serves previously computed
variants from disk.  Studies run serially by default (``max_workers=1``);
``max_workers=N`` fans fresh variants out over a pool of N processes.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.deploy.scenario import (
    Algorithm,
    DispatchPolicy,
    PartitionStyle,
    paper_scenario,
)
from repro.experiments.render import render_table
from repro.experiments.runner import run_many
from repro.metrics.collector import RunReport

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.store.store import RunStore

__all__ = [
    "AblationResult",
    "partition_ablation",
    "update_threshold_ablation",
    "dispatch_policy_ablation",
    "efficient_broadcast_ablation",
]


@dataclasses.dataclass(frozen=True, slots=True)
class AblationResult:
    """Labelled run reports for one ablation study."""

    name: str
    variants: typing.Dict[str, RunReport]
    #: Which columns of the reports the study is about.
    metrics: typing.Tuple[str, ...]

    def table(self) -> str:
        """Rendered comparison table."""
        rows = [
            [label] + [getattr(report, metric) for metric in self.metrics]
            for label, report in self.variants.items()
        ]
        return render_table(
            ["variant", *self.metrics], rows, title=self.name
        )

    def metric(self, label: str, metric: str) -> float:
        """One cell of the study."""
        return getattr(self.variants[label], metric)


def partition_ablation(
    robot_count: int = 9,
    seeds: typing.Sequence[int] = (1,),
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = 1,
    **overrides: typing.Any,
) -> AblationResult:
    """Square vs staggered subarea shape for the fixed algorithm
    (paper §4.3.1: "negligible difference")."""
    styles = (PartitionStyle.SQUARE, PartitionStyle.STAGGERED)
    configs = [
        paper_scenario(
            Algorithm.FIXED,
            robot_count,
            seed=seed,
            partition=style,
            **overrides,
        )
        for style in styles
        for seed in seeds
    ]
    reports, _ = run_many(configs, max_workers=max_workers, store=store)
    variants = {}
    for position, style in enumerate(styles):
        cell = reports[position * len(seeds):(position + 1) * len(seeds)]
        variants[style] = _mean_report(cell)
    return AblationResult(
        name="fixed-algorithm partition shape",
        variants=variants,
        metrics=(
            "mean_travel_distance",
            "update_transmissions_per_failure",
            "mean_report_hops",
        ),
    )


def update_threshold_ablation(
    thresholds: typing.Sequence[float] = (10.0, 20.0, 40.0),
    algorithm: str = Algorithm.DYNAMIC,
    robot_count: int = 9,
    seed: int = 1,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = 1,
    **overrides: typing.Any,
) -> AblationResult:
    """Location-update threshold sweep (paper §4.2 uses 20 m)."""
    configs = [
        paper_scenario(
            algorithm,
            robot_count,
            seed=seed,
            update_threshold_m=threshold,
            **overrides,
        )
        for threshold in thresholds
    ]
    reports, _ = run_many(configs, max_workers=max_workers, store=store)
    variants = {
        f"{threshold:g} m": report
        for threshold, report in zip(thresholds, reports)
    }
    return AblationResult(
        name="robot location-update threshold",
        variants=variants,
        metrics=(
            "update_transmissions_per_failure",
            "report_delivery_ratio",
            "repaired",
        ),
    )


def dispatch_policy_ablation(
    robot_count: int = 9,
    seed: int = 1,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = 1,
    **overrides: typing.Any,
) -> AblationResult:
    """Closest (paper) vs load-aware dispatch in the centralized
    algorithm."""
    configs = [
        paper_scenario(
            Algorithm.CENTRALIZED,
            robot_count,
            seed=seed,
            dispatch_policy=policy,
            **overrides,
        )
        for policy in DispatchPolicy.ALL
    ]
    reports, _ = run_many(configs, max_workers=max_workers, store=store)
    variants = dict(zip(DispatchPolicy.ALL, reports))
    return AblationResult(
        name="central-manager dispatch policy",
        variants=variants,
        metrics=(
            "mean_travel_distance",
            "mean_repair_latency",
            "repaired",
        ),
    )


def efficient_broadcast_ablation(
    algorithms: typing.Sequence[str] = (
        Algorithm.FIXED,
        Algorithm.DYNAMIC,
    ),
    robot_count: int = 9,
    seed: int = 1,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = 1,
    **overrides: typing.Any,
) -> AblationResult:
    """Flood-everyone vs connected-dominating-set relays (paper future
    work)."""
    cells = [
        (algorithm, efficient)
        for algorithm in algorithms
        for efficient in (False, True)
    ]
    configs = [
        paper_scenario(
            algorithm,
            robot_count,
            seed=seed,
            efficient_broadcast=efficient,
            **overrides,
        )
        for algorithm, efficient in cells
    ]
    reports, _ = run_many(configs, max_workers=max_workers, store=store)
    variants = {
        f"{algorithm}/{'cds' if efficient else 'all'}": report
        for (algorithm, efficient), report in zip(cells, reports)
    }
    return AblationResult(
        name="efficient (dominating-set) broadcast",
        variants=variants,
        metrics=(
            "update_transmissions_per_failure",
            "repaired",
            "report_delivery_ratio",
        ),
    )


def _mean_report(reports: typing.Sequence[RunReport]) -> RunReport:
    """Average the numeric fields of several reports (same shape)."""
    if len(reports) == 1:
        return reports[0]
    first = reports[0]
    n = len(reports)
    return dataclasses.replace(
        first,
        mean_travel_distance=sum(
            r.mean_travel_distance for r in reports
        )
        / n,
        mean_repair_latency=sum(r.mean_repair_latency for r in reports)
        / n,
        mean_report_hops=sum(r.mean_report_hops for r in reports) / n,
        mean_request_hops=sum(r.mean_request_hops for r in reports) / n,
        update_transmissions_per_failure=sum(
            r.update_transmissions_per_failure for r in reports
        )
        / n,
        report_delivery_ratio=sum(
            r.report_delivery_ratio for r in reports
        )
        / n,
        failures=sum(r.failures for r in reports) // n,
        repaired=sum(r.repaired for r in reports) // n,
    )
