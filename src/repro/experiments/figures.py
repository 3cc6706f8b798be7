"""Per-figure experiment generators (paper §4.3).

Each ``figure*`` function runs the sweep behind one of the paper's
figures and returns a :class:`FigureResult` holding the plotted series,
a rendered text table, and the qualitative *claims* the paper draws from
that figure, each checked against the measured data.

The paper's full evaluation runs 64 000 s; these generators accept
``sim_time_s`` so tests and benches can trade duration for speed — the
failure process is stationary after the first few lifetimes, so shorter
horizons estimate the same means with more variance.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.deploy.scenario import Algorithm, PAPER_ROBOT_COUNTS
from repro.experiments.render import render_series_table
from repro.experiments.runner import SweepResult, sweep

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.store.store import RunStore

__all__ = [
    "ClaimCheck",
    "FigureResult",
    "figure2_motion_overhead",
    "figure3_hops",
    "figure4_update_transmissions",
]


@dataclasses.dataclass(frozen=True, slots=True)
class ClaimCheck:
    """One qualitative claim from the paper, evaluated on our data."""

    claim: str
    holds: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        return f"[{mark}] {self.claim} — {self.detail}"


@dataclasses.dataclass(frozen=True, slots=True)
class FigureResult:
    """Everything regenerated for one paper figure."""

    figure: str
    x_values: typing.Tuple[int, ...]
    series: typing.Dict[str, typing.Tuple[float, ...]]
    claims: typing.Tuple[ClaimCheck, ...]
    sweep_result: SweepResult
    #: Label of the x axis (the paper figures sweep robot counts; the
    #: resilience extension sweeps robot MTBF instead).
    x_label: str = "robots"

    def render(self) -> str:
        """The figure as a text table plus claim checklist."""
        table = render_series_table(
            self.x_label,
            list(self.x_values),
            {name: list(values) for name, values in self.series.items()},
            title=self.figure,
        )
        claims = "\n".join(str(claim) for claim in self.claims)
        return f"{table}\n{claims}"

    @property
    def all_claims_hold(self) -> bool:
        """True when every paper claim reproduced."""
        return all(claim.holds for claim in self.claims)


_ALGORITHMS = (Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED)


def figure2_motion_overhead(
    robot_counts: typing.Sequence[int] = PAPER_ROBOT_COUNTS,
    seeds: typing.Sequence[int] = (1, 2),
    sweep_result: typing.Optional[SweepResult] = None,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> FigureResult:
    """Figure 2: average robot traveling distance per failure.

    Paper claims: the fixed algorithm has the highest motion overhead;
    the dynamic algorithm tracks the centralized one, saving ~10.8 %
    versus fixed at 16 robots (we assert a 3–25 % band).
    """
    result = sweep_result if sweep_result is not None else sweep(
        _ALGORITHMS,
        robot_counts,
        seeds,
        store=store,
        max_workers=max_workers,
        **overrides,
    )
    series = {
        algorithm: tuple(
            result.series(algorithm, "mean_travel_distance", robot_counts)
        )
        for algorithm in _ALGORITHMS
    }
    largest = robot_counts[-1]
    fixed_d = result.point(Algorithm.FIXED, largest).mean(
        "mean_travel_distance"
    )
    dynamic_d = result.point(Algorithm.DYNAMIC, largest).mean(
        "mean_travel_distance"
    )
    centralized_d = result.point(Algorithm.CENTRALIZED, largest).mean(
        "mean_travel_distance"
    )
    saving = (fixed_d - dynamic_d) / fixed_d

    claims = (
        ClaimCheck(
            claim="fixed has the highest motion overhead "
            f"(at {largest} robots)",
            holds=fixed_d > dynamic_d and fixed_d > centralized_d,
            detail=(
                f"fixed={fixed_d:.1f}m dynamic={dynamic_d:.1f}m "
                f"centralized={centralized_d:.1f}m"
            ),
        ),
        ClaimCheck(
            claim="dynamic saves ~10.8% travel vs fixed at 16 robots "
            "(band 3-25%)",
            holds=0.03 <= saving <= 0.25,
            detail=f"measured saving {saving * 100:.1f}%",
        ),
        ClaimCheck(
            claim="dynamic tracks centralized (within 15%)",
            holds=abs(dynamic_d - centralized_d) / centralized_d <= 0.15,
            detail=(
                f"dynamic={dynamic_d:.1f}m vs "
                f"centralized={centralized_d:.1f}m"
            ),
        ),
    )
    return FigureResult(
        figure="Figure 2 — average traveling distance per failure (m)",
        x_values=tuple(robot_counts),
        series=series,
        claims=claims,
        sweep_result=result,
    )


def figure3_hops(
    robot_counts: typing.Sequence[int] = PAPER_ROBOT_COUNTS,
    seeds: typing.Sequence[int] = (1, 2),
    sweep_result: typing.Optional[SweepResult] = None,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> FigureResult:
    """Figure 3: average message-passing hops per failure.

    Paper claims: fixed/dynamic failure reports stay flat around two
    hops; the centralized algorithm's report and request hops grow with
    the network (it is "less scalable"), and its reports take more hops
    than its requests (sensor vs robot radio range).
    """
    result = sweep_result if sweep_result is not None else sweep(
        _ALGORITHMS,
        robot_counts,
        seeds,
        store=store,
        max_workers=max_workers,
        **overrides,
    )
    series = {
        "centralized: failure report": tuple(
            result.series(
                Algorithm.CENTRALIZED, "mean_report_hops", robot_counts
            )
        ),
        "centralized: repair request": tuple(
            result.series(
                Algorithm.CENTRALIZED, "mean_request_hops", robot_counts
            )
        ),
        "dynamic: failure report": tuple(
            result.series(
                Algorithm.DYNAMIC, "mean_report_hops", robot_counts
            )
        ),
        "fixed: failure report": tuple(
            result.series(Algorithm.FIXED, "mean_report_hops", robot_counts)
        ),
    }
    central_reports = series["centralized: failure report"]
    central_requests = series["centralized: repair request"]
    flat_series = (
        series["dynamic: failure report"] + series["fixed: failure report"]
    )

    claims = (
        ClaimCheck(
            claim="centralized report hops grow with the network",
            holds=central_reports[-1] > central_reports[0],
            detail=(
                f"{central_reports[0]:.2f} -> {central_reports[-1]:.2f} "
                f"hops from {robot_counts[0]} to {robot_counts[-1]} robots"
            ),
        ),
        ClaimCheck(
            claim="centralized reports take more hops than requests "
            "(sensor 63m vs robot 250m radio)",
            holds=all(
                report > request
                for report, request in zip(central_reports, central_requests)
            ),
            detail=(
                f"reports {[round(v, 2) for v in central_reports]} vs "
                f"requests {[round(v, 2) for v in central_requests]}"
            ),
        ),
        ClaimCheck(
            claim="fixed/dynamic report hops stay flat around two "
            "(band 1.5-3.5)",
            holds=all(1.5 <= v <= 3.5 for v in flat_series),
            detail=f"values {[round(v, 2) for v in flat_series]}",
        ),
    )
    return FigureResult(
        figure="Figure 3 — average message passing hops per failure",
        x_values=tuple(robot_counts),
        series=series,
        claims=claims,
        sweep_result=result,
    )


def figure4_update_transmissions(
    robot_counts: typing.Sequence[int] = PAPER_ROBOT_COUNTS,
    seeds: typing.Sequence[int] = (1, 2),
    sweep_result: typing.Optional[SweepResult] = None,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> FigureResult:
    """Figure 4: transmissions for robot location updates per failure.

    Paper claims: the two distributed algorithms flood updates and pay
    an order of magnitude more transmissions than the centralized
    algorithm; the dynamic algorithm pays slightly more than the fixed
    one (its relay scope crosses subarea boundaries).
    """
    result = sweep_result if sweep_result is not None else sweep(
        _ALGORITHMS,
        robot_counts,
        seeds,
        store=store,
        max_workers=max_workers,
        **overrides,
    )
    series = {
        algorithm: tuple(
            result.series(
                algorithm, "update_transmissions_per_failure", robot_counts
            )
        )
        for algorithm in (
            Algorithm.DYNAMIC,
            Algorithm.FIXED,
            Algorithm.CENTRALIZED,
        )
    }
    dynamic_tx = series[Algorithm.DYNAMIC]
    fixed_tx = series[Algorithm.FIXED]
    central_tx = series[Algorithm.CENTRALIZED]

    claims = (
        ClaimCheck(
            claim="distributed algorithms pay far more update "
            "transmissions than centralized (>=5x)",
            holds=all(
                f >= 5 * c and d >= 5 * c
                for d, f, c in zip(dynamic_tx, fixed_tx, central_tx)
            ),
            detail=(
                f"dynamic {[round(v) for v in dynamic_tx]} / "
                f"fixed {[round(v) for v in fixed_tx]} vs "
                f"centralized {[round(v, 1) for v in central_tx]}"
            ),
        ),
        ClaimCheck(
            claim="dynamic pays slightly more than fixed",
            holds=all(d > f for d, f in zip(dynamic_tx, fixed_tx)),
            detail=(
                f"dynamic {[round(v) for v in dynamic_tx]} vs "
                f"fixed {[round(v) for v in fixed_tx]}"
            ),
        ),
    )
    return FigureResult(
        figure=(
            "Figure 4 — transmissions for location update per failure"
        ),
        x_values=tuple(robot_counts),
        series=series,
        claims=claims,
        sweep_result=result,
    )
