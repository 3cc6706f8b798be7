"""Experiment runner: replicated sweeps over scenario configurations.

The paper's figures plot one metric against the number of maintenance
robots (4, 9, 16) for each algorithm.  :func:`run_grid` is the one grid
runner: it executes ``(series, x, config)`` cells and groups the
replicates of each (series, x) into a :class:`SweepPoint`.
:func:`sweep` builds the paper's algorithms × robot counts × seeds grid
on it; the extension figures build theirs (MTBF, permanence, a feature
off/on) the same way.  Runs go through :func:`run_many`, whose only
parallelism setting is ``max_workers`` (each run is an independent,
deterministic simulation).

When a :class:`~repro.store.RunStore` is supplied, the grid is first
partitioned into cache **hits** (loaded from disk, zero simulation) and
**misses** (fanned out to the process pool, then persisted as each run
finishes).  Because every completed run is written before the next one
is awaited, an interrupted sweep resumes for free: rerunning it only
executes the missing cells.

The parallel path is a **chunked executor**: misses are grouped by
their placement-relevant config subset (see
:func:`~repro.deploy.placement_cache.placement_key`), sliced into a
bounded number of contiguous chunks, and each chunk runs sequentially
inside one persistent worker of a spawn-context pool.  One process
task per *chunk* instead of per *run* amortizes task pickling and the
spawn interpreter/import cost over many runs, and grouping means a
worker's per-process placement cache is hot for every run in its chunk
(replicates and algorithm variants sharing a deployment reuse the
computed node positions).  Results still come back per run into the
parent, which writes them to the store one by one — a killed batch
loses at most its in-flight chunks — and are returned in input order.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import typing

from repro.core.runtime import ScenarioRuntime
from repro.deploy.placement_cache import placement_key
from repro.deploy.scenario import ScenarioConfig, paper_scenario
from repro.net.radio import sensor_radio
from repro.metrics.aggregate import SummaryStats, mean_of, summarize
from repro.metrics.collector import RunReport
from repro.store.provenance import perf_clock

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.store.store import RunStore

__all__ = [
    "CacheStats",
    "SweepPoint",
    "SweepResult",
    "run_config",
    "run_config_timed",
    "run_grid",
    "run_many",
    "spawn_pool",
    "sweep",
]


def run_config(config: ScenarioConfig) -> RunReport:
    """Run one scenario to completion and return its report.

    Module-level so it can cross a process boundary.
    """
    return ScenarioRuntime(config).run()


def run_config_timed(
    config: ScenarioConfig,
    on_runtime: typing.Optional[
        typing.Callable[[ScenarioRuntime], None]
    ] = None,
) -> typing.Tuple[RunReport, float]:
    """:func:`run_config` plus the measured wall-clock duration.

    The duration is provenance for store manifests only — it never
    feeds back into the simulation (which runs purely on virtual time).

    *on_runtime*, when given, receives the wired
    :class:`ScenarioRuntime` just before the simulation starts.  The
    service's worker uses it to watch ``sim.now`` /
    ``sim.processed_events`` as a liveness signal: its lease keeper
    only renews while the simulation is actually advancing, so an
    alive-but-wedged worker goes lease-stale and gets requeued.
    """
    started = perf_clock()
    if on_runtime is None:
        report = run_config(config)
    else:
        runtime = ScenarioRuntime(config)
        on_runtime(runtime)
        report = runtime.run()
    return report, perf_clock() - started


#: Chunks produced per pool worker.  More than one keeps the pool
#: load-balanced when run durations differ; a small factor keeps chunks
#: big enough to amortize per-task overhead and bounds how much work an
#: interrupted batch can lose (completed chunks are already persisted).
_CHUNKS_PER_WORKER = 4


def spawn_pool(max_workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A process pool whose workers start from a fresh interpreter.

    The one place the start method is chosen, for sweeps and the
    service alike.  ``spawn`` means fork-inherited module state
    (monkeypatches, caches, open handles, a threaded HTTP parent's
    held locks) cannot leak into a worker.
    """
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context("spawn"),
    )


def _run_chunk(
    configs: typing.Sequence[ScenarioConfig],
) -> typing.List[typing.Tuple[RunReport, float]]:
    """Run a chunk of configs sequentially in one worker process.

    Module-level so it can cross a process boundary.  Runs in chunk
    order, which the parent arranged to be placement-grouped, so the
    worker's placement cache is hot from the second run of each group
    on.
    """
    return [run_config_timed(config) for config in configs]


def _split_chunks(
    items: typing.List[typing.Tuple[int, ScenarioConfig]],
    chunk_count: int,
) -> typing.List[typing.List[typing.Tuple[int, ScenarioConfig]]]:
    """Split *items* into *chunk_count* contiguous, balanced slices."""
    base, extra = divmod(len(items), chunk_count)
    chunks = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return [chunk for chunk in chunks if chunk]


@dataclasses.dataclass(frozen=True, slots=True)
class CacheStats:
    """How a batch of runs split between store hits and executions."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of runs served from the store (0.0 when empty)."""
        return self.hits / self.total if self.total else 0.0


def run_many(
    configs: typing.Sequence[ScenarioConfig],
    max_workers: typing.Optional[int] = None,
    store: typing.Optional["RunStore"] = None,
    progress: typing.Optional[typing.Callable[[str], None]] = None,
) -> typing.Tuple[typing.List[RunReport], CacheStats]:
    """Run *configs*, consulting and feeding *store* when given.

    Returns the reports in the same order as *configs*, plus the
    hit/miss split.  Misses are persisted one by one as they complete,
    so a killed batch leaves everything already finished reusable.

    *max_workers* is the only parallelism setting: ``None`` runs one
    worker per CPU, a value below 2 runs serially in-process in input
    order, and N groups misses by placement key into contiguous chunks
    executed by a spawn-context pool of N (one process task per chunk
    — see the module docstring).
    """
    reports: typing.Dict[int, RunReport] = {}
    misses: typing.List[typing.Tuple[int, ScenarioConfig]] = []
    hits = 0
    for index, config in enumerate(configs):
        cached = store.get(config) if store is not None else None
        if cached is not None:
            reports[index] = cached
            hits += 1
            if progress is not None:
                progress(f"cached: {config.describe()}")
        else:
            misses.append((index, config))

    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    if workers > 1 and len(misses) > 1:
        # Stable-sort misses so configs sharing a deployment sit next
        # to each other (then in input order); contiguous chunks then
        # maximize each worker's placement-cache reuse.
        radio_range_m = sensor_radio().range_m
        grouped = sorted(
            misses,
            key=lambda item: (
                placement_key(item[1], radio_range_m),
                item[0],
            ),
        )
        chunks = _split_chunks(
            grouped, min(len(grouped), workers * _CHUNKS_PER_WORKER)
        )
        with spawn_pool(min(workers, len(chunks))) as pool:
            futures = {
                pool.submit(
                    _run_chunk, [config for _, config in chunk]
                ): chunk
                for chunk in chunks
            }
            for future in concurrent.futures.as_completed(futures):
                chunk = futures[future]
                for (index, config), (report, duration) in zip(
                    chunk, future.result()
                ):
                    if store is not None:
                        store.put(config, report, duration_s=duration)
                    reports[index] = report
                    if progress is not None:
                        progress(f"done: {config.describe()}")
    else:
        for index, config in misses:
            report, duration = run_config_timed(config)
            if store is not None:
                store.put(config, report, duration_s=duration)
            reports[index] = report
            if progress is not None:
                progress(f"done: {config.describe()}")

    ordered = [reports[index] for index in range(len(configs))]
    return ordered, CacheStats(hits=hits, misses=len(misses))


@dataclasses.dataclass(frozen=True, slots=True)
class SweepPoint:
    """One (algorithm, robot count) grid point with its replicates.

    The extension figures reuse the two keys: ``algorithm`` holds their
    series label and ``robot_count`` their integer x value (an MTBF, a
    grid index, or 0/1 for a feature off/on).
    """

    algorithm: str
    robot_count: int
    reports: typing.Tuple[RunReport, ...]

    def stat(self, metric: str) -> SummaryStats:
        """Summary of attribute *metric* over the replicates."""
        return summarize(
            [getattr(report, metric) for report in self.reports]
        )

    def mean(self, metric: str) -> float:
        """Mean of attribute *metric* over the replicates.

        NaN replicates are skipped; NaN when none is finite (a point
        where no run observed the metric plots as a gap).
        """
        return mean_of([getattr(report, metric) for report in self.reports])


@dataclasses.dataclass(frozen=True, slots=True)
class SweepResult:
    """All grid points of one sweep."""

    points: typing.Tuple[SweepPoint, ...]
    #: Store hit/miss split of the sweep (all misses when no store).
    cache: CacheStats = CacheStats()

    def point(self, algorithm: str, robot_count: int) -> SweepPoint:
        """The grid point for (*algorithm*, *robot_count*)."""
        for point in self.points:
            if (
                point.algorithm == algorithm
                and point.robot_count == robot_count
            ):
                return point
        raise KeyError((algorithm, robot_count))

    def series(
        self,
        algorithm: str,
        metric: str,
        robot_counts: typing.Sequence[int],
    ) -> typing.List[float]:
        """Metric means for *algorithm* across *robot_counts*, in order."""
        return [
            self.point(algorithm, count).mean(metric)
            for count in robot_counts
        ]

    def algorithms(self) -> typing.List[str]:
        """Distinct algorithms present, in first-seen order."""
        seen: typing.List[str] = []
        for point in self.points:
            if point.algorithm not in seen:
                seen.append(point.algorithm)
        return seen

    def robot_counts(self) -> typing.List[int]:
        """Distinct robot counts present, ascending."""
        return sorted({point.robot_count for point in self.points})


def run_grid(
    cells: typing.Sequence[typing.Tuple[str, int, ScenarioConfig]],
    max_workers: typing.Optional[int] = None,
    store: typing.Optional["RunStore"] = None,
    progress: typing.Optional[typing.Callable[[str], None]] = None,
) -> SweepResult:
    """Run ``(series, x, config)`` cells as one :func:`run_many` batch.

    Cells sharing a series and x are the replicates of one
    :class:`SweepPoint`; points come back in first-seen order.
    """
    reports, cache = run_many(
        [config for _, _, config in cells],
        max_workers=max_workers,
        store=store,
        progress=progress,
    )
    groups: typing.Dict[typing.Tuple[str, int], typing.List[RunReport]] = {}
    for (series, x, _), report in zip(cells, reports):
        groups.setdefault((series, x), []).append(report)
    return SweepResult(
        points=tuple(
            SweepPoint(series, x, tuple(replicates))
            for (series, x), replicates in groups.items()
        ),
        cache=cache,
    )


def sweep(
    algorithms: typing.Sequence[str],
    robot_counts: typing.Sequence[int],
    seeds: typing.Sequence[int] = (1,),
    parallel: bool = True,
    progress: typing.Optional[typing.Callable[[str], None]] = None,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> SweepResult:
    """Run every (algorithm, robot_count, seed) combination.

    The paper's grid on :func:`run_grid`: one point per (algorithm,
    robot count) in argument order, seeds as its replicates.

    Parameters
    ----------
    algorithms, robot_counts, seeds:
        The grid.  Each cell uses the paper's §4.1 parameters with
        *overrides* applied (e.g. ``sim_time_s=16_000`` to shorten runs).
    parallel:
        ``False`` is shorthand for ``max_workers=1`` (serial).
    progress:
        Optional callback invoked with a human-readable line as each run
        finishes (or is served from the store).
    store:
        Optional :class:`~repro.store.RunStore`.  Cached cells are
        loaded without simulating; executed cells are persisted as they
        complete, making interrupted sweeps resumable.
    max_workers:
        Process-pool width (``None``: one worker per CPU; below 2:
        serial), as in :func:`run_many`.
    """
    return run_grid(
        [
            (
                algorithm,
                robot_count,
                paper_scenario(algorithm, robot_count, seed=seed, **overrides),
            )
            for algorithm in algorithms
            for robot_count in robot_counts
            for seed in seeds
        ],
        max_workers=max_workers if parallel else 1,
        store=store,
        progress=progress,
    )
