"""The grid runner and the figures built on it.

``run_grid`` is the one place cells become :class:`SweepPoint` s;
``sweep`` and the four extension figures build their grids with it.
The figure tests run each extension figure once, serially, at a small
size and check the grid it plotted: points are exactly series × x in
order, every run was executed, and each plotted value is the point's
mean.
"""

import math
import types

import pytest

from repro.cli import main
from repro.deploy import Algorithm
from repro.experiments import (
    SweepPoint,
    figure_degraded,
    figure_resilience,
    figure_resilience_permanence,
    figure_verification,
    run_grid,
    sweep,
)
from repro.experiments import runner
from repro.experiments.runner import CacheStats

ALGORITHMS = [Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED]
SEEDS = (1,)


def _same(value, expected):
    return value == expected or (math.isnan(value) and math.isnan(expected))


def _assert_grid(figure, labels, metric, runs):
    result = figure.sweep_result
    assert list(figure.series) == labels
    assert [(p.algorithm, p.robot_count) for p in result.points] == [
        (label, x) for label in labels for x in figure.x_values
    ]
    assert all(len(point.reports) == len(SEEDS) for point in result.points)
    assert result.cache.misses == runs
    for label in labels:
        for x, value in zip(figure.x_values, figure.series[label]):
            assert _same(value, result.point(label, x).mean(metric))


class TestRunGrid:
    def test_groups_cells_by_series_and_x_in_first_seen_order(
        self, monkeypatch
    ):
        calls = []

        def fake_run_many(configs, **kwargs):
            calls.append(kwargs)
            return [f"report-{c}" for c in configs], CacheStats(misses=4)

        monkeypatch.setattr(runner, "run_many", fake_run_many)
        store = object()
        result = run_grid(
            [("a", 1, "c1"), ("b", 1, "c2"), ("a", 1, "c3"), ("a", 2, "c4")],
            max_workers=3,
            store=store,
        )
        assert [
            (p.algorithm, p.robot_count, p.reports) for p in result.points
        ] == [
            ("a", 1, ("report-c1", "report-c3")),
            ("b", 1, ("report-c2",)),
            ("a", 2, ("report-c4",)),
        ]
        assert result.cache == CacheStats(misses=4)
        assert calls == [
            {"max_workers": 3, "store": store, "progress": None}
        ]

    def test_serial_sweep_is_one_worker(self, monkeypatch):
        seen = []

        def fake_run_many(configs, max_workers, store, progress):
            seen.append(max_workers)
            return [None] * len(configs), CacheStats()

        monkeypatch.setattr(runner, "run_many", fake_run_many)
        sweep(["fixed"], [4], parallel=False, max_workers=4)
        sweep(["fixed"], [4], max_workers=4)
        sweep(["fixed"], [4])
        assert seen == [1, 4, None]


class TestSweepPointMean:
    def test_all_nan_replicates_give_nan(self):
        nan = types.SimpleNamespace(latency=float("nan"))
        point = SweepPoint("centralized", 0, (nan, nan))
        assert math.isnan(point.mean("latency"))
        with pytest.raises(ValueError):
            point.stat("latency")

    def test_nan_replicates_are_skipped(self):
        point = SweepPoint(
            "fixed",
            4,
            (
                types.SimpleNamespace(latency=float("nan")),
                types.SimpleNamespace(latency=2.0),
                types.SimpleNamespace(latency=4.0),
            ),
        )
        assert point.mean("latency") == 3.0


class TestExtensionFigures:
    def test_resilience(self):
        figure = figure_resilience(
            mtbf_values=(2_000.0, 8_000.0),
            seeds=SEEDS,
            sim_time_s=1_500.0,
            max_workers=1,
        )
        assert figure.x_values == (2_000, 8_000)
        _assert_grid(figure, ALGORITHMS, "unrepaired_fraction", runs=6)

    def test_resilience_permanence(self):
        figure = figure_resilience_permanence(
            permanent_p_values=(0.0, 1.0),
            seeds=SEEDS,
            sim_time_s=1_500.0,
            max_workers=1,
        )
        assert figure.x_values == (0, 1)
        _assert_grid(figure, ALGORITHMS, "unrepaired_fraction", runs=6)

    def test_verification(self):
        figure = figure_verification(
            seeds=SEEDS, sim_time_s=600.0, max_workers=1
        )
        _assert_grid(figure, ALGORITHMS, "false_dispatches", runs=6)

    def test_degraded_counts_the_clean_pair_but_does_not_plot_it(self):
        figure = figure_degraded(
            seeds=SEEDS, sim_time_s=1_200.0, max_workers=1
        )
        # Six campaign runs plus the two-run clean-channel pair.
        _assert_grid(figure, ALGORITHMS, "mean_repair_latency", runs=8)


class TestAblateCommand:
    def test_threshold_study_prints_every_variant(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_STORE_ROOT", raising=False)
        code = main(
            ["ablate", "threshold", "--robots", "4", "--sim-time", "1200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "robot location-update threshold" in out
        first_cells = [
            line.split("|")[1].strip()
            for line in out.splitlines()
            if line.startswith("|")
        ]
        assert first_cells == ["variant", "10 m", "20 m", "40 m"]
