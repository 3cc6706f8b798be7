"""Shared fixtures for the benchmark suite.

The three figure benches derive from **one** sweep over
algorithms × robot counts × seeds (the same runs back all three of the
paper's figures, exactly as in the paper).  The sweep scale is selected
with ``REPRO_BENCH_SCALE``:

* ``quick``   — robots (4, 9), 1 seed, 8 000 s   (~2 min)
* ``default`` — robots (4, 9, 16), 2 seeds, 32 000 s (~10 min)
* ``full``    — robots (4, 9, 16), 3 seeds, the paper's 64 000 s

All scales use the low-utilization regime the paper motivates in §4.1
("in realistic scenarios the failure happening rate is expected to be
low and robots spend most of the time waiting"): robot speed 4 m/s keeps
robots idle most of the time, which is where the paper's Figure-2
separation between the algorithms lives.  EXPERIMENTS.md discusses the
literal 1 m/s setting.

Two extras wired through this conftest:

* **Run store.**  When ``REPRO_STORE`` is set, the shared sweep consults
  the content-addressed run store (``docs/STORE.md``) — reruns at the
  same scale are pure cache hits, and an interrupted ``full`` sweep
  resumes where it stopped.
* **Machine-readable results.**  The session merges per-bench wall
  times plus the sweep's headline metrics (and its store hit/miss
  split) into ``BENCH_results.json`` (path override: the
  ``REPRO_BENCH_RESULTS`` environment variable) through
  :func:`repro.perf.merge_bench_results`, so the ``repro-sim bench``
  sections and hand-recorded fields already in the file survive.
"""

import math
import os
import time

import pytest

from repro.deploy import Algorithm
from repro.experiments import sweep
from repro.perf import merge_bench_results
from repro.store import RunStore

SCALES = {
    "quick": dict(robot_counts=(4, 9), seeds=(1,), sim_time_s=8_000.0),
    "default": dict(
        robot_counts=(4, 9, 16), seeds=(1, 2), sim_time_s=32_000.0
    ),
    "full": dict(
        robot_counts=(4, 9, 16), seeds=(1, 2, 3), sim_time_s=64_000.0
    ),
}

#: Robot speed used across the bench suite (see module docstring).
BENCH_ROBOT_SPEED = 4.0

#: Headline RunReport metrics recorded per sweep point.
HEADLINE_METRICS = (
    "mean_travel_distance",
    "mean_report_hops",
    "mean_request_hops",
    "update_transmissions_per_failure",
)


def bench_scale() -> dict:
    """The active scale parameters (see ``REPRO_BENCH_SCALE``)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    if name not in SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}: {name!r}"
        )
    return dict(SCALES[name])


def _bench_store():
    """The run store backing the sweep, when ``REPRO_STORE`` opts in."""
    return RunStore() if os.environ.get("REPRO_STORE") else None


def _point_mean(point, metric):
    """A point's metric mean as a JSON-safe value (None when undefined)."""
    try:
        value = point.mean(metric)
    except ValueError:  # every replicate NaN (e.g. request hops, fixed)
        return None
    return None if math.isnan(value) else round(value, 4)


@pytest.fixture(scope="session")
def bench_results():
    """Session-wide collector merged into ``BENCH_results.json`` at exit."""
    results = {
        "scale": os.environ.get("REPRO_BENCH_SCALE", "default"),
        "robot_speed_mps": BENCH_ROBOT_SPEED,
        "benches": {},
        "sweeps": {},
    }
    yield results
    path = os.environ.get("REPRO_BENCH_RESULTS", "BENCH_results.json")
    merge_bench_results(path, results)


@pytest.fixture(autouse=True)
def _bench_walltime(request, bench_results):
    """Record every bench's wall-clock duration."""
    started = time.perf_counter()
    yield
    bench_results["benches"][request.node.nodeid] = {
        "wall_time_s": round(time.perf_counter() - started, 3)
    }


@pytest.fixture(scope="session")
def figure_sweep(bench_results):
    """The shared sweep backing Figures 2, 3 and 4."""
    scale = bench_scale()
    robot_counts = scale.pop("robot_counts")
    seeds = scale.pop("seeds")
    store = _bench_store()
    started = time.perf_counter()
    result = sweep(
        (Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED),
        robot_counts,
        seeds,
        parallel=False,
        robot_speed_mps=BENCH_ROBOT_SPEED,
        store=store,
        **scale,
    )
    bench_results["sweeps"]["figure_sweep"] = {
        "wall_time_s": round(time.perf_counter() - started, 3),
        "store": store.root if store is not None else None,
        "cache": {
            "hits": result.cache.hits,
            "misses": result.cache.misses,
        },
        "points": [
            {
                "algorithm": point.algorithm,
                "robot_count": point.robot_count,
                "replicates": len(point.reports),
                **{
                    metric: _point_mean(point, metric)
                    for metric in HEADLINE_METRICS
                },
            }
            for point in result.points
        ],
    }
    return {
        "robot_counts": robot_counts,
        "seeds": seeds,
        "result": result,
    }
