"""Performance harness: live fast-path microbenchmarks and profiling.

``repro.perf.bench`` measures throughput of the simulator's fast paths
(event kernel, spatial grid, channel broadcast fan-out) with plain
self-timed loops — no pytest required — so
the numbers can be recorded by ``repro-sim bench`` and compared across
commits.  Its ``merge_bench_results`` is the one writer of
``BENCH_results.json``.  ``repro.perf.profiling`` wraps
:mod:`cProfile` for the ``--profile`` flag on the sweep-backed CLI
commands.

See ``docs/PERFORMANCE.md`` for the hot-path inventory and the caching
invariants the optimized paths rely on.
"""

from repro.perf.bench import (
    PAPER_DENSITIES,
    channel_fanout_throughput,
    kernel_throughput,
    merge_bench_results,
    run_benchmarks,
    spatial_throughput,
)
from repro.perf.profiling import profile_call

__all__ = [
    "PAPER_DENSITIES",
    "channel_fanout_throughput",
    "kernel_throughput",
    "merge_bench_results",
    "profile_call",
    "run_benchmarks",
    "spatial_throughput",
]
