"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload compare-9 --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` runs the first
inputs once untraced and once with every layer entry point wrapped
(see tracing.py), and reports the per-layer metrics of the traced
rounds plus the tracing overhead.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import signal
import statistics
import sys
import time
import typing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: (name, unit) of the end-to-end metrics, printed on every workload.
END_TO_END = (
    ("sim_s_per_wall_s", "sim-s/s"),
    ("runs_per_s", "1/s"),
    ("op_latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_ENDPOINTS = ("post_runs", "get_run", "get_runs", "healthz")

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER: typing.Tuple[typing.Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.run.total_s", "s"),
    ("sim.run.self_s", "s"),
    ("net.channel.transmit.calls", "count"),
    ("net.channel.transmit.self_s", "s"),
    ("net.channel.receivers_of.calls", "count"),
    ("net.channel.receivers_of.total_s", "s"),
    ("net.channel.receivers_of.miss_ratio", "ratio"),
    ("net.channel.frames_sent", "count"),
    ("net.channel.frames_delivered", "count"),
    ("net.channel.dropped_loss", "count"),
    ("net.channel.dropped_jam", "count"),
    ("net.channel.dropped_partition", "count"),
    ("net.channel.frames_unreachable", "count"),
    ("net.channel.retransmissions", "count"),
    ("net.spatial.within.calls", "count"),
    ("net.spatial.within.total_s", "s"),
    ("net.spatial.mutations", "count"),
    ("net.node.handle_frame.calls", "count"),
    ("net.node.handle_frame.self_s", "s"),
    ("net.node.flood_receptions", "count"),
    ("net.node.flood_dup_share", "ratio"),
    ("net.mac.handle_incoming.total_s", "s"),
    ("routing.handle.calls", "count"),
    ("routing.handle.self_s", "s"),
    ("routing.originated", "count"),
    ("routing.delivered_hops", "count"),
    ("routing.drops", "count"),
    ("core.knowledge.closest.calls", "count"),
    ("core.knowledge.closest.total_s", "s"),
    ("core.sensor.on_broadcast_received.self_s", "s"),
    ("core.robot.on_broadcast_received.self_s", "s"),
    ("core.robot.move_to.calls", "count"),
    ("geometry.voronoi.owner_of.calls", "count"),
    ("geometry.voronoi.owner_of.total_s", "s"),
    ("geometry.voronoi.closest_site_indices.calls", "count"),
    ("geometry.voronoi.closest_site_indices.total_s", "s"),
    ("faults.network.drop_causes.calls", "count"),
    ("faults.network.drop_causes.total_s", "s"),
    ("faults.suspicions", "count"),
    ("faults.probes_sent", "count"),
    ("faults.aborted_replacements", "count"),
    ("faults.redispatches", "count"),
    ("faults.coop_offers", "count"),
    ("faults.coop_claims", "count"),
    ("faults.reroutes", "count"),
    ("deploy.sensor_positions_for.calls", "count"),
    ("deploy.sensor_positions_for.total_s", "s"),
    ("metrics.report.total_s", "s"),
    ("experiments.runner.run_many.total_s", "s"),
    ("runner.busy_s", "s"),
    ("runner.pool_utilisation", "ratio"),
    ("runner.overhead_s", "s"),
    ("store.put.calls", "count"),
    ("store.put.total_s", "s"),
    ("store.get.calls", "count"),
    ("store.get.hits", "count"),
    ("store.get.total_s", "s"),
    ("store.load.calls", "count"),
    ("store.load.hits", "count"),
    ("store.load.total_s", "s"),
    ("service.submit.calls", "count"),
    ("service.submit.total_s", "s"),
    *(
        (f"service.{endpoint}.{stat}", unit)
        for endpoint in _ENDPOINTS
        for stat, unit in (
            ("requests", "count"),
            ("p50_ms", "ms"),
            ("status_2xx", "count"),
            ("status_other", "count"),
        )
    ),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.dispatch_overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

#: Span names whose ``.calls``/``.total_s``/``.self_s`` are reported.
_SPAN_STATS = (
    ("sim.run", ("total_s", "self_s")),
    ("net.channel.transmit", ("calls", "self_s")),
    ("net.channel.receivers_of", ("calls", "total_s")),
    ("net.spatial.within", ("calls", "total_s")),
    ("net.node.handle_frame", ("calls", "self_s")),
    ("net.mac.handle_incoming", ("total_s",)),
    ("routing.handle", ("calls", "self_s")),
    ("core.knowledge.closest", ("calls", "total_s")),
    ("core.sensor.on_broadcast_received", ("self_s",)),
    ("core.robot.on_broadcast_received", ("self_s",)),
    ("core.robot.move_to", ("calls",)),
    ("geometry.voronoi.owner_of", ("calls", "total_s")),
    ("geometry.voronoi.closest_site_indices", ("calls", "total_s")),
    ("faults.network.drop_causes", ("calls", "total_s")),
    ("deploy.sensor_positions_for", ("calls", "total_s")),
    ("metrics.report", ("total_s",)),
    ("experiments.runner.run_many", ("total_s",)),
    ("store.put", ("calls", "total_s")),
    ("store.get", ("calls", "total_s")),
    ("store.load", ("calls", "total_s")),
    ("service.submit", ("calls", "total_s")),
)


def percentile(values: typing.Sequence[float], share: float) -> float:
    """Nearest-rank percentile; *share* in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def tail_share(count: int) -> typing.Optional[float]:
    """Highest of p99.9/p99/p95/p90 with at least 10 samples beyond it."""
    for share in (0.999, 0.99, 0.95, 0.9):
        if count * (1.0 - share) >= 10:
            return share
    return None


def _no_label(label: typing.Optional[str]) -> None:
    """Untraced rounds tag nothing."""


def timed_run(
    workload: typing.Any, seed: int, seconds: float
) -> typing.Tuple[dict, typing.List[typing.Any]]:
    """Rounds on the seed's inputs until *seconds* pass; end-to-end metrics."""
    rounds: typing.List[typing.Any] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        # Start a round only if on average it would end in time.
        if (
            len(rounds) >= workload.min_rounds
            and elapsed * (1.0 + 0.5 / len(rounds)) > seconds
        ):
            break
        gc.collect()
        rounds.append(
            workload.round(workload.input(seed, len(rounds)), _no_label)
        )

    # Medians over rounds resist both a slow spell of the host and an
    # unusually heavy input.  Rounds of different kinds (degraded-4's
    # algorithms) do different work, so each kind gets its own average.
    # A kind has only three or four rounds in a run, each on a fresh
    # field, and there the mean, which weighs every field, varies less
    # from seed to seed than a median resting on one or two of them.
    kinds: typing.Dict[str, typing.List[typing.Any]] = {}
    for r in rounds:
        kinds.setdefault(r.kind, []).append(r)
    average = statistics.median if len(kinds) == 1 else statistics.fmean

    def per_kind(attribute: str) -> typing.List[float]:
        return [
            average([getattr(r, attribute) for r in group])
            for group in kinds.values()
        ]

    first = [group[0] for group in kinds.values()]
    metrics = {
        "sim_s_per_wall_s": sum(r.sim_s for r in first) / sum(per_kind("run_s")),
        "runs_per_s": sum(r.runs for r in first) / sum(per_kind("wall_s")),
        "setup_s": statistics.fmean(per_kind("setup_s")),
        "peak_rss_mb": max(r.rss_mb for r in rounds),
    }
    hits = [ms for r in rounds for ms in r.hit_ms]
    if hits:
        metrics["op_latency_ms"] = percentile(hits, 0.5)
    else:
        metrics["op_latency_ms"] = 1000.0 * statistics.fmean(per_kind("wall_s"))
    return metrics, rounds


def traced_run(
    workload: typing.Any, name: str, seed: int
) -> typing.Tuple[dict, typing.List[typing.Any], typing.List[str]]:
    """The first ``trace_rounds`` inputs, untraced and then traced."""
    from tracing import FloodDupCounter, SpanRecorder, install, summarize

    inputs = [workload.input(seed, index) for index in range(workload.trace_rounds)]
    untraced = []
    for value in inputs:
        gc.collect()
        untraced.append(workload.round(value, _no_label))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"spans-{name}-seed{seed}")
    server_spans = None
    if hasattr(workload, "server_spans"):
        server_spans = workload.server_spans = stem + "-server.json.gz"
        workload.requests.clear()
        workload.records.clear()
    recorder = SpanRecorder()
    flood = FloodDupCounter()
    gc.collect()
    uninstall = install(recorder, flood)
    try:
        traced = [workload.round(value, recorder.set_label) for value in inputs]
    finally:
        uninstall()
    recorder.dump(stem + ".json.gz")
    notes = [f"spans: {stem}.json.gz ({len(recorder)} spans)"]

    stats = summarize(recorder)
    found = dict(recorder.found)
    spans = len(recorder)
    if server_spans is not None:
        server = SpanRecorder.load(server_spans)
        spans += len(server)
        notes.append(f"server spans: {server_spans} ({len(server)} spans)")
        for span_name, entry in summarize(server).items():
            merged = stats.setdefault(
                span_name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "nested": {}}
            )
            for key in ("calls", "total_s", "self_s"):
                merged[key] += entry[key]
        for span_name, count in server.found.items():
            found[span_name] = found.get(span_name, 0) + count

    values: typing.Dict[str, float] = {}
    for r in traced:
        for key, value in r.layers.items():
            values[key] = values.get(key, 0) + value
    for span_name, keys in _SPAN_STATS:
        for key in keys:
            values[f"{span_name}.{key}"] = stats.get(span_name, {}).get(key, 0.0)
    receivers = stats.get("net.channel.receivers_of", {}).get("calls", 0)
    misses = (
        stats.get("net.spatial.within", {})
        .get("nested", {})
        .get("net.channel.receivers_of", 0)
    )
    values["net.channel.receivers_of.miss_ratio"] = (
        misses / receivers if receivers else 0.0
    )
    values["net.spatial.mutations"] = stats.get(
        "net.spatial.mutation", {}
    ).get("calls", 0)
    values["net.node.flood_receptions"] = flood.receptions
    values["net.node.flood_dup_share"] = flood.share
    for span_name in ("store.get", "store.load"):
        values[f"{span_name}.hits"] = found.get(span_name, 0)
    if server_spans is not None:
        values.update(_service_layers(workload))
    traced_wall = sum(r.wall_s for r in traced)
    untraced_wall = sum(r.wall_s for r in untraced)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["trace.spans"] = spans

    for index, (plain, wrapped) in enumerate(zip(untraced, traced)):
        if wrapped.digest != plain.digest:
            wrapped.failures.append(
                f"input {index}: traced digest {wrapped.digest[:16]} "
                f"!= untraced {plain.digest[:16]}"
            )
    notes.append(
        f"tracing overhead: traced wall {traced_wall:.3f} s / untraced "
        f"{untraced_wall:.3f} s = {values['trace.overhead_ratio']:.2f}"
    )
    if name in ("sweep-grid", "service-jobs"):
        notes.append(
            "not traced: simulation layers inside spawned worker processes "
            "(their metrics read 0)"
        )
    metrics = {metric: values.get(metric, 0.0) for metric, _ in PER_LAYER}
    return metrics, untraced + traced, notes


def _service_layers(workload: typing.Any) -> typing.Dict[str, float]:
    values: typing.Dict[str, float] = {}
    for endpoint in _ENDPOINTS:
        seen = [r for r in workload.requests if r[0] == endpoint]
        ok = sum(1 for r in seen if 200 <= r[1] < 300)
        values[f"service.{endpoint}.requests"] = len(seen)
        values[f"service.{endpoint}.p50_ms"] = (
            percentile([r[2] for r in seen], 0.5) if seen else 0.0
        )
        values[f"service.{endpoint}.status_2xx"] = ok
        values[f"service.{endpoint}.status_other"] = len(seen) - ok
    executed = [
        record
        for record in workload.records
        if record.get("started_unix") is not None
        and record.get("finished_unix") is not None
        and isinstance(record.get("duration_s"), float)
        and math.isfinite(record["duration_s"])
    ]
    if executed:
        values["service.queue_wait_s"] = statistics.median(
            r["started_unix"] - r["submitted_unix"] for r in executed
        )
        values["service.run_s"] = statistics.median(
            r["duration_s"] for r in executed
        )
        values["service.dispatch_overhead_s"] = statistics.median(
            r["finished_unix"] - r["submitted_unix"] - r["duration_s"]
            for r in executed
        )
    return values


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: {SRC}/repro not found; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    notes: typing.List[str] = []
    if args.trace:
        metrics, rounds, notes = traced_run(workload, args.workload, args.seed)
        units = dict(PER_LAYER)
    else:
        metrics, rounds = timed_run(workload, args.seed, args.seconds)
        units = dict(END_TO_END)

    attempted = sum(r.attempted for r in rounds)
    failures = [problem for r in rounds for problem in r.failures]
    covered = rounds[: workload.trace_rounds if args.trace else workload.min_rounds]
    digest = hashlib.sha256(
        "".join(r.digest for r in covered).encode()
    ).hexdigest()
    failed = min(len(failures), attempted)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds")
    for problem in failures:
        print(f"FAILED {problem}")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {units[metric]}")
    print(f"failed_share {failed / attempted:.6g} ({failed}/{attempted} operations)")
    hits = [ms for r in rounds for ms in r.hit_ms]
    if hits and not args.trace:
        print(f"jobs_per_s {metrics['runs_per_s']:.6g} 1/s")
        print(f"hit_p50_ms {percentile(hits, 0.5):.6g} ms (n={len(hits)})")
        share = tail_share(len(hits))
        if share is not None:
            print(
                f"hit_p{100 * share:g}_ms {percentile(hits, share):.6g} ms "
                f"(n={len(hits)}, {len(hits) - math.ceil(share * len(hits))} beyond)"
            )
    print(f"sim_digest {digest} (first {len(covered)} rounds)")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()
                },
            }
        )
    )
    return 0


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process a child leaves behind, such as the server's multiprocessing
    resource tracker, is then re-parented here rather than to init, so
    :func:`reap_children` can wait for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_children(timeout_s: float = 30.0) -> None:
    """Stop this process's resource tracker and wait until no child is left.

    Children still running after *timeout_s* are killed, then waited for.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            from workloads import _descendants

            for child in _descendants(os.getpid())[1:]:
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


if __name__ == "__main__":
    adopt_orphans()
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
