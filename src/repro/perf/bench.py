"""Self-timed microbenchmarks of the simulator's live fast paths.

Every bench here guards a fast path that a simulation runs:

* **Event kernel** — schedule-and-run a long chain of ``call_in``
  callbacks (the dominant event shape: MAC wakeups, deliveries, timers).
* **Spatial grid** — disk range queries at the paper's sensor density
  (one sensor per ~28 m × 28 m, 63 m query radius).
* **Channel fan-out** — one-hop broadcast ``transmit`` + delivery over
  fields at the paper's three densities (4/9/16 robots' worth of
  sensors), optionally with a lossy radio.

Whole runs, sweeps and the service are measured end to end by the
repository benchmark (``perfbench/``), not here.

All benchmarks build their own fixtures, time with the provenance
clock (the package's single sanctioned wall-clock read site), and
return plain ``operations / second`` floats.  :func:`merge_bench_results`
is the one writer of ``BENCH_results.json``: ``repro-sim bench`` and
the figure-bench suite both merge their sections through it.
"""

from __future__ import annotations

import json
import sys
import typing

from repro.geometry import Point
from repro.net import Channel, NetworkNode, RadioConfig
from repro.net.frames import BROADCAST, Category, Frame, Packet
from repro.net.radio import SENSOR_RANGE_M
from repro.net.spatial import SpatialGrid
from repro.sim import RandomStreams, Simulator
from repro.store.provenance import perf_clock

__all__ = [
    "PAPER_DENSITIES",
    "channel_fanout_throughput",
    "kernel_throughput",
    "merge_bench_results",
    "run_benchmarks",
    "spatial_throughput",
]

#: Sensor populations matching the paper's three field sizes (4, 9 and
#: 16 robots at 50 sensors per 200 m × 200 m robot area, §4.1).
PAPER_DENSITIES: typing.Dict[int, int] = {4: 200, 9: 450, 16: 800}

#: Field side length per sensor, preserving the paper's density.
_SIDE_PER_SENSOR_M = 28.28  # sqrt(200*200/50)


def kernel_throughput(events: int = 100_000) -> float:
    """Events per second for a pure ``call_in`` callback chain."""
    sim = Simulator()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < events:
            sim.call_in(1.0, tick)

    sim.call_in(1.0, tick)
    started = perf_clock()
    sim.run()
    return count / (perf_clock() - started)


def spatial_throughput(
    sensors: int = 800,
    probes: int = 500,
    rounds: int = 20,
) -> float:
    """Disk queries per second against a paper-density grid."""
    rng = RandomStreams(1).stream("perf.spatial.layout")
    side = _SIDE_PER_SENSOR_M * (sensors**0.5)
    grid = SpatialGrid(cell_size=80.0)
    for index in range(sensors):
        grid.insert(
            f"s{index:04d}",
            Point(rng.uniform(0, side), rng.uniform(0, side)),
        )
    points = [
        Point(rng.uniform(0, side), rng.uniform(0, side))
        for _ in range(probes)
    ]
    started = perf_clock()
    for _ in range(rounds):
        for point in points:
            grid.within(point, SENSOR_RANGE_M)
    return rounds * probes / (perf_clock() - started)


def channel_fanout_throughput(
    sensors: int = 800,
    loss_rate: float = 0.0,
    rounds: int = 10,
    seed: int = 5,
) -> float:
    """Broadcast ``transmit`` calls per second at a given density.

    Every node broadcasts one beacon-sized frame per round and the
    simulator drains all deliveries, so the figure includes receiver-set
    lookup, per-receiver loss draws (when lossy), and delivery events.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    channel = Channel(sim, streams)
    side = _SIDE_PER_SENSOR_M * (sensors**0.5)
    rng = streams.stream("perf.fanout.layout")
    nodes = [
        NetworkNode(
            f"s{index:04d}",
            Point(rng.uniform(0, side), rng.uniform(0, side)),
            RadioConfig(range_m=SENSOR_RANGE_M, loss_rate=loss_rate),
            sim,
            channel,
            streams,
        )
        for index in range(sensors)
    ]
    started = perf_clock()
    sent = 0
    for _ in range(rounds):
        for node in nodes:
            packet = Packet(
                source=node.node_id,
                destination=BROADCAST,
                category=Category.BEACON,
            )
            channel.transmit(
                node,
                Frame(
                    sender=node.node_id,
                    link_destination=BROADCAST,
                    packet=packet,
                ),
            )
            sent += 1
        sim.run()
    return sent / (perf_clock() - started)


def run_benchmarks(
    quick: bool = False,
) -> typing.Dict[str, typing.Dict[str, float]]:
    """Run the full microbenchmark battery; returns throughput numbers.

    The result maps bench name to ``{"throughput_per_s": ..., plus
    shape parameters}`` and is what ``repro-sim bench`` merges into
    ``BENCH_results.json``.  ``quick`` shrinks every workload ~4× for
    CI smoke runs.
    """
    scale = 4 if quick else 1
    results: typing.Dict[str, typing.Dict[str, float]] = {}

    events = 100_000 // scale
    results["kernel_call_in"] = {
        "events": events,
        "throughput_per_s": round(kernel_throughput(events), 1),
    }

    rounds = 20 // scale
    # "_cold" keeps the name recorded results were taken under.
    results["spatial_within_cold"] = {
        "sensors": 800,
        "rounds": rounds,
        "throughput_per_s": round(spatial_throughput(rounds=rounds), 1),
    }

    fan_rounds = 8 // scale
    for robots, sensors in sorted(PAPER_DENSITIES.items()):
        results[f"channel_fanout_{robots}robots"] = {
            "sensors": sensors,
            "rounds": fan_rounds,
            "throughput_per_s": round(
                channel_fanout_throughput(sensors, rounds=fan_rounds), 1
            ),
        }
    results["channel_fanout_16robots_lossy"] = {
        "sensors": PAPER_DENSITIES[16],
        "loss_rate": 0.1,
        "rounds": fan_rounds,
        "throughput_per_s": round(
            channel_fanout_throughput(
                PAPER_DENSITIES[16], loss_rate=0.1, rounds=fan_rounds
            ),
            1,
        ),
    }

    return results


def merge_bench_results(
    path: str, sections: typing.Mapping[str, typing.Any]
) -> None:
    """Merge top-level *sections* into the JSON file at *path*.

    Each key of *sections* replaces the file's entry of the same name;
    every other entry (another writer's sections, hand-recorded A/B
    fields) is kept.  A missing file starts empty; one that cannot be
    parsed is rewritten, with a note on stderr.
    """
    merged: typing.Dict[str, typing.Any] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except FileNotFoundError:
        pass
    except (OSError, ValueError):
        print(f"bench: could not parse {path}; rewriting", file=sys.stderr)
    merged.update(sections)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
