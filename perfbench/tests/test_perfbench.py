"""Tests of the benchmark itself: span arithmetic, flood duplicates, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import FloodDupCounter, SpanRecorder, self_times, summarize  # noqa: E402


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = SpanRecorder()
    root = spans.add("root", 0.0, 10.0)
    a = spans.add("a", 1.0, 4.0, root)
    spans.add("leaf", 2.0, 3.0, a)
    spans.add("b", 3.0, 6.0, root)  # overlaps a: [1, 6] is covered once
    spans.add("c", 8.0, 12.0, root)  # clipped to the root's end
    selfs = self_times(spans)
    assert selfs == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])

    stats = summarize(spans)
    assert stats["root"]["self_s"] == pytest.approx(3.0)
    assert stats["a"]["total_s"] == pytest.approx(3.0)
    assert stats["leaf"]["nested"] == {"a": 1}
    assert stats["b"]["nested"] == {"root": 1}


def test_total_time_counts_recursive_spans_once():
    spans = SpanRecorder()
    outer = spans.add("x", 0.0, 4.0)
    inner = spans.add("x", 1.0, 2.0, outer)
    spans.add("y", 1.5, 1.75, inner)
    stats = summarize(spans)
    assert stats["x"]["calls"] == 2
    assert stats["x"]["total_s"] == pytest.approx(4.0)
    assert stats["x"]["self_s"] == pytest.approx(3.0 + 0.75)


def test_spans_round_trip_through_a_file(tmp_path):
    spans = SpanRecorder()
    parent = spans.add("p", 0.5, 2.5, label="job-1")
    spans.add("q", 1.0, 2.0, parent, label="job-1")
    spans.found["p"] = 3
    path = str(tmp_path / "spans.gz")
    spans.dump(path)
    loaded = SpanRecorder.load(path)
    assert summarize(loaded) == summarize(spans)
    assert loaded.labels[loaded.label[1]] == "job-1"
    assert loaded.found["p"] == 3


def _flood_frame(origin, seq, subject=None):
    from repro.core.messages import FloodMessage
    from repro.geometry.point import Point
    from repro.net.frames import BROADCAST, Category, Frame, Packet

    flood = FloodMessage(
        origin_id=origin,
        position=Point(1.0, 2.0),
        kind="robot",
        seq=seq,
        subject=subject,
    )
    packet = Packet(
        source=origin,
        destination=BROADCAST,
        category=Category.LOCATION_UPDATE,
        payload=flood,
    )
    return Frame(sender=origin, link_destination=BROADCAST, packet=packet)


class _Node:
    def __init__(self, node_id):
        self.node_id = node_id


def test_flood_dup_share_counts_repeated_receiver_origin_seq_keys():
    from repro.net.frames import BROADCAST, Category, Frame, Packet

    s1, s2 = _Node("sensor-0001"), _Node("sensor-0002")
    counter = FloodDupCounter()
    beacon = Frame(
        sender="sensor-0003",
        link_destination=BROADCAST,
        packet=Packet(
            source="sensor-0003",
            destination=BROADCAST,
            category=Category.BEACON,
            payload="not a flood",
        ),
    )
    ack = Frame(sender="sensor-0003", link_destination="sensor-0001", packet=None, is_ack=True)
    for node, frame in (
        (s1, _flood_frame("robot-00", 1)),  # new
        (s1, _flood_frame("robot-00", 1)),  # duplicate
        (s2, _flood_frame("robot-00", 1)),  # new for this receiver
        (s1, _flood_frame("robot-00", 2)),  # new sequence number
        (s1, beacon),  # not a flood: ignored
        (s1, ack),  # no packet: ignored
        # An obituary for robot-00 relayed by robot-01 shares the
        # subject's (robot-00, 2) key: a duplicate.
        (s1, _flood_frame("robot-01", 2, subject="robot-00")),
    ):
        counter.observe((node, frame, "x", None))
    assert counter.receptions == 5
    assert counter.duplicates == 2
    assert counter.share == pytest.approx(0.4)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to one short input."""
    for workload in workloads.WORKLOADS.values():
        monkeypatch.setattr(workload, "min_rounds", 1)
    monkeypatch.setattr(workloads.Compare9, "horizon_s", 60.0)
    monkeypatch.setattr(workloads.Degraded4, "horizon_s", 30.0)
    monkeypatch.setattr(workloads.SweepGrid, "robot_counts", (4,))
    monkeypatch.setattr(workloads.SweepGrid, "seeds_per_grid", 1)
    monkeypatch.setattr(workloads.SweepGrid, "horizon_s", 30.0)
    monkeypatch.setattr(workloads.ServiceJobs, "jobs", 2)
    monkeypatch.setattr(workloads.ServiceJobs, "hits", 20)
    monkeypatch.setattr(workloads.ServiceJobs, "horizon_s", 30.0)


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(tiny, name, trace):
    lines, result = _run(
        "--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", trace
    )
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric for metric, _ in expected}
    for metric, unit in expected:
        assert result["metrics"][metric]["unit"] == unit
        assert any(
            line.startswith(f"{metric} ") and line.endswith(f" {unit}")
            for line in lines
        ), metric
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m, _ in expected)
    if trace == "1" and name == "compare-9":
        metrics = {m: v["value"] for m, v in result["metrics"].items()}
        assert metrics["net.channel.receivers_of.miss_ratio"] > 0
        assert metrics["net.node.flood_dup_share"] > 0
        assert all(
            value == 0 for m, value in metrics.items() if m.startswith("faults.")
        )


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "compare-9", "--seed", "0", "--seconds", "1"]) != 0
    assert out.getvalue() == ""
