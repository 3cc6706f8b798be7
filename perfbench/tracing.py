"""Outside-in span tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  For a traced run the
benchmark replaces public entry points of the simulator's layers with
timing wrappers, at class level (or, for module-level functions, in
every module that imported them by name), runs the workload, and puts
the originals back.  Each wrapped call becomes one span: the wrapped
name, start, end, the span that was open when it started (its parent)
and the run or job it belongs to.  Spans live in flat arrays in memory
and are written out once, when the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Only wrapped entry points become
spans, so a self time also holds any unwrapped code the layer called.
"""

from __future__ import annotations

import array
import collections
import functools
import gzip
import importlib
import json
import sys
import threading
import time
import typing

#: (span name, module, class or None for a module function, attribute).
#: A span name is ``<layer module>.<function>``; the per-layer metrics
#: in BENCHMARK.json are ``<span name>.<stat>``.
WRAPPED: typing.Tuple[
    typing.Tuple[str, str, typing.Optional[str], str], ...
] = (
    ("sim.run", "repro.sim.engine", "Simulator", "run"),
    ("net.channel.transmit", "repro.net.channel", "Channel", "transmit"),
    (
        "net.channel.receivers_of",
        "repro.net.channel",
        "Channel",
        "receivers_of",
    ),
    ("net.spatial.within", "repro.net.spatial", "SpatialGrid", "within"),
    ("net.spatial.mutation", "repro.net.spatial", "SpatialGrid", "insert"),
    ("net.spatial.mutation", "repro.net.spatial", "SpatialGrid", "move"),
    ("net.spatial.mutation", "repro.net.spatial", "SpatialGrid", "remove"),
    (
        "net.node.handle_frame",
        "repro.net.node",
        "NetworkNode",
        "handle_frame",
    ),
    ("net.mac.handle_incoming", "repro.net.mac", "Mac", "handle_incoming"),
    ("routing.handle", "repro.routing.router", "GeographicRouter", "handle"),
    (
        "core.knowledge.closest",
        "repro.core.knowledge",
        "RobotKnowledge",
        "closest",
    ),
    (
        "core.sensor.on_broadcast_received",
        "repro.core.sensor",
        "SensorNode",
        "on_broadcast_received",
    ),
    (
        "core.robot.on_broadcast_received",
        "repro.core.robot",
        "RobotNode",
        "on_broadcast_received",
    ),
    ("core.robot.move_to", "repro.core.robot", "RobotNode", "move_to"),
    (
        "geometry.voronoi.owner_of",
        "repro.geometry.voronoi",
        "VoronoiDiagram",
        "owner_of",
    ),
    (
        "geometry.voronoi.closest_site_indices",
        "repro.geometry.voronoi",
        None,
        "closest_site_indices",
    ),
    (
        "faults.network.drop_causes",
        "repro.faults.network",
        "NetworkFaultField",
        "drop_causes",
    ),
    (
        "faults.network.drop_causes",
        "repro.faults.network",
        "NetworkFaultField",
        "drop_cause",
    ),
    (
        "deploy.sensor_positions_for",
        "repro.deploy.placement_cache",
        None,
        "sensor_positions_for",
    ),
    ("metrics.report", "repro.core.runtime", "ScenarioRuntime", "report"),
    (
        "experiments.runner.run_many",
        "repro.experiments.runner",
        None,
        "run_many",
    ),
    ("store.put", "repro.store.store", "RunStore", "put"),
    ("store.get", "repro.store.store", "RunStore", "get"),
    ("store.load", "repro.store.store", "RunStore", "load"),
    ("service.submit", "repro.service.queue", "JobQueue", "submit"),
)

#: Modules imported before wrapping, so every by-name import of a
#: wrapped module function already exists and gets rebound.
_IMPORTERS = (
    "repro.core.runtime",
    "repro.core.coordination.dynamic",
    "repro.experiments.runner",
    "repro.service.queue",
)


class SpanRecorder:
    """Spans as parallel flat arrays; thread-safe, one stack per thread."""

    def __init__(self) -> None:
        self.names: typing.List[str] = []
        self._name_ids: typing.Dict[str, int] = {}
        self.labels: typing.List[str] = [""]
        self._label_ids: typing.Dict[str, int] = {"": 0}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.label = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._current_label = 0
        self.paused = False
        #: Span name -> calls that returned something other than None
        #: (store lookups that hit).
        self.found: typing.Counter[str] = collections.Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_label(self, label: typing.Optional[str]) -> None:
        """Tag every span opened from now on with run/job *label*.

        ``None`` pauses recording (the benchmark's own reads of program
        state) until the next label is set.
        """
        self.paused = label is None
        if label is None:
            return
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        self._current_label = self._label_ids[label]

    def enter(self, name_id: int) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.label.append(self._current_label)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(index)
        self.start[index] = time.perf_counter()
        return index

    def leave(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._local.stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        label: str = "",
    ) -> int:
        """Append a finished span (hand-built trees, loaded files)."""
        self.set_label(label)
        with self._lock:
            index = len(self.name)
            self.name.append(self.name_id(name))
            self.parent.append(parent)
            self.label.append(self._current_label)
            self.start.append(start)
            self.end.append(end)
        return index

    _COLUMNS = ("name", "start", "end", "parent", "label")

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw columns."""
        header = {
            "count": len(self),
            "columns": [
                [column, getattr(self, column).typecode]
                for column in self._COLUMNS
            ],
            "names": self.names,
            "labels": self.labels,
            "found": dict(self.found),
        }
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in self._COLUMNS:
                handle.write(getattr(self, column).tobytes())

    @classmethod
    def load(cls, path: str) -> "SpanRecorder":
        recorder = cls()
        with gzip.open(path, "rb") as handle:
            header = json.loads(handle.readline())
            for column, typecode in header["columns"]:
                values = array.array(typecode)
                values.frombytes(
                    handle.read(header["count"] * values.itemsize)
                )
                setattr(recorder, column, values)
        for name in header["names"]:
            recorder.name_id(name)
        for label in header["labels"][1:]:
            recorder.set_label(label)
        recorder.set_label("")
        recorder.found.update(header["found"])
        return recorder


class FloodDupCounter:
    """Share of flood receptions that repeat an already-heard flood.

    A reception is a duplicate when its (receiver, origin-or-subject,
    seq) key was already received by that receiver.  It is computed from
    the frame argument of ``NetworkNode.handle_frame``.
    """

    def __init__(self) -> None:
        from repro.core.messages import FloodMessage

        self._flood_type = FloodMessage
        self._seen: typing.Set[typing.Tuple[str, str, int]] = set()
        self.receptions = 0
        self.duplicates = 0

    def observe(self, args: typing.Tuple[typing.Any, ...]) -> None:
        node, frame = args[0], args[1]
        packet = frame.packet
        if packet is None:
            return
        flood = packet.payload
        if not isinstance(flood, self._flood_type):
            return
        key = (node.node_id, flood.subject or flood.origin_id, flood.seq)
        self.receptions += 1
        if key in self._seen:
            self.duplicates += 1
        else:
            self._seen.add(key)

    @property
    def share(self) -> float:
        return self.duplicates / self.receptions if self.receptions else 0.0


def traced(
    recorder: SpanRecorder,
    name: str,
    fn: typing.Callable[..., typing.Any],
    observe: typing.Optional[typing.Callable[[tuple], None]] = None,
    count_found: bool = False,
) -> typing.Callable[..., typing.Any]:
    """*fn* wrapped so every call records one span named *name*.

    *observe* sees each call's positional arguments first; with
    *count_found*, calls returning non-None are counted in
    ``recorder.found[name]``.
    """
    name_id = recorder.name_id(name)
    enter, leave, found = recorder.enter, recorder.leave, recorder.found

    @functools.wraps(fn)
    def wrapper(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
        if recorder.paused:
            return fn(*args, **kwargs)
        if observe is not None:
            observe(args)
        index = enter(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(index)
        if count_found and result is not None:
            found[name] += 1
        return result

    return wrapper


def install(
    recorder: SpanRecorder,
    flood: typing.Optional[FloodDupCounter] = None,
) -> typing.Callable[[], None]:
    """Wrap every entry point in :data:`WRAPPED`; returns the undo."""
    for module_name in _IMPORTERS:
        importlib.import_module(module_name)
    undo: typing.List[typing.Tuple[typing.Any, str, typing.Any]] = []
    for name, module_name, class_name, attribute in WRAPPED:
        module = importlib.import_module(module_name)
        observe = (
            flood.observe
            if flood is not None and attribute == "handle_frame"
            else None
        )
        count_found = name in ("store.get", "store.load")
        if class_name is None:
            original = getattr(module, attribute)
            wrapper = traced(recorder, name, original, observe, count_found)
            for holder in list(sys.modules.values()):
                if getattr(holder, attribute, None) is original:
                    undo.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)
        else:
            owner = getattr(module, class_name)
            original = getattr(owner, attribute)
            undo.append((owner, attribute, owner.__dict__.get(attribute)))
            setattr(
                owner,
                attribute,
                traced(recorder, name, original, observe, count_found),
            )

    def uninstall() -> None:
        for holder, attribute, original in reversed(undo):
            if original is None:
                delattr(holder, attribute)
            else:
                setattr(holder, attribute, original)

    return uninstall


def self_times(recorder: SpanRecorder) -> typing.List[float]:
    """Per span: duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are merged, so covered time is never counted twice.  A
    parent's children are visited in the order they were opened, which
    is their start order: a parent and its children run on one thread.
    """
    start = recorder.start.tolist()
    end = recorder.end.tolist()
    parent = recorder.parent.tolist()
    result = [e - s for s, e in zip(start, end)]
    covered_to = start[:]  # per parent: end of the covered prefix
    for index, owner in enumerate(parent):
        if owner < 0:
            continue
        low = max(start[index], covered_to[owner])
        high = min(end[index], end[owner])
        if high > low:
            result[owner] -= high - low
            covered_to[owner] = high
    return result


def summarize(
    recorder: SpanRecorder,
) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``nested``.

    ``total_s`` counts only spans with no ancestor of the same name, so
    recursion is not double-counted.  ``nested[parent name]`` is the
    number of the name's spans whose parent span has that name.
    """
    selfs = self_times(recorder)
    names = recorder.names
    name = recorder.name.tolist()
    parent = recorder.parent.tolist()
    start = recorder.start.tolist()
    end = recorder.end.tolist()
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_total = [0.0] * len(names)
    nested: typing.Counter[typing.Tuple[int, int]] = collections.Counter()
    # Bit n of ancestors[i] is set when a span named n encloses span i.
    ancestors = [0] * len(name)
    for index, span_name in enumerate(name):
        owner = parent[index]
        if owner >= 0:
            ancestors[index] = ancestors[owner] | (1 << name[owner])
            nested[(span_name, name[owner])] += 1
        calls[span_name] += 1
        self_total[span_name] += selfs[index]
        if not (ancestors[index] >> span_name) & 1:
            total[span_name] += end[index] - start[index]
    stats: typing.Dict[str, typing.Dict[str, typing.Any]] = {}
    for name_id, span_name in enumerate(names):
        if calls[name_id]:
            stats[span_name] = {
                "calls": calls[name_id],
                "total_s": total[name_id],
                "self_s": self_total[name_id],
                "nested": {},
            }
    for (child, owner), count in nested.items():
        stats[names[child]]["nested"][names[owner]] = count
    return stats
