"""The benchmark's four workloads.

Each workload turns the run's ``--seed`` into a sequence of inputs and
executes one *round* per input, in order, while time remains: at least
``min_rounds`` of them, which the simulated-statistics digest covers.
Every round checks what it produced.  The end-to-end metrics are
medians over a run's rounds (run.py), so each run samples many inputs.

See RATIONALE.md for why these four workloads and these sizes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import typing

from repro.core.runtime import ScenarioRuntime
from repro.deploy.placement_cache import reset_placement_cache
from repro.deploy.scenario import (
    Algorithm,
    DetectionMode,
    ScenarioConfig,
    paper_scenario,
)
from repro.experiments.degraded import default_degraded_campaign
from repro.experiments.runner import sweep
from repro.metrics.collector import RunReport
from repro.store.keys import canonical_json
from repro.store.store import RunStore

#: Where rounds keep temporary stores and the traced run writes spans;
#: always inside the checkout the benchmark runs from.
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".bench_out",
)
SRC_DIR = os.path.join(os.path.dirname(OUT_DIR), "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Tags the spans a traced round opens with a run or job id; ``None``
#: pauses tracing while the benchmark reads program state itself.
Label = typing.Callable[[typing.Optional[str]], None]


@dataclasses.dataclass
class Round:
    """What one round measured and produced."""

    #: Host seconds of the round's user-visible operation.
    wall_s: float
    #: Host seconds of set-up inside the round.
    setup_s: float
    #: Host seconds of the simulation phase (simulated-time rate base).
    run_s: float
    #: Simulated seconds completed.
    sim_s: float
    #: Simulation runs (or service jobs) completed.
    runs: int
    #: SHA-256 over the canonical JSON of the round's RunReports.
    digest: str
    #: Operations attempted and the descriptions of those that failed.
    attempted: int
    failures: typing.List[str] = dataclasses.field(default_factory=list)
    #: Peak resident memory of the processes doing the work, in MB.
    rss_mb: float = 0.0
    #: Cache-hit request latencies (service only), ms; inf = failed.
    hit_ms: typing.List[float] = dataclasses.field(default_factory=list)
    #: Counters read from the program, reported by traced runs.
    layers: typing.Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Rounds of one kind do comparable work (degraded-4: the algorithm).
    kind: str = ""


def report_digest(reports: typing.Sequence[RunReport]) -> str:
    """SHA-256 over the reports' canonical JSON, in order."""
    text = canonical_json([report.to_json_dict() for report in reports])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(root: int) -> typing.List[int]:
    children: typing.Dict[int, typing.List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        parent = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(parent, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        frontier.extend(children.get(pid, ()))
    return found


class TreeMemory:
    """Peak RSS of a process and all its descendants, summed.

    Samples every process's high-water mark (VmHWM) in the tree rooted
    at *root* every *period_s* and keeps the last value seen per pid,
    so workers that already exited still count.  Growth of a process in
    its last *period_s* before exiting is missed.
    """

    def __init__(self, root: int, period_s: float = 0.2) -> None:
        self.root = root
        self.period_s = period_s
        self._hwm: typing.Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        for pid in _descendants(self.root):
            kb = _hwm_kb(pid)
            if kb:
                self._hwm[pid] = max(kb, self._hwm.get(pid, 0))

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self.sample()

    def __enter__(self) -> "TreeMemory":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: typing.Any) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return sum(self._hwm.values()) / 1024.0


def _fresh_dir(prefix: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


# ----------------------------------------------------------------------
# compare-9 and degraded-4: scenarios simulated in this process
# ----------------------------------------------------------------------
def _scenario_layers(runtime: ScenarioRuntime, report: RunReport) -> typing.Dict[str, float]:
    """Counters the program itself keeps for one finished run."""
    channel = runtime.channel.stats.snapshot()
    routing = runtime.routing_stats
    return {
        "sim.events": runtime.sim.processed_events,
        "net.channel.frames_sent": channel["frames_sent"],
        "net.channel.frames_delivered": channel["frames_delivered"],
        "net.channel.dropped_loss": channel["dropped_loss"],
        "net.channel.dropped_jam": channel["dropped_jam"],
        "net.channel.dropped_partition": channel["dropped_partition"],
        "net.channel.frames_unreachable": channel["frames_unreachable"],
        "net.channel.retransmissions": sum(channel["retransmissions"].values()),
        "routing.originated": sum(routing.originated.values()),
        "routing.delivered_hops": sum(
            sum(hops) for hops in routing.delivered_hops.values()
        ),
        "routing.drops": sum(routing.drops.values()),
        "faults.suspicions": report.suspicions,
        "faults.probes_sent": report.probes_sent,
        "faults.aborted_replacements": report.aborted_replacements,
        "faults.redispatches": report.redispatches,
        "faults.coop_offers": report.coop_offers,
        "faults.coop_claims": report.coop_claims,
        "faults.reroutes": report.reroutes,
    }


def _run_algorithms(
    configs: typing.Sequence[ScenarioConfig],
    check: typing.Callable[[RunReport], typing.List[str]],
    label: Label,
) -> Round:
    """Build, initialize, simulate and report each config in turn."""
    reset_placement_cache()  # every round starts as cold as a new process
    reports, failures = [], []
    setup = run = 0.0
    layers: typing.Dict[str, float] = {}
    for config in configs:
        label(config.algorithm)
        started = time.perf_counter()
        runtime = ScenarioRuntime(config)
        runtime.initialize()
        built = time.perf_counter()
        runtime.sim.run(until=config.sim_time_s)
        report = runtime.report()
        setup += built - started
        run += time.perf_counter() - built
        reports.append(report)
        problems = check(report)
        if problems:
            failures.append(f"{config.describe()}: {'; '.join(problems)}")
        for key, value in _scenario_layers(runtime, report).items():
            layers[key] = layers.get(key, 0) + value
    label("")
    return Round(
        wall_s=setup + run,
        setup_s=setup,
        run_s=run,
        sim_s=sum(config.sim_time_s for config in configs),
        runs=len(configs),
        digest=report_digest(reports),
        attempted=len(configs),
        failures=failures,
        rss_mb=_self_rss_mb(),
        layers=layers,
        kind="+".join(config.algorithm for config in configs),
    )


def _report_invariants(report: RunReport) -> typing.List[str]:
    """Properties every report must have, whatever the scenario."""
    problems = []
    if not 0 <= report.repaired <= report.failures:
        problems.append(f"repaired {report.repaired} > failures {report.failures}")
    if not report.detected <= report.failures:
        problems.append(f"detected {report.detected} > failures {report.failures}")
    if report.false_replacements != 0:
        problems.append(f"false_replacements = {report.false_replacements}")
    return problems


def _routed_accounting(report: RunReport) -> typing.List[str]:
    """Lossless channel: no routed packet is delivered or dropped twice.

    (Under loss a lost link-layer ack makes the sender retransmit a
    packet the receiver already forwarded, so copies are expected.)
    """
    problems = []
    routing = report.routing_snapshot
    for category, originated in routing["originated"].items():
        dropped = sum(
            count
            for key, count in routing["drops"].items()
            if key.split("/")[0] == category
        )
        delivered = routing["delivered"].get(category, 0)
        if delivered + dropped > originated:
            problems.append(
                f"{category}: {delivered} delivered + {dropped} dropped "
                f"> {originated} originated"
            )
    return problems


class Compare9:
    """The paper's §4.1 field with 9 robots; lossless, event detection."""

    name = "compare-9"
    min_rounds = 5
    trace_rounds = 1
    robots = 9
    horizon_s = 500.0

    def input(self, seed: int, index: int) -> int:
        return seed * 1000 + index

    def configs(self, field_seed: int) -> typing.List[ScenarioConfig]:
        return [
            paper_scenario(
                algorithm, self.robots, seed=field_seed,
                sim_time_s=self.horizon_s,
            )
            for algorithm in Algorithm.ALL
        ]

    @staticmethod
    def check(report: RunReport) -> typing.List[str]:
        # report_delivery_ratio is not checked against 1.0: GPSR can
        # drop a report in a perimeter loop even on a lossless channel
        # (input seed 2006, dynamic: 1 of 10), and reports in flight at
        # the horizon count as undelivered.
        problems = _report_invariants(report) + _routed_accounting(report)
        if report.robot_faults or report.suspicions or report.coop_offers:
            problems.append("fault machinery ran on a fault-free field")
        return problems

    def round(self, field: typing.Any, label: Label) -> Round:
        return _run_algorithms(self.configs(field), self.check, label)


class Degraded4(Compare9):
    """4 robots, beacons, 5 % loss, the degraded campaign, all adaptation.

    A round is one algorithm on a fresh field, the algorithms taking
    turns.  How long a field takes depends mostly on how many sensors
    fail while the jam is up; the three algorithms on one field share
    that draw, so a new field per round averages over more draws.
    """

    name = "degraded-4"
    min_rounds = 3
    trace_rounds = 3
    robots = 4
    horizon_s = 400.0

    def input(self, seed: int, index: int) -> typing.Tuple[int, str]:
        return seed * 1000 + index, Algorithm.ALL[index % len(Algorithm.ALL)]

    def configs(self, field: typing.Tuple[int, str]) -> typing.List[ScenarioConfig]:
        field_seed, algorithm = field
        campaign = default_degraded_campaign(self.horizon_s)
        return [
            paper_scenario(
                algorithm,
                self.robots,
                seed=field_seed,
                sim_time_s=self.horizon_s,
                detection_mode=DetectionMode.BEACON,
                loss_rate=0.05,
                mean_lifetime_s=900.0,
                fault_script=campaign,
                verify_failures=True,
                adaptive_verify=True,
                coop_repair=True,
                jam_aware=True,
            )
        ]

    @staticmethod
    def check(report: RunReport) -> typing.List[str]:
        return _report_invariants(report)


# ----------------------------------------------------------------------
# sweep-grid: a cold parallel sweep into a fresh store
# ----------------------------------------------------------------------
class SweepGrid:
    """3 algorithms x {4, 9} robots x 2 seeds, spawn pool of 2, cold store."""

    name = "sweep-grid"
    min_rounds = 3
    trace_rounds = 1
    robot_counts = (4, 9)
    seeds_per_grid = 2
    horizon_s = 300.0
    workers = 2

    def input(self, seed: int, index: int) -> typing.Tuple[int, ...]:
        first = (seed * 1000 + index) * self.seeds_per_grid
        return tuple(range(first, first + self.seeds_per_grid))

    def configs(self, seeds: typing.Sequence[int]) -> typing.List[ScenarioConfig]:
        return [
            paper_scenario(
                algorithm, robots, seed=seed, sim_time_s=self.horizon_s
            )
            for algorithm in Algorithm.ALL
            for robots in self.robot_counts
            for seed in seeds
        ]

    def round(self, seeds: typing.Tuple[int, ...], label: Label) -> Round:
        root = _fresh_dir("sweep-")
        try:
            return self._round(seeds, RunStore(root), label)
        finally:
            label("")
            shutil.rmtree(root, ignore_errors=True)

    def _round(
        self, seeds: typing.Tuple[int, ...], store: RunStore, label: Label
    ) -> Round:
        configs = self.configs(seeds)
        first_result: typing.List[float] = []

        def progress(line: str) -> None:
            if not first_result and line.startswith("done:"):
                first_result.append(time.perf_counter())

        with TreeMemory(os.getpid()) as memory:
            started = time.perf_counter()
            result = sweep(
                Algorithm.ALL,
                self.robot_counts,
                seeds=seeds,
                parallel=True,
                max_workers=self.workers,
                store=store,
                progress=progress,
                sim_time_s=self.horizon_s,
            )
            wall = time.perf_counter() - started
        label(None)  # the checks below read the store; keep them out of the trace
        reports = [report for point in result.points for report in point.reports]
        failures = []
        if len(reports) != len(configs):
            failures.append(f"{len(reports)} reports for {len(configs)} runs")
        for config, report in zip(configs, reports):
            problems = _report_invariants(report)
            if report.description != config.describe():
                problems.append(f"out of order: got {report.description}")
            if problems:
                failures.append(f"{config.describe()}: {'; '.join(problems)}")
        if result.cache.misses != len(configs):
            failures.append(f"cold store served {result.cache.hits} hits")
        verify = store.verify()
        if not verify.passed or verify.checked != len(configs):
            failures.append(f"store verify: {verify}")
        busy = sum(
            entry.manifest["duration_s"] for entry in store.entries()
        )
        return Round(
            wall_s=wall,
            setup_s=first_result[0] - started,
            run_s=wall,
            sim_s=sum(config.sim_time_s for config in configs),
            runs=len(reports),
            digest=report_digest(reports),
            attempted=len(configs),
            failures=failures,
            rss_mb=memory.peak_mb,
            layers={
                "runner.busy_s": busy,
                "runner.pool_utilisation": busy / (self.workers * wall),
                "runner.overhead_s": max(0.0, self.workers * wall - busy),
            },
        )


# ----------------------------------------------------------------------
# service-jobs: the HTTP job service in its own process
# ----------------------------------------------------------------------
def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _stop(server: subprocess.Popen) -> None:
    """SIGINT the server and wait; kill it and its workers if it hangs."""
    workers = _descendants(server.pid)[1:]
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    server.stdout.close()
    deadline = time.monotonic() + 10
    for pid in workers:
        while os.path.exists(f"/proc/{pid}") and _state(pid) != "Z":
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.01)


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except OSError:
        return "Z"
    return stat[stat.rindex(")") + 2]


_ANNOUNCE = re.compile(r"serving on http://[^:]+:(\d+) ")


class ServiceJobs:
    """`repro serve` subprocess; one closed-loop client, one connection."""

    name = "service-jobs"
    min_rounds = 2
    trace_rounds = 1
    jobs = 16
    hits = 60
    robots = 4
    horizon_s = 300.0
    workers = 2

    def __init__(self) -> None:
        #: (endpoint, HTTP status, latency ms) of every request made.
        self.requests: typing.List[typing.Tuple[str, int, float]] = []
        #: JobRecord dicts read back from the service after each round.
        self.records: typing.List[typing.Dict[str, typing.Any]] = []
        #: Span file the traced server writes, when set.
        self.server_spans: typing.Optional[str] = None

    def input(self, seed: int, index: int) -> int:
        return seed * 1000 + index

    def configs(self, seed: int) -> typing.List[ScenarioConfig]:
        return [
            paper_scenario(
                Algorithm.ALL[index % 3],
                self.robots,
                seed=seed * 100 + index,
                sim_time_s=self.horizon_s,
            )
            for index in range(self.jobs)
        ]

    def _command(self, root: str) -> typing.List[str]:
        command = [sys.executable]
        if self.server_spans is not None:
            command += [os.path.join(HERE, "serve_traced.py"), self.server_spans]
        else:
            command += ["-m", "repro"]
        return command + [
            "serve", "--port", "0", "--workers", str(self.workers),
            "--store", os.path.join(root, "store"), "--quiet",
        ]

    def round(self, seed: int, label: Label) -> Round:
        root = _fresh_dir("service-")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        try:
            with open(os.path.join(root, "server.log"), "w", encoding="utf-8") as log:
                started = time.perf_counter()
                server = subprocess.Popen(
                    self._command(root), stdout=subprocess.PIPE, stderr=log,
                    env=env, text=True,
                    # A parent started in the background may ignore SIGINT;
                    # the server needs it to shut down cleanly.
                    preexec_fn=_default_sigint,
                )
            try:
                connection = self._connect(server)
                setup = time.perf_counter() - started
                try:
                    result = self._exercise(seed, server, connection, label)
                finally:
                    connection.close()
            finally:
                _stop(server)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        result.setup_s = setup
        return result

    def _connect(self, server: subprocess.Popen) -> http.client.HTTPConnection:
        """Wait for the announced port, then for a healthy /healthz."""
        match = _ANNOUNCE.search(server.stdout.readline())
        if match is None:
            raise RuntimeError("server did not announce its port")
        connection = http.client.HTTPConnection(
            "127.0.0.1", int(match.group(1)), timeout=120
        )
        while True:
            try:
                status, _, _ = self._request(connection, "GET", "/healthz", "healthz")
            except OSError:
                status = 0
                connection.close()
            if status == 200:
                return connection
            time.sleep(0.005)

    def _request(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        endpoint: str,
        body: typing.Optional[typing.Dict[str, typing.Any]] = None,
    ) -> typing.Tuple[int, typing.Dict[str, typing.Any], float]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8") or "{}")
        latency_ms = (time.perf_counter() - started) * 1000.0
        self.requests.append((endpoint, response.status, latency_ms))
        return response.status, payload, latency_ms

    def _distinct_jobs(
        self,
        connection: http.client.HTTPConnection,
        configs: typing.Sequence[ScenarioConfig],
        label: Label,
    ) -> typing.Tuple[typing.List[str], typing.List[RunReport], typing.List[str]]:
        """Submit every config, then long-poll each job until it settles."""
        digests, reports, failures = [], [], []
        for config in configs:
            status, payload, _ = self._request(
                connection, "POST", "/v1/runs", "post_runs",
                {"config": config.to_json_dict()},
            )
            if status not in (200, 202):
                raise RuntimeError(f"submit answered {status}: {payload}")
            digests.append(payload["digest"])
        for config, digest in zip(configs, digests):
            label(digest)
            while True:
                status, payload, _ = self._request(
                    connection, "GET", f"/v1/runs/{digest}?wait=60", "get_run"
                )
                job_status = payload.get("job", {}).get("status")
                if status != 200 or job_status in ("done", "failed"):
                    break
            problems = []
            if job_status != "done" or "report" not in payload:
                problems.append(f"job ended {job_status}")
            else:
                report = RunReport.from_json_dict(payload["report"])
                reports.append(report)
                problems = _report_invariants(report)
            if problems:
                failures.append(f"{config.describe()}: {'; '.join(problems)}")
        label("")
        return digests, reports, failures

    def _exercise(
        self,
        seed: int,
        server: subprocess.Popen,
        connection: http.client.HTTPConnection,
        label: Label,
    ) -> Round:
        configs = self.configs(seed)
        started = time.perf_counter()
        digests, reports, failures = self._distinct_jobs(connection, configs, label)
        jobs_s = time.perf_counter() - started
        hit_ms = []
        for index in range(self.hits):
            expected = digests[index % len(digests)]
            try:
                status, payload, latency = self._request(
                    connection, "POST", "/v1/runs", "post_runs",
                    {"config": configs[index % len(configs)].to_json_dict()},
                )
            except (OSError, http.client.HTTPException) as error:
                status, payload, latency = 0, {"error": str(error)}, 0.0
            if (
                status == 200
                and payload.get("cached") is True
                and payload.get("digest") == expected
            ):
                hit_ms.append(latency)
            else:
                hit_ms.append(float("inf"))
                failures.append(f"resubmit {index}: {status} {payload}")

        _, listing, _ = self._request(
            connection, "GET", f"/v1/runs?limit={10 * self.jobs}", "get_runs"
        )
        self.records.extend(listing.get("runs", []))
        memory = TreeMemory(server.pid)
        memory.sample()
        return Round(
            wall_s=jobs_s,
            setup_s=0.0,
            run_s=jobs_s,
            sim_s=sum(config.sim_time_s for config in configs),
            runs=len(reports),
            digest=report_digest(reports),
            attempted=self.jobs + self.hits,
            failures=failures,
            rss_mb=memory.peak_mb,
            hit_ms=hit_ms,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (Compare9, Degraded4, SweepGrid, ServiceJobs)
}
