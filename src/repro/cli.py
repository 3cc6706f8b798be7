"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro-sim run --algorithm dynamic --robots 9 --sim-time 16000
    repro-sim compare --robots 9 --seed 7
    repro-sim figure 2 --seeds 1 2 --sim-time 32000 --store --jobs 4
    repro-sim store ls
    repro-sim params
    repro-sim lint src/

Every command prints plain text tables; ``run`` can additionally write
an SVG snapshot of the final field state.

``figure``, ``compare`` and ``ablate`` accept ``--store [PATH]`` to
cache finished runs in a content-addressed store (``--no-store``
disables it, ``REPRO_STORE`` or ``REPRO_STORE_ROOT`` enables it by
default) and ``--jobs N`` to fan fresh runs out over N worker
processes.  ``store ls|info|gc|verify`` inspects and maintains the
store itself; ``gc --max-bytes/--max-entries`` evicts oldest entries
over a cap.

``serve`` runs the simulation-as-a-service HTTP API (job submission
with single-flight dedup over the store — see ``docs/SERVICE.md``);
``export`` renders stored runs into a static dashboard JSON document.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing

from repro.analysis import CoverageTracker, energy_report
from repro.core.runtime import ScenarioRuntime
from repro.experiments.ablations import (
    dispatch_policy_ablation,
    efficient_broadcast_ablation,
    partition_ablation,
    update_threshold_ablation,
)
from repro.deploy.scenario import (
    Algorithm,
    DispatchPolicy,
    PAPER_ROBOT_COUNTS,
    paper_scenario,
)
from repro.experiments.degraded import figure_degraded
from repro.experiments.figures import (
    figure2_motion_overhead,
    figure3_hops,
    figure4_update_transmissions,
)
from repro.experiments.render import render_table
from repro.experiments.resilience import (
    figure_resilience,
    figure_resilience_permanence,
)
from repro.experiments.runner import run_many
from repro.experiments.verification import figure_verification
from repro.faults.script import load_fault_script
from repro.sim.trace import RecordingSink, Tracer
from repro.store import ENV_VAR as STORE_ENV_VAR
from repro.store import ROOT_ENV_VAR as STORE_ROOT_ENV_VAR
from repro.store import RunStore

__all__ = ["main", "build_parser"]

_FIGURES = {
    "2": figure2_motion_overhead,
    "3": figure3_hops,
    "4": figure4_update_transmissions,
    "degraded": figure_degraded,
    "resilience": figure_resilience,
    "verification": figure_verification,
}

_ABLATIONS = {
    "partition": partition_ablation,
    "threshold": update_threshold_ablation,
    "dispatch": dispatch_policy_ablation,
    "broadcast": efficient_broadcast_ablation,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro-sim`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduction of 'Replacing Failed Sensor Nodes by Mobile "
            "Robots' (ICDCSW'06): run scenarios, compare the three "
            "coordination algorithms, regenerate the paper's figures."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one scenario")
    _add_scenario_arguments(run)
    run.add_argument(
        "--energy",
        action="store_true",
        help="also print the energy report",
    )
    run.add_argument(
        "--coverage",
        action="store_true",
        help="track and print sensing coverage",
    )
    run.add_argument(
        "--svg",
        metavar="FILE",
        help="write an SVG snapshot of the final field state",
    )

    compare = commands.add_parser(
        "compare", help="run all three algorithms on one deployment"
    )
    _add_scenario_arguments(compare, with_algorithm=False)
    _add_cache_arguments(compare)
    _add_profile_argument(compare)

    figure = commands.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure.add_argument(
        "number",
        choices=sorted(_FIGURES),
        help="paper figure number, or 'resilience' / 'verification' / "
        "'degraded' for the robot-fault, network-fault, and "
        "degraded-mode extension figures",
    )
    figure.add_argument(
        "--robots",
        type=int,
        nargs="+",
        default=list(PAPER_ROBOT_COUNTS),
        help="robot counts to sweep (default: 4 9 16)",
    )
    figure.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2], help="seeds"
    )
    figure.add_argument(
        "--sim-time", type=float, default=32_000.0, help="horizon (s)"
    )
    figure.add_argument(
        "--speed",
        type=float,
        default=4.0,
        help="robot speed (m/s); 4 = the benches' low-utilization "
        "regime, 1 = the paper's literal setting",
    )
    figure.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="frame loss rate [0,1) applied to every run",
    )
    figure.add_argument(
        "--mtbf",
        type=float,
        nargs="+",
        default=[2_000.0, 8_000.0, 32_000.0],
        help="robot MTBF values to sweep (figure 'resilience' only)",
    )
    figure.add_argument(
        "--svg",
        metavar="FILE",
        help="also write the figure as an SVG line chart",
    )
    _add_cache_arguments(figure)
    _add_profile_argument(figure)

    ablate = commands.add_parser(
        "ablate", help="run one of the ablation studies"
    )
    ablate.add_argument(
        "study",
        choices=sorted(_ABLATIONS),
        help="which design choice to ablate",
    )
    ablate.add_argument("--robots", type=int, default=9)
    ablate.add_argument("--seed", type=int, default=1)
    ablate.add_argument(
        "--sim-time", type=float, default=16_000.0, help="horizon (s)"
    )
    ablate.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="frame loss rate [0,1) applied to every run",
    )
    _add_cache_arguments(ablate)

    faults = commands.add_parser(
        "faults",
        help="demo: run a scripted fault campaign and print the "
        "fault/recovery timeline",
    )
    _add_scenario_arguments(faults)
    faults.add_argument(
        "--sweep-permanence",
        action="store_true",
        help="instead of one campaign, sweep the permanent-crash "
        "probability (figure_resilience_permanence)",
    )
    faults.add_argument(
        "--permanent-p",
        type=float,
        nargs="+",
        default=[0.0, 0.5, 1.0],
        metavar="P",
        help="permanent-crash probabilities for --sweep-permanence "
        "(default: 0 0.5 1)",
    )
    _add_profile_argument(faults)

    store = commands.add_parser(
        "store",
        help="inspect and maintain the content-addressed run store",
    )
    store.add_argument(
        "action",
        choices=("ls", "info", "gc", "verify"),
        help=(
            "ls: list entries; info: show one entry's manifest and "
            "report; gc: drop temp files and stale-schema entries; "
            "verify: re-validate every entry's checksum"
        ),
    )
    store.add_argument(
        "digest",
        nargs="?",
        default=None,
        help="entry digest (prefix accepted) — required for `info`",
    )
    store.add_argument(
        "--store",
        dest="store",
        default=None,
        metavar="PATH",
        help=(
            "store directory (default: $REPRO_STORE_ROOT, "
            "$REPRO_STORE, or ~/.cache/repro-sim)"
        ),
    )
    store.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="gc only: evict oldest entries until the store is at "
        "most N bytes",
    )
    store.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="gc only: evict oldest entries until at most N remain",
    )

    serve = commands.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP API "
        "(see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8373,
        help="TCP port; 0 binds an ephemeral port (default: 8373)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="simulation worker processes (default: 2)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "store directory backing the service (default: "
            "$REPRO_STORE_ROOT, $REPRO_STORE, or ~/.cache/repro-sim)"
        ),
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="automatic re-executions of a failed-retryable job "
        "(default: 2; 0 disables retries)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cancel and requeue an execution running longer than this "
        "(default: no per-job timeout)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="reject new executions with 503 + Retry-After once N "
        "digests are in flight (default: uncapped)",
    )

    export = commands.add_parser(
        "export",
        help="render stored runs into a static dashboard JSON document",
    )
    export.add_argument(
        "digests",
        nargs="*",
        default=[],
        metavar="DIGEST",
        help="entry digests (prefixes accepted); or use --all",
    )
    export.add_argument(
        "--all",
        action="store_true",
        help="export every entry in the store",
    )
    export.add_argument(
        "--output",
        default="-",
        metavar="FILE",
        help="destination file ('-' prints to stdout; default: -)",
    )
    export.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "store directory (default: $REPRO_STORE_ROOT, "
            "$REPRO_STORE, or ~/.cache/repro-sim)"
        ),
    )

    bench = commands.add_parser(
        "bench",
        help="run the hot-path microbenchmarks and record throughput",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="~4x smaller workloads (CI smoke scale)",
    )
    bench.add_argument(
        "--output",
        metavar="FILE",
        default="BENCH_results.json",
        help="JSON file to merge results into (default: "
        "BENCH_results.json; '-' prints to stdout only)",
    )

    commands.add_parser(
        "params", help="print the paper's default parameters"
    )

    lint = commands.add_parser(
        "lint",
        help="run the determinism linter (same as repro-lint)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker threads for the per-file pass (default: 1)",
    )
    lint.add_argument(
        "--no-project",
        action="store_true",
        help="skip the cross-module pass (R6/R8/R9)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _add_scenario_arguments(
    parser: argparse.ArgumentParser, with_algorithm: bool = True
) -> None:
    if with_algorithm:
        parser.add_argument(
            "--algorithm",
            choices=Algorithm.ALL,
            default=Algorithm.DYNAMIC,
            help="coordination algorithm",
        )
    parser.add_argument("--robots", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sim-time", type=float, default=16_000.0, help="horizon (s)"
    )
    parser.add_argument(
        "--speed", type=float, default=1.0, help="robot speed (m/s)"
    )
    parser.add_argument(
        "--loss", type=float, default=0.0, help="frame loss rate [0,1)"
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="spares per robot (default: unlimited)",
    )
    parser.add_argument(
        "--dispatch",
        choices=DispatchPolicy.ALL,
        default=DispatchPolicy.CLOSEST,
        help="central-manager dispatch policy (centralized only)",
    )
    parser.add_argument(
        "--traffic-period",
        type=float,
        default=None,
        help="enable background sensor readings every N seconds",
    )
    parser.add_argument(
        "--robot-mtbf",
        type=float,
        default=None,
        metavar="S",
        help="enable stochastic robot breakdowns with this mean time "
        "between failures (s)",
    )
    parser.add_argument(
        "--robot-downtime",
        type=float,
        default=None,
        metavar="S",
        help="downtime of a recoverable breakdown (default: 900 s)",
    )
    parser.add_argument(
        "--fault-script",
        metavar="FILE",
        default=None,
        help="JSON file with a scripted fault campaign (list of "
        "{time, target, kind[, duration, x, y, radius, severity]})",
    )
    parser.add_argument(
        "--jam-rate",
        type=float,
        default=None,
        metavar="R",
        help="enable stochastic jamming: regions appear at R per "
        "second at uniform field positions",
    )
    parser.add_argument(
        "--jam-radius",
        type=float,
        default=None,
        metavar="M",
        help="radius of stochastic jam regions (default: 100 m)",
    )
    parser.add_argument(
        "--jam-mtbf",
        type=float,
        default=None,
        metavar="S",
        help="mean duration of a stochastic jam region (default: 600 s)",
    )
    parser.add_argument(
        "--jam-loss",
        type=float,
        default=None,
        metavar="P",
        help="per-frame drop probability inside a jam region "
        "(default: 1.0 = total blackout)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="enable the failure-verification protocol (suspicion "
        "quorum, dispatcher probes, on-site checks)",
    )
    parser.add_argument(
        "--adaptive-verify",
        action="store_true",
        help="scale the verification quorum and suspicion/probe "
        "timeouts from observed channel loss (requires --verify)",
    )
    parser.add_argument(
        "--coop-repair",
        action="store_true",
        help="auction over-threshold robot backlogs to under-loaded "
        "robots (cooperative backlog repair)",
    )
    parser.add_argument(
        "--jam-aware",
        action="store_true",
        help="plan robot travel around live jam disks with tangent "
        "detours",
    )


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    """``--profile [N]`` for the simulation-heavy commands."""
    parser.add_argument(
        "--profile",
        nargs="?",
        const=25,
        default=None,
        type=int,
        metavar="N",
        help="run under cProfile and print the top N functions by "
        "cumulative time to stderr (default N: 25)",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """``--store/--no-store/--jobs`` for the sweep-backed commands."""
    parser.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "cache finished runs in a content-addressed store; with no "
            "PATH, uses $REPRO_STORE or ~/.cache/repro-sim"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="never consult the store, even when $REPRO_STORE is set",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run uncached simulations over N worker processes "
            "(default: 1, serial)"
        ),
    )


def _resolve_store(args: argparse.Namespace) -> typing.Optional[RunStore]:
    """The store the command should use, or ``None`` when disabled.

    Precedence: ``--no-store`` wins; then an explicit ``--store``
    (optionally with a path); then the ``REPRO_STORE_ROOT`` or
    ``REPRO_STORE`` environment variable opts the default store in
    (``RunStore()`` itself resolves which directory that is — see
    ``docs/STORE.md``).
    """
    if getattr(args, "no_store", False):
        return None
    if args.store is not None:
        return RunStore(args.store or None)
    if os.environ.get(STORE_ROOT_ENV_VAR) or os.environ.get(STORE_ENV_VAR):
        return RunStore()
    return None


def _cache_note(cache: typing.Any, store: typing.Optional[RunStore]) -> None:
    if store is not None:
        print(
            f"store: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"[{store.root}]",
            file=sys.stderr,
        )


def _config_from_args(args: argparse.Namespace, algorithm: str):
    overrides: typing.Dict[str, typing.Any] = {}
    if getattr(args, "robot_mtbf", None) is not None:
        overrides["robot_mtbf_s"] = args.robot_mtbf
    if getattr(args, "robot_downtime", None) is not None:
        overrides["robot_downtime_s"] = args.robot_downtime
    if getattr(args, "fault_script", None):
        overrides["fault_script"] = load_fault_script(args.fault_script)
    if getattr(args, "jam_rate", None) is not None:
        overrides["jam_rate"] = args.jam_rate
    if getattr(args, "jam_radius", None) is not None:
        overrides["jam_radius_m"] = args.jam_radius
    if getattr(args, "jam_mtbf", None) is not None:
        overrides["jam_duration_mtbf_s"] = args.jam_mtbf
    if getattr(args, "jam_loss", None) is not None:
        overrides["jam_loss_rate"] = args.jam_loss
    if getattr(args, "verify", False):
        overrides["verify_failures"] = True
    if getattr(args, "adaptive_verify", False):
        overrides["adaptive_verify"] = True
    if getattr(args, "coop_repair", False):
        overrides["coop_repair"] = True
    if getattr(args, "jam_aware", False):
        overrides["jam_aware"] = True
    return paper_scenario(
        algorithm,
        args.robots,
        seed=args.seed,
        sim_time_s=args.sim_time,
        robot_speed_mps=args.speed,
        loss_rate=args.loss,
        robot_capacity=args.capacity,
        dispatch_policy=args.dispatch,
        data_traffic_period_s=args.traffic_period,
        **overrides,
    )


def _command_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, args.algorithm)
    tracer = Tracer()
    moves = RecordingSink()
    if args.svg:
        tracer.subscribe("move", moves)
    runtime = ScenarioRuntime(config, tracer=tracer)
    tracker = (
        CoverageTracker(runtime, period=config.sim_time_s / 32)
        if args.coverage
        else None
    )
    print(f"running: {config.describe()}")
    report = runtime.run()
    print()
    for line in report.summary_lines():
        print(" ", line)
    if args.traffic_period:
        from repro.net import Category

        stats = runtime.routing_stats
        print(
            "  data readings: "
            f"{stats.originated.get(Category.DATA, 0)} sent, "
            f"delivery {stats.delivery_ratio(Category.DATA):.3f}, "
            f"{stats.mean_hops(Category.DATA):.2f} hops"
        )
    if tracker is not None:
        print()
        print(
            f"  coverage: mean {tracker.mean_coverage():.3f}, "
            f"min {tracker.minimum_coverage():.3f}, "
            f"deficit {tracker.deficit_integral():.1f} fraction-s"
        )
    if args.energy:
        print()
        for line in energy_report(
            runtime.channel, runtime.metrics
        ).summary_lines():
            print(" ", line)
    if args.svg:
        from repro.viz import render_field_svg, trails_from_trace

        svg = render_field_svg(
            runtime, trails=trails_from_trace(moves.records)
        )
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
        print(f"\n  wrote {args.svg}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    store = _resolve_store(args)
    configs = [
        _config_from_args(args, algorithm) for algorithm in Algorithm.ALL
    ]
    reports, cache = run_many(
        configs,
        max_workers=args.jobs,
        store=store,
        progress=lambda line: print(line, file=sys.stderr),
    )
    rows = [
        [
            algorithm,
            report.failures,
            report.repaired,
            report.mean_travel_distance,
            report.mean_report_hops,
            report.update_transmissions_per_failure,
        ]
        for algorithm, report in zip(Algorithm.ALL, reports)
    ]
    _cache_note(cache, store)
    print(
        render_table(
            [
                "algorithm",
                "failures",
                "repaired",
                "travel m/fail",
                "report hops",
                "update tx/fail",
            ],
            rows,
            title=f"{args.robots} robots, seed {args.seed}, "
            f"{args.sim_time:.0f} s",
        )
    )
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    generator = _FIGURES[args.number]
    store = _resolve_store(args)
    if args.number == "resilience":
        figure = generator(
            mtbf_values=tuple(args.mtbf),
            loss_rates=(args.loss,),
            robot_count=args.robots[0],
            seeds=tuple(args.seeds),
            store=store,
            max_workers=args.jobs,
            sim_time_s=args.sim_time,
            robot_speed_mps=args.speed,
        )
    elif args.number == "degraded":
        figure = generator(
            robot_count=args.robots[0],
            seeds=tuple(args.seeds),
            sim_time_s=args.sim_time,
            store=store,
            max_workers=args.jobs,
            robot_speed_mps=args.speed,
        )
    elif args.number == "verification":
        figure = generator(
            robot_count=args.robots[0],
            seeds=tuple(args.seeds),
            sim_time_s=args.sim_time,
            store=store,
            max_workers=args.jobs,
            robot_speed_mps=args.speed,
            loss_rate=args.loss,
        )
    else:
        figure = generator(
            robot_counts=tuple(args.robots),
            seeds=tuple(args.seeds),
            store=store,
            max_workers=args.jobs,
            sim_time_s=args.sim_time,
            robot_speed_mps=args.speed,
            loss_rate=args.loss,
        )
    _cache_note(figure.sweep_result.cache, store)
    print(figure.render())
    if args.svg:
        from repro.viz import figure_to_svg

        y_labels = {
            "2": "average traveling distance per failure (m)",
            "3": "average number of hops per failure",
            "4": "transmissions for location update per failure",
            "degraded": "mean repair latency (s)",
            "resilience": "unrepaired failure fraction",
            "verification": "false dispatches per run",
        }
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(
                figure_to_svg(
                    figure,
                    y_label=y_labels.get(args.number, args.number),
                )
            )
        print(f"wrote {args.svg}")
    return 0 if figure.all_claims_hold else 1


def _command_ablate(args: argparse.Namespace) -> int:
    study = _ABLATIONS[args.study]
    store = _resolve_store(args)
    if args.study == "partition":  # multi-seed signature
        result = study(
            robot_count=args.robots,
            seeds=(args.seed,),
            store=store,
            max_workers=args.jobs,
            sim_time_s=args.sim_time,
            loss_rate=args.loss,
        )
    else:
        result = study(
            robot_count=args.robots,
            seed=args.seed,
            store=store,
            max_workers=args.jobs,
            sim_time_s=args.sim_time,
            loss_rate=args.loss,
        )
    print(result.table())
    return 0


_FAULT_TIMELINE_CATEGORIES = (
    "robot_fault",
    "robot_recovered",
    "manager_fault",
    "manager_recovered",
    "fault_detected",
    "manager_failover",
    "redispatch",
    "escalation",
    "orphaned",
    "net_fault",
    "net_fault_cleared",
    "suspicion",
    "suspicion_cleared",
    "probe",
    "probe_answered",
    "aborted_replacement",
    "false_replacement",
    "adaptive_mode",
    "coop_offer",
    "coop_claim",
    "coop_release",
    "coop_released",
    "reroute",
)


def _command_faults(args: argparse.Namespace) -> int:
    """Run a fault campaign and print the fault/recovery timeline."""
    if args.sweep_permanence:
        figure = figure_resilience_permanence(
            permanent_p_values=tuple(args.permanent_p),
            robot_mtbf_s=args.robot_mtbf or 6_000.0,
            robot_count=args.robots,
            seeds=(args.seed, args.seed + 1),
            sim_time_s=args.sim_time,
            robot_speed_mps=args.speed,
            loss_rate=args.loss,
        )
        print(figure.render())
        return 0 if figure.all_claims_hold else 1
    config = _config_from_args(args, args.algorithm)
    if not config.faults_enabled:
        # No faults requested: demo a default scripted campaign that
        # breaks the first robot halfway in (and kills the manager for
        # a while under the centralized algorithm).
        from repro.faults.script import FaultEvent, FaultKind

        half = config.sim_time_s / 2
        script = [
            FaultEvent(
                time=half,
                target="robot-00",
                kind=FaultKind.BREAKDOWN,
                duration=config.sim_time_s / 8,
            ),
            FaultEvent(
                time=half * 1.25,
                target="manager-00",
                kind=FaultKind.MANAGER_DOWN,
                duration=config.sim_time_s / 16,
            ),
        ]
        config = config.replace(fault_script=tuple(script))
    tracer = Tracer()
    recorder = RecordingSink()
    for category in _FAULT_TIMELINE_CATEGORIES:
        tracer.subscribe(category, recorder)
    runtime = ScenarioRuntime(config, tracer=tracer)
    print(f"running: {config.describe()}")
    report = runtime.run()
    print()
    print("fault timeline:")
    if not recorder.records:
        print("  (no fault events)")
    for record in recorder.records:
        fields = ", ".join(
            f"{key}={value}"
            for key, value in sorted(record.fields.items())
            if key != "time"
        )
        print(f"  t={record.time:9.1f}  {record.category:17s} {fields}")
    print()
    for line in report.summary_lines():
        print(" ", line)
    return 0


def _command_store(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    if args.action == "ls":
        rows = []
        for entry in store.entries():
            manifest = entry.manifest
            rows.append(
                [
                    entry.digest[:12],
                    entry.config.algorithm,
                    entry.config.robot_count,
                    entry.config.seed,
                    entry.schema,
                    manifest.get("duration_s", float("nan")),
                    manifest.get("package_version", "?"),
                ]
            )
        print(
            render_table(
                [
                    "digest",
                    "algorithm",
                    "robots",
                    "seed",
                    "schema",
                    "duration s",
                    "version",
                ],
                rows,
                title=f"{len(rows)} entr(y/ies) in {store.root}",
            )
        )
        for path, reason in store.quarantined:
            print(f"quarantined: {path} ({reason})", file=sys.stderr)
        return 0
    if args.action == "info":
        if not args.digest:
            print("store info: a digest (prefix) is required", file=sys.stderr)
            return 2
        matches = store.resolve_prefix(args.digest)
        if len(matches) != 1:
            print(
                f"store info: {args.digest!r} matches "
                f"{len(matches)} entries",
                file=sys.stderr,
            )
            return 2
        entry = store.load(matches[0])
        if entry is None:
            print(
                f"store info: entry {matches[0][:12]} failed validation "
                "and was quarantined",
                file=sys.stderr,
            )
            return 1
        print(f"digest:  {entry.digest}")
        print(f"path:    {store.object_path(entry.digest)}")
        for key in sorted(entry.manifest):
            print(f"{key}: {entry.manifest[key]}")
        print()
        for line in entry.report.summary_lines():
            print(" ", line)
        return 0
    if args.action == "gc":
        outcome = store.gc(
            max_bytes=args.max_bytes, max_entries=args.max_entries
        )
        note = ""
        if args.max_bytes is not None or args.max_entries is not None:
            note = (
                f", evicted {outcome.evicted} "
                f"(now {outcome.kept_bytes} bytes)"
            )
        print(
            f"gc {store.root}: kept {outcome.kept}, removed "
            f"{outcome.removed_stale} stale entr(y/ies) and "
            f"{outcome.removed_tmp} temp file(s), quarantined "
            f"{outcome.quarantined}{note}"
        )
        return 0
    # verify
    outcome = store.verify()
    print(
        f"verify {store.root}: {outcome.ok}/{outcome.checked} ok, "
        f"{len(outcome.stale)} stale, {len(outcome.corrupt)} corrupt"
    )
    for path, reason in outcome.corrupt:
        print(f"corrupt: {path} ({reason})", file=sys.stderr)
    return 0 if outcome.passed else 1


def _command_serve(args: argparse.Namespace) -> int:
    """Run the HTTP job API until interrupted."""
    from repro.service import RetryPolicy, serve

    store = RunStore(args.store)
    policy = RetryPolicy(
        max_retries=max(0, args.max_retries),
        job_timeout_s=args.job_timeout,
        queue_depth=args.queue_depth,
    )
    server = serve(
        store=store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=args.quiet,
        policy=policy,
    )
    # The announced line is machine-read by the CI smoke job (and by
    # anyone scripting against --port 0), so keep it one flushed line.
    print(
        f"serving on http://{args.host}:{server.port} "
        f"[store {store.root}, {args.workers} worker(s)]",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        server.server_close()
        server.queue.shutdown(wait=False)
    return 0


def _command_export(args: argparse.Namespace) -> int:
    """Render stored runs into one static dashboard JSON document."""
    import json

    from repro.service.export import export_runs

    store = RunStore(args.store)
    if args.all:
        entries = list(store.entries())
    elif not args.digests:
        print(
            "export: give entry digests (prefixes) or --all",
            file=sys.stderr,
        )
        return 2
    else:
        entries = []
        for prefix in args.digests:
            matches = store.resolve_prefix(prefix)
            if len(matches) != 1:
                print(
                    f"export: {prefix!r} matches {len(matches)} entries",
                    file=sys.stderr,
                )
                return 2
            entry = store.load(matches[0])
            if entry is None:
                print(
                    f"export: entry {matches[0][:12]} failed validation",
                    file=sys.stderr,
                )
                return 1
            entries.append(entry)
    document = export_runs(entries)
    text = json.dumps(
        document, sort_keys=True, indent=2, allow_nan=False
    )
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(
            f"export: wrote {document['count']} run(s) to {args.output}",
            file=sys.stderr,
        )
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    argv = [*args.paths, "--format", args.format, "--jobs", str(args.jobs)]
    if args.no_project:
        argv.append("--no-project")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _command_bench(args: argparse.Namespace) -> int:
    """Run the microbenchmark battery; merge into BENCH_results.json."""
    from repro.perf import merge_bench_results, run_benchmarks

    results = run_benchmarks(quick=args.quick)
    rows = [
        [name, f"{entry['throughput_per_s']:,.0f}"]
        for name, entry in sorted(results.items())
    ]
    print(
        render_table(
            ["bench", "throughput / s"],
            rows,
            title="hot-path microbenchmarks"
            + (" (quick scale)" if args.quick else ""),
        )
    )
    if args.output != "-":
        merge_bench_results(args.output, {"microbenchmarks": results})
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _command_params(_args: argparse.Namespace) -> int:
    config = paper_scenario(Algorithm.CENTRALIZED, 16)
    rows = [
        ["area per robot", "200 m x 200 m"],
        ["sensors per robot", config.sensors_per_robot],
        ["field @16 robots", f"{config.area_side_m:.0f} m square"],
        ["sensors @16 robots", config.sensor_count],
        ["robot speed", f"{config.robot_speed_mps} m/s"],
        ["sensor lifetime", f"Exp({config.mean_lifetime_s:.0f} s)"],
        ["simulation time", f"{config.sim_time_s:.0f} s"],
        ["beacon period", f"{config.beacon_period_s:.0f} s"],
        [
            "failure after",
            f"{config.missed_beacons_for_failure} missed beacons",
        ],
        ["update threshold", f"{config.update_threshold_m:.0f} m"],
        ["sensor radio", "63 m @ 11 Mbps"],
        ["robot/manager radio", "250 m @ 11 Mbps"],
    ]
    print(render_table(["parameter", "value"], rows, title="paper §4.1"))
    return 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "compare": _command_compare,
        "figure": _command_figure,
        "ablate": _command_ablate,
        "faults": _command_faults,
        "store": _command_store,
        "serve": _command_serve,
        "export": _command_export,
        "bench": _command_bench,
        "params": _command_params,
        "lint": _command_lint,
    }
    handler = handlers[args.command]
    if getattr(args, "profile", None):
        from repro.perf import profile_call

        return profile_call(lambda: handler(args), top=args.profile)
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
