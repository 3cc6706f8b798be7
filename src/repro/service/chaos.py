"""Deterministic fault injection for the service layer.

The simulator already has a rich fault story (``repro.faults``) — this
module is the same idea aimed at the service itself: kill a worker
mid-job, crash an attempt, wedge it, or make the result store's disk
misbehave, all on a **deterministic schedule** (attempt counts, not
wall-clock randomness) so chaos tests replay identically.

Two injection points:

* :func:`chaos_runner` wraps the real worker entrypoint
  (:func:`~repro.service.queue.execute_job`) with a
  :class:`ChaosPlan`: the first ``kill_first`` attempts of a digest
  SIGKILL their own worker process mid-job (the parent sees
  ``BrokenProcessPool`` — the real failure mode of an OOM kill), the
  next ``fail_first`` raise :class:`WorkerCrash`, the next
  ``hang_first`` sleep far past any sane job timeout.  The attempt
  number is read from the persisted job record, so the schedule
  survives process boundaries.
* :class:`FlakyStore` is a :class:`~repro.store.RunStore` whose first
  ``fail_puts`` writes raise ``OSError`` (loud — the job queue
  retries the job) and whose first ``fail_loads`` reads degrade to
  misses (quiet — mirroring ``RunStore``'s own handling of read
  errors).

Used by ``tests/integration/test_service_chaos.py`` and the
``chaos-service`` CI job, which prove that every submitted job reaches
a terminal state and that retried results stay byte-equivalent to the
trace-hash baselines.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import signal
import time
import typing

from repro.deploy.scenario import ScenarioConfig
from repro.metrics.collector import RunReport
from repro.service.queue import Runner, execute_job
from repro.store import JobStore, RunStore, StoreEntry
from repro.store.keys import config_digest

__all__ = [
    "ChaosPlan",
    "FlakyStore",
    "WorkerCrash",
    "chaos_runner",
    "kill_one_worker",
]


class WorkerCrash(OSError):
    """An injected worker failure (retryable by classification)."""


@dataclasses.dataclass(frozen=True, slots=True)
class ChaosPlan:
    """Which attempts of a digest misbehave, and how.

    Effects are laddered by attempt number: attempts
    ``1..kill_first`` die by SIGKILL, the next ``fail_first`` raise
    :class:`WorkerCrash`, the next ``hang_first`` sleep ``hang_s``
    seconds, and everything after runs normally.  With
    ``only_digest`` set, other digests are untouched.
    """

    #: Attempts that SIGKILL their own worker process mid-job.  In a
    #: thread-based executor (same pid as the parent) this degrades to
    #: a :class:`WorkerCrash` raise — killing the test process would
    #: be a little too chaotic.
    kill_first: int = 0
    #: Attempts (after the kills) that raise :class:`WorkerCrash`.
    fail_first: int = 0
    #: Attempts (after the crashes) that hang for ``hang_s``.
    hang_first: int = 0
    #: How long a hung attempt sleeps.
    hang_s: float = 3600.0
    #: Restrict the chaos to one digest (``None`` = all digests).
    only_digest: typing.Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("kill_first", "fail_first", "hang_first"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.hang_s <= 0.0:
            raise ValueError(f"hang_s must be positive: {self.hang_s}")


def chaos_runner(
    plan: ChaosPlan, runner: Runner = execute_job
) -> Runner:
    """A picklable runner applying *plan* before delegating to *runner*.

    Safe to hand to a ``spawn``-context process pool: the plan, the
    parent pid, and the inner runner all pickle (the inner runner must
    be a module-level function).
    """
    return typing.cast(
        Runner,
        functools.partial(_chaos_execute, plan, os.getpid(), runner),
    )


def _chaos_execute(
    plan: ChaosPlan,
    parent_pid: int,
    runner: Runner,
    config: ScenarioConfig,
    store_root: str,
) -> typing.Tuple[RunReport, float, str]:
    """Worker-side entrypoint: misbehave per *plan*, else run for real."""
    digest = config_digest(config)
    if plan.only_digest is not None and digest != plan.only_digest:
        return runner(config, store_root)
    record = JobStore(store_root).load(digest)
    attempt = record.attempts if record is not None else 1
    if attempt <= plan.kill_first:
        if os.getpid() != parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        raise WorkerCrash(
            f"injected worker death (attempt {attempt}, in-process)"
        )
    if attempt <= plan.kill_first + plan.fail_first:
        raise WorkerCrash(f"injected worker crash (attempt {attempt})")
    if attempt <= plan.kill_first + plan.fail_first + plan.hang_first:
        time.sleep(plan.hang_s)
    return runner(config, store_root)


class FlakyStore(RunStore):
    """A :class:`RunStore` whose disk misbehaves on a fixed schedule.

    The first *fail_puts* calls to :meth:`put` raise ``OSError``; the
    first *fail_loads* calls to :meth:`load` answer ``None`` (a miss),
    matching how the real store degrades on unreadable files.  The
    counters are deliberately approximate under concurrency — chaos
    schedules only need "roughly the first N", not exact attribution.
    """

    def __init__(
        self,
        root: typing.Optional[typing.Union[str, os.PathLike]] = None,
        fail_puts: int = 0,
        fail_loads: int = 0,
    ) -> None:
        super().__init__(root)
        self.fail_puts = fail_puts
        self.fail_loads = fail_loads
        self.failed_puts = 0
        self.failed_loads = 0

    def put(
        self,
        config: ScenarioConfig,
        report: RunReport,
        duration_s: float = float("nan"),
    ) -> str:
        if self.failed_puts < self.fail_puts:
            self.failed_puts += 1
            raise OSError(
                f"injected store write fault ({self.failed_puts}"
                f"/{self.fail_puts})"
            )
        return super().put(config, report, duration_s=duration_s)

    def load(self, digest: str) -> typing.Optional[StoreEntry]:
        if self.failed_loads < self.fail_loads:
            self.failed_loads += 1
            return None
        return super().load(digest)


def kill_one_worker(
    executor: typing.Any, sig: int = signal.SIGKILL
) -> typing.Optional[int]:
    """SIGKILL one live worker of a ``ProcessPoolExecutor``.

    Reaches into the executor's private process table — acceptable for
    a chaos harness, useless against thread pools (returns ``None``).
    Returns the pid killed, or ``None`` when there was nothing to kill.
    """
    processes = getattr(executor, "_processes", None)
    if not processes:
        return None
    for pid, process in sorted(processes.items()):
        if process.is_alive():
            os.kill(pid, sig)
            return int(pid)
    return None
