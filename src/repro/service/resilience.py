"""Failure policy for the service: what to retry, when, and how to give up.

The queue and pool in :mod:`repro.service.queue` run the same
detect → verify → recover ladder the simulated robots apply to failed
sensors, applied to the service's own workers.  This module holds the
parts of that ladder that are policy rather than mechanics:

* the exceptions the service raises — :class:`ServiceUnavailable` and
  its refinements become ``503 + Retry-After`` at the HTTP layer;
  :class:`JobTimeoutError` marks an attempt that was cancelled and
  requeued;
* :data:`RETRYABLE_ERRORS` / :func:`is_retryable`, which split
  infrastructure failures (worth re-executing) from deterministic ones;
* :class:`RetryPolicy`: bounded attempts, **deterministic** exponential
  backoff (jitter drawn from a seeded
  :class:`~repro.sim.rng.RandomStreams` stream — no wall-clock
  randomness, simlint R1 applies to service code too), the per-job
  timeout, the lease grace, and the queue-depth cap;
* :func:`reconcile_stale_records`, which settles stale non-terminal
  records from a previous server life into ``failed`` (cause
  ``"server restart"``) — failed records are retryable, so the next
  submission re-runs them.

Because simulations are pure functions of their config, re-executing a
failed attempt is always semantically safe: a retried result is
byte-equivalent to a first-try result (the chaos tests pin this
against the trace-hash baselines).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import typing

from repro.sim.rng import RandomStreams
from repro.store import JobStatus, JobStore, RunStore
from repro.store.codec import JobRecord
from repro.store.provenance import wall_clock

__all__ = [
    "JobTimeoutError",
    "PoolUnavailable",
    "QueueDepthExceeded",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "ServiceUnavailable",
    "is_retryable",
    "reconcile_stale_records",
]


class ServiceUnavailable(Exception):
    """The service cannot accept this submission right now (HTTP 503).

    Carries the suggested client back-off so the API layer can answer
    with a ``Retry-After`` header.
    """

    def __init__(self, reason: str, retry_after_s: float = 1.0) -> None:
        super().__init__(reason)
        self.retry_after_s = retry_after_s


class QueueDepthExceeded(ServiceUnavailable):
    """Submission rejected: the in-flight queue is at its depth cap."""


class JobTimeoutError(TimeoutError):
    """An execution exceeded its time budget and was requeued."""


class PoolUnavailable(ServiceUnavailable):
    """The worker pool is broken and could not be rebuilt."""


#: Failure types worth re-executing: infrastructure died, not the
#: simulation.  ``OSError`` covers injected store IO faults and
#: :class:`JobTimeoutError` (a ``TimeoutError``); ``BrokenExecutor``
#: covers SIGKILLed/OOM-killed workers; ``CancelledError`` covers
#: futures cancelled by a pool teardown; :class:`ServiceUnavailable`
#: covers a dispatch that hit a momentarily-broken pool.  Everything
#: else (a ``ValueError`` from a bad config, a simulator bug) is
#: deterministic and would fail every retry identically.
RETRYABLE_ERRORS: typing.Tuple[typing.Type[BaseException], ...] = (
    concurrent.futures.BrokenExecutor,
    concurrent.futures.CancelledError,
    OSError,
    ServiceUnavailable,
)


def is_retryable(error: BaseException) -> bool:
    """True when re-executing after *error* could plausibly succeed."""
    return isinstance(error, RETRYABLE_ERRORS)


@dataclasses.dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How the job queue reacts to failures.  Immutable.

    Backoff for retry attempt ``n`` (the second execution is attempt 2)
    is ``base * factor**(n-2)`` capped at ``backoff_max_s``, stretched
    by a deterministic jitter in ``[0, jitter)`` drawn from a stream
    seeded by ``(seed, digest, n)`` — two servers with the same policy
    retry the same job on the same schedule, and nothing reads the wall
    clock to decide it.
    """

    #: Automatic re-executions after the first attempt (0 disables).
    max_retries: int = 2
    #: Delay before the first retry.
    backoff_base_s: float = 0.5
    #: Growth factor per further retry.
    backoff_factor: float = 2.0
    #: Upper bound on any single backoff delay.
    backoff_max_s: float = 30.0
    #: Jitter fraction in ``[0, 1]``: each delay is stretched by
    #: ``1 + jitter * u`` with ``u`` from the seeded stream.
    jitter: float = 0.1
    #: Seed for the backoff jitter streams.
    seed: int = 0
    #: Cancel-and-requeue budget per execution attempt; ``None``
    #: disables the watchdog.
    job_timeout_s: typing.Optional[float] = None
    #: Requeue a running job whose worker stopped renewing its lease
    #: for this long (the worker is alive-but-wedged or silently dead).
    lease_grace_s: float = 15.0
    #: Maximum simultaneously in-flight digests; ``None`` uncapped.
    queue_depth: typing.Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base_s <= 0.0 or self.backoff_max_s <= 0.0:
            raise ValueError("backoff bounds must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0.0:
            raise ValueError(
                f"job_timeout_s must be positive: {self.job_timeout_s}"
            )
        if self.lease_grace_s <= 0.0:
            raise ValueError(
                f"lease_grace_s must be positive: {self.lease_grace_s}"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1: {self.queue_depth}"
            )

    def backoff_s(self, digest: str, attempt: int) -> float:
        """Deterministic delay before dispatching *attempt* of *digest*."""
        exponent = max(0, attempt - 2)
        delay_s = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor**exponent,
        )
        if self.jitter > 0.0:
            stream = RandomStreams(self.seed).stream(
                f"backoff:{digest}:{attempt}"
            )
            delay_s *= 1.0 + self.jitter * stream.random()
        return delay_s

    def to_json_dict(self) -> typing.Dict[str, typing.Any]:
        """Policy knobs as a JSON-native dict (``/v1/service/stats``)."""
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# Startup reconciliation
# ----------------------------------------------------------------------
def reconcile_stale_records(
    store: RunStore,
    jobs: JobStore,
    cause: str = "server restart",
    skip: typing.Collection[str] = (),
) -> typing.List[JobRecord]:
    """Settle non-terminal records left behind by a dead server.

    A ``queued``/``running`` record with a store entry really finished
    (the result landed but the record save was lost) — it becomes
    ``done``.  One without an entry becomes ``failed`` with *cause*;
    failed records are retryable, so the next submission re-runs them.
    Returns the records that changed.
    """
    changed: typing.List[JobRecord] = []
    for record in jobs.records():
        if record.terminal or record.digest in skip:
            continue
        stamp = wall_clock()
        if store.load(record.digest) is not None:
            record.status = JobStatus.DONE
            record.error = None
        else:
            record.status = JobStatus.FAILED
            record.error = cause
        record.finished_unix = stamp
        jobs.save(record)
        changed.append(record)
    return changed

