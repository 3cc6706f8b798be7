"""Simulation-as-a-service: HTTP job API over the content-addressed store.

``repro.service`` turns the simulator into a long-running service: a
zero-dependency HTTP API (:mod:`repro.service.api`) accepting
``ScenarioConfig`` JSON, one job queue over a process-backed
worker pool with **single-flight dedup** (:mod:`repro.service.queue`
— identical concurrent configs coalesce into one execution, keyed by
the canonical config digest), and a static JSON exporter
(:mod:`repro.service.export`) rendering finished runs into
dashboard-friendly documents.

The queue and pool are supervised: dead workers rebuild the pool,
failed-retryable jobs re-execute with deterministic backoff, hung jobs
are cancelled and requeued, and overload degrades to
``503 + Retry-After`` instead of falling over.  The failure policy —
retry policy, retryable errors, exceptions, startup reconciliation —
lives in :mod:`repro.service.resilience`; :mod:`repro.service.chaos`
is the matching fault-injection harness.

Start it with ``repro-sim serve``; talk to it with
:class:`repro.service.client.ServiceClient` or plain curl.  The full
API reference lives in ``docs/SERVICE.md``.
"""

from repro.service.api import ServiceHandler, ServiceServer, serve
from repro.service.chaos import (
    ChaosPlan,
    FlakyStore,
    WorkerCrash,
    chaos_runner,
    kill_one_worker,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.export import (
    EXPORT_SCHEMA_VERSION,
    export_entry,
    export_runs,
)
from repro.service.queue import (
    JobQueue,
    ServiceCounters,
    SubmitOutcome,
    WorkerPool,
    execute_job,
    reconcile_queue,
    worker_identity,
)
from repro.service.resilience import (
    JobTimeoutError,
    PoolUnavailable,
    QueueDepthExceeded,
    RetryPolicy,
    ServiceUnavailable,
    is_retryable,
    reconcile_stale_records,
)

__all__ = [
    "ChaosPlan",
    "EXPORT_SCHEMA_VERSION",
    "FlakyStore",
    "JobQueue",
    "JobTimeoutError",
    "PoolUnavailable",
    "QueueDepthExceeded",
    "RetryPolicy",
    "ServiceClient",
    "ServiceCounters",
    "ServiceError",
    "ServiceHandler",
    "ServiceServer",
    "ServiceUnavailable",
    "SubmitOutcome",
    "WorkerCrash",
    "WorkerPool",
    "chaos_runner",
    "execute_job",
    "export_entry",
    "export_runs",
    "is_retryable",
    "kill_one_worker",
    "reconcile_queue",
    "reconcile_stale_records",
    "serve",
    "worker_identity",
]
