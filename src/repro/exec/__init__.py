"""``repro.exec``: the fault-tolerant execution layer.

Everything that turns a sweep from "a bare ``Pool.map`` that dies with
its weakest worker" into supervised, resumable, testable execution:

:class:`SerialExecutor` / :class:`SupervisedProcessExecutor`
    Per-item dispatch with typed outcomes, retries with backoff,
    worker replacement, per-item timeouts, and graceful serial
    degradation.  Selected by ``RuntimeConfig.executor`` (``"serial"``
    or ``"processes"``; ``"auto"`` picks by parallelism).
:class:`ItemResult` / :class:`SweepReport` / :class:`SweepError`
    Every item finishes as a typed outcome; failed sweeps raise a
    structured failure report carrying the partial results.
:class:`SweepJournal`
    Per-item checkpoints under a content-addressed scope, so a killed
    sweep resumes replaying only the missing items.
:class:`FaultPlan`
    Deterministic fault injection (worker kills, transient exceptions,
    hangs, cache truncation, stale leases, double claims) at exact
    item indices, so every robustness claim above is asserted by tests
    rather than trusted.
:class:`QueueExecutor`
    The durable filesystem work queue (``executor = "queue"``): items
    claimed via heartbeat leases by any number of cooperating worker
    processes -- local or started on other machines with
    ``repro-frontend worker`` -- with stale-lease reclaim,
    first-writer-wins completion, and poison-item quarantine.
"""

from repro.exec.executors import (
    ExecutionSettings,
    ExecutionSettingsError,
    Executor,
    SerialExecutor,
    SupervisedProcessExecutor,
    execute_items,
    resolve_executor,
)
from repro.exec.faults import (
    Fault,
    FaultPlan,
    InjectedFault,
    SimulatedWorkerDeath,
)
from repro.exec.journal import (
    SweepJournal,
    active_journal_scope,
    item_key,
    journal_for_scope,
    journal_info,
    journal_scope,
    quarantine_entry,
)
from repro.exec.queue import (
    QueueExecutor,
    QueueWorker,
    enqueue_campaign,
    open_campaign,
    queue_info,
    serve_queue,
)
from repro.exec.results import (
    ITEM_STATUSES,
    ItemResult,
    SweepError,
    SweepReport,
)

__all__ = [
    "ExecutionSettings",
    "ExecutionSettingsError",
    "Executor",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "ITEM_STATUSES",
    "ItemResult",
    "QueueExecutor",
    "QueueWorker",
    "SerialExecutor",
    "SimulatedWorkerDeath",
    "SupervisedProcessExecutor",
    "SweepError",
    "SweepJournal",
    "SweepReport",
    "active_journal_scope",
    "enqueue_campaign",
    "execute_items",
    "item_key",
    "journal_for_scope",
    "journal_info",
    "journal_scope",
    "open_campaign",
    "quarantine_entry",
    "queue_info",
    "resolve_executor",
    "serve_queue",
]
