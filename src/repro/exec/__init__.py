"""``repro.exec``: the fault-tolerant execution layer.

Everything that turns a sweep from "a bare ``Pool.map`` that dies with
its weakest worker" into supervised, resumable, testable execution:

:class:`SerialExecutor` / :class:`QueueExecutor`
    The two executors behind :func:`execute_items`, both driven by the
    session's :class:`~repro.api.runtime_config.RuntimeConfig`: a
    session runs its sweeps on the queue when its config sets
    ``parallel``, serially otherwise.  Serial runs items in-process
    with retries and backoff.
    The queue is the one parallel path: a durable filesystem work
    queue whose items are claimed via heartbeat leases by any number
    of cooperating worker processes -- spawned by the supervisor
    (each handed the session's config), or started on other machines
    with ``repro-frontend worker`` -- with stale-lease reclaim,
    first-writer-wins completion, poison-item quarantine, graceful
    serial degradation, and resume from the published results of a
    killed campaign.  Every queue file lands whole, and damaged ones
    are set aside as evidence, through :mod:`repro.durable`, the
    module the result store and the trace cache write through too.
:class:`ItemResult` / :class:`SweepReport` / :class:`SweepError`
    Every item finishes as a typed outcome; failed sweeps raise a
    structured failure report carrying the partial results.
:class:`FaultPlan`
    Deterministic fault injection (worker kills, transient exceptions,
    cache truncation, stale leases, double claims, slow heartbeats) at
    exact item indices, so every robustness claim above is asserted by
    tests rather than trusted.
"""

from repro.exec.executors import Executor, SerialExecutor, execute_items
from repro.exec.faults import (
    Fault,
    FaultPlan,
    InjectedFault,
    SimulatedWorkerDeath,
)
from repro.exec.queue import (
    QueueExecutor,
    QueueWorker,
    enqueue_campaign,
    item_key,
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
    "SweepError",
    "SweepReport",
    "enqueue_campaign",
    "execute_items",
    "item_key",
    "open_campaign",
    "queue_info",
    "serve_queue",
]
