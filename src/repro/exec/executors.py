"""Executors: per-item dispatch with typed outcomes and retries.

Every sweep runs through one of two executors behind one interface:

* :class:`SerialExecutor` (``"serial"``) runs items in-process, in
  order, with the same retry and fault semantics as the queue, so the
  two stay bit-identical on success.
* :class:`~repro.exec.queue.QueueExecutor` (``"queue"``) is the one
  parallel path: it enqueues the sweep as a durable campaign and
  drains it with worker processes it spawns (entry point
  :func:`_worker_main`, which runs under the config it is handed),
  replacing dead ones, retrying failed items, quarantining poison
  items, and degrading to in-process draining when no worker can be
  spawned at all.

:meth:`repro.api.session.Session.map_report` picks one from its
session's ``parallel`` setting, and :func:`execute_items` is the one
entry point that runs a sweep into a
:class:`~repro.exec.results.SweepReport`.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.api.runtime_config import activated
from repro.exec.faults import FaultPlan, SimulatedWorkerDeath
from repro.exec.results import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_WORKER_DEATH,
    ItemResult,
    SweepReport,
    describe_exception,
)

#: ``(results, degraded)`` -- what one executor run yields internally.
RunOutcome = namedtuple("RunOutcome", ["results", "degraded"])


class ExecutionSettingsError(ValueError):
    """An :class:`ExecutionSettings` knob is out of range.

    Raised at construction -- zero or negative delays and lease
    intervals used to slip through and misbehave deep inside a
    sweep; now they fail fast with a typed error.
    """


@dataclass(frozen=True)
class ExecutionSettings:
    """Everything an executor needs beyond the worker and its items."""

    #: Worker-process count (``None``: CPU count, capped by item count).
    processes: Optional[int] = None
    #: Transient-failure retries per item (0 disables retrying).
    retries: int = 2
    #: Base backoff delay between retries, in seconds.
    retry_delay: float = 0.05
    #: Deterministic fault plan injected into workers (tests/chaos).
    fault_plan: Optional[FaultPlan] = None
    #: Durable work-queue directory (``queue`` executor; ``None``: the
    #: config's queue directory, see
    #: :func:`repro.api.runtime_config.current_queue_dir`).
    queue_dir: Optional[str] = None
    #: Queue lease time-to-live in seconds (``queue`` executor).
    lease_ttl: float = 30.0
    #: Queue heartbeat renewal interval in seconds (< ``lease_ttl``).
    heartbeat_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ExecutionSettingsError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.retry_delay <= 0:
            raise ExecutionSettingsError(
                f"retry_delay must be positive, got {self.retry_delay!r}"
            )
        if self.lease_ttl <= 0:
            raise ExecutionSettingsError(
                f"lease_ttl must be positive, got {self.lease_ttl!r}"
            )
        if self.heartbeat_interval <= 0:
            raise ExecutionSettingsError(
                f"heartbeat_interval must be positive, "
                f"got {self.heartbeat_interval!r}"
            )
        if self.heartbeat_interval >= self.lease_ttl:
            raise ExecutionSettingsError(
                f"heartbeat_interval ({self.heartbeat_interval!r}) must be "
                f"smaller than lease_ttl ({self.lease_ttl!r})"
            )


def backoff_delay(settings: ExecutionSettings, index: int, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    ``retry_delay * 2^(attempt-1)``, jittered up to +25% by an RNG
    seeded from the item and attempt -- so reruns sleep identically
    (reproducible schedules) while concurrent retries still spread out.
    """
    if settings.retry_delay <= 0:
        return 0.0
    jitter = random.Random(f"repro-backoff:{index}:{attempt}").random()
    return settings.retry_delay * (2 ** (attempt - 1)) * (1.0 + 0.25 * jitter)


class Executor:
    """Interface every executor implements."""

    #: Name quoted in sweep reports (``"serial"`` or ``"queue"``).
    name = "base"

    def run(
        self,
        worker: Callable,
        items: Sequence[Tuple[int, Any]],
        settings: ExecutionSettings,
    ) -> RunOutcome:
        """Run ``worker`` over ``(index, args)`` items, one result each."""
        raise NotImplementedError


def _run_item_in_process(
    worker: Callable,
    index: int,
    args: Any,
    settings: ExecutionSettings,
) -> ItemResult:
    """Serial execution of one item with full retry/fault semantics.

    ``kill`` faults surface as :class:`SimulatedWorkerDeath` (the
    in-process stand-in for a dead worker) and are retried exactly like
    a real worker death would be.
    """
    attempt = 1
    while True:
        try:
            if settings.fault_plan is not None:
                settings.fault_plan.fire(index, attempt, allow_exit=False)
            value = worker(args)
            return ItemResult(index, STATUS_OK, value=value, attempts=attempt)
        except SimulatedWorkerDeath as death:
            status, error = STATUS_WORKER_DEATH, describe_exception(death)
        except Exception as failure:
            status, error = STATUS_ERROR, describe_exception(failure)
        if attempt > settings.retries:
            return ItemResult(index, status, error=error, attempts=attempt)
        time.sleep(backoff_delay(settings, index, attempt))
        attempt += 1


class SerialExecutor(Executor):
    """In-process execution, item by item, in order."""

    name = "serial"

    def run(self, worker, items, settings):
        results = [
            _run_item_in_process(worker, index, args, settings)
            for index, args in items
        ]
        return RunOutcome(results, False)


def _worker_main(worker, root: str, parent_pid: int, announce, config) -> None:
    """Entry point of a queue worker process spawned by the queue executor.

    Drains the campaign at ``root`` with ``worker`` and exits when it is
    resolved or its supervisor (``parent_pid``) dies.  ``announce`` is
    the write end of the supervisor's pipe: the worker sends each item
    name on it after publishing the item's outcome, so the supervisor
    wakes on publication instead of polling the ``done/`` directory.
    ``config`` is the supervisor's
    :class:`~repro.api.runtime_config.RuntimeConfig`; the worker runs
    under it, so its cache directories are the sweep's whatever the
    start method (a fork server never sees the supervisor's later
    state).
    """
    from repro.exec.queue import QueueWorker, open_campaign

    with activated(config):
        try:
            campaign = open_campaign(root, worker=worker)
        except (OSError, ValueError):
            return
        QueueWorker(
            campaign, allow_exit=True, parent_pid=parent_pid, announce=announce
        ).drain()


def execute_items(
    worker: Callable,
    arguments: Sequence,
    settings: ExecutionSettings,
    executor: Executor,
) -> SweepReport:
    """Run ``worker`` over ``arguments`` on ``executor``, item by item.

    Returns every item's typed outcome, in argument order.  On the
    queue executor a campaign killed mid-run resumes item by item: a
    rerun replays what was already published and runs only the rest.
    """
    outcome = executor.run(worker, list(enumerate(arguments)), settings)
    return SweepReport(
        items=list(outcome.results),
        executor=executor.name,
        degraded=outcome.degraded,
    )
