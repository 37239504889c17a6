"""Executors: per-item dispatch with typed outcomes and retries.

Every sweep runs through one of two executors behind one interface:

* :class:`SerialExecutor` (``"serial"``) runs items in-process, in
  order, with the same retry and fault semantics as the queue, so the
  two stay bit-identical on success.  A failed item is retried at
  once, as a queue worker retries it on its next scan.
* :class:`~repro.exec.queue.QueueExecutor` (``"queue"``) is the one
  parallel path: it enqueues the sweep as a durable campaign and
  drains it with worker processes it spawns (entry point
  :func:`_worker_main`, which activates the config it is handed, so
  the worker's current config and current session are the sweep's),
  replacing dead ones, retrying failed items, quarantining poison
  items, and degrading to in-process draining when no worker can be
  spawned at all.

:meth:`repro.api.session.Session.map_report` picks one from its
session's ``parallel`` setting, and :func:`execute_items` is the one
entry point that runs a sweep into a
:class:`~repro.exec.results.SweepReport`.  Both executors take the
session's :class:`~repro.api.runtime_config.RuntimeConfig` as their
whole execution policy.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.api.runtime_config import RuntimeConfig, activated
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


class Executor:
    """Interface every executor implements."""

    #: Name quoted in sweep reports (``"serial"`` or ``"queue"``).
    name = "base"

    def run(
        self,
        worker: Callable,
        items: Sequence[Tuple[int, Any]],
        config: RuntimeConfig,
    ) -> RunOutcome:
        """Run ``worker`` over ``(index, args)`` items, one result each.

        ``config`` supplies the execution policy: retries, the fault
        plan and, on the queue, worker count, directory and TTL.
        """
        raise NotImplementedError


def _run_item_in_process(
    worker: Callable,
    index: int,
    args: Any,
    config: RuntimeConfig,
    plan: Optional[FaultPlan],
) -> ItemResult:
    """Serial execution of one item with full retry/fault semantics.

    ``kill`` faults surface as :class:`SimulatedWorkerDeath` (the
    in-process stand-in for a dead worker) and are retried exactly like
    a real worker death would be.
    """
    attempt = 1
    while True:
        try:
            if plan is not None:
                plan.fire(index, attempt, allow_exit=False)
            value = worker(args)
            return ItemResult(index, STATUS_OK, value=value, attempts=attempt)
        except SimulatedWorkerDeath as death:
            status, error = STATUS_WORKER_DEATH, describe_exception(death)
        except Exception as failure:
            status, error = STATUS_ERROR, describe_exception(failure)
        if attempt > config.retries:
            return ItemResult(index, status, error=error, attempts=attempt)
        attempt += 1


class SerialExecutor(Executor):
    """In-process execution, item by item, in order."""

    name = "serial"

    def run(self, worker, items, config):
        plan = FaultPlan.from_spec(config.fault_plan)
        results = [
            _run_item_in_process(worker, index, args, config, plan)
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
    under it, so its cache directories, budget and
    :func:`~repro.api.session.current_session` are the sweep's whatever
    the start method (a fork server never sees the supervisor's later
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
    config: RuntimeConfig,
    executor: Executor,
) -> SweepReport:
    """Run ``worker`` over ``arguments`` on ``executor``, item by item.

    ``config`` is the whole execution policy: retries, fault plan,
    worker count, queue directory and lease TTL.  Returns every
    item's typed outcome, in argument order.  On the queue executor a
    campaign killed mid-run resumes item by item: a rerun replays what
    was already published and runs only the rest.
    """
    outcome = executor.run(worker, list(enumerate(arguments)), config)
    return SweepReport(
        items=list(outcome.results),
        executor=executor.name,
        degraded=outcome.degraded,
    )
