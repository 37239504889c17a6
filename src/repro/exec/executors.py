"""Supervised executors: per-item dispatch, retries, and worker care.

This module replaces the bare ``multiprocessing.Pool.map`` behind every
sweep with executors that treat each item as its own unit of work:

* :class:`SerialExecutor` runs items in-process (the historical serial
  path), with the same retry/fault semantics as the pool so the two
  modes stay bit-identical on success.
* :class:`SupervisedProcessExecutor` owns N worker processes directly
  (a private task pipe and result pipe per worker -- no shared locks a
  dying worker could wedge) and supervises them: a crashed worker is
  detected and replaced and its item retried;
  a hung item is killed at the per-item timeout and reported as such;
  transient exceptions retry with exponential backoff plus
  deterministic jitter; and when the pool itself cannot be built the
  run degrades to serial in-process execution instead of failing.

Executors are looked up by name through :func:`resolve_executor` --
``"serial"``, ``"processes"``, or ``"queue"`` (the durable work queue
of :mod:`repro.exec.queue`).

Every item ends as an :class:`~repro.exec.results.ItemResult`;
:func:`execute_items` is the one entry point that combines journal
replay (checkpoint/resume), executor dispatch, and journaling of fresh
results into a :class:`~repro.exec.results.SweepReport`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import random
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec import journal as journal_module
from repro.exec.faults import FaultPlan, SimulatedWorkerDeath
from repro.exec.results import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REPLAYED,
    STATUS_TIMEOUT,
    STATUS_WORKER_DEATH,
    ItemResult,
    SweepReport,
    describe_exception,
)

#: Supervisor poll interval: how often worker health and per-item
#: deadlines are checked while waiting for results.
SUPERVISOR_TICK = 0.05

#: ``(results, degraded)`` -- what one executor run yields internally.
RunOutcome = namedtuple("RunOutcome", ["results", "degraded"])


class ExecutionSettingsError(ValueError):
    """An :class:`ExecutionSettings` knob is out of range.

    Raised at construction -- zero or negative timeouts, delays, and
    lease intervals used to slip through and misbehave deep inside a
    sweep; now they fail fast with a typed error.
    """


@dataclass(frozen=True)
class ExecutionSettings:
    """Everything an executor needs beyond the worker and its items."""

    #: Worker-process count (``None``: CPU count, capped by item count).
    processes: Optional[int] = None
    #: Transient-failure retries per item (0 disables retrying).
    retries: int = 2
    #: Per-item wall-clock timeout in seconds (``None``: unlimited).
    #: Enforced by the process executor only -- in-process execution
    #: cannot preempt a hung item.
    item_timeout: Optional[float] = None
    #: Base backoff delay between retries, in seconds.
    retry_delay: float = 0.05
    #: Deterministic fault plan injected into workers (tests/chaos).
    fault_plan: Optional[FaultPlan] = None
    #: Durable work-queue directory (``queue`` executor; ``None``: a
    #: private per-campaign temporary directory).
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
        if self.item_timeout is not None and self.item_timeout <= 0:
            raise ExecutionSettingsError(
                f"item_timeout must be positive (or None for unlimited), "
                f"got {self.item_timeout!r}"
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
    """Interface every executor implements (see :func:`resolve_executor`)."""

    #: Registry name, quoted in sweep reports.
    name = "base"

    def run(
        self,
        worker: Callable,
        items: Sequence[Tuple[int, Any]],
        settings: ExecutionSettings,
        on_result: Optional[Callable[[ItemResult], None]] = None,
    ) -> RunOutcome:
        """Run ``worker`` over ``(index, args)`` items, one result each.

        ``on_result`` (when given) is invoked with each item's final
        :class:`ItemResult` *the moment it is resolved* -- this is the
        checkpointing hook: the journal records successes incrementally
        through it, so a sweep killed mid-run keeps every item that had
        already finished.
        """
        raise NotImplementedError


def _run_item_in_process(
    worker: Callable,
    index: int,
    args: Any,
    settings: ExecutionSettings,
    first_attempt: int = 1,
) -> ItemResult:
    """Serial execution of one item with full retry/fault semantics.

    ``kill`` faults surface as :class:`SimulatedWorkerDeath` (the
    in-process stand-in for a dead worker) and are retried exactly like
    a real worker death would be.
    """
    attempt = first_attempt
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

    def run(self, worker, items, settings, on_result=None):
        results = []
        for index, args in items:
            result = _run_item_in_process(worker, index, args, settings)
            _notify(on_result, result)
            results.append(result)
        return RunOutcome(results, False)


def _worker_main(worker, plan_json, task_conn, result_conn, parent_conns=()) -> None:
    """Loop of one supervised worker process.

    Tasks are ``(index, attempt, args)``; replies are ``(index,
    attempt, status, payload)`` where a success payload is the item's
    value.  ``Connection.send`` pickles synchronously in this thread
    (no feeder thread a dying sibling could wedge), so an unpicklable
    result raises right here and is reported as an error.

    ``parent_conns`` are the supervisor-side pipe ends this process
    inherited at spawn.  They must be closed *here*: otherwise this
    worker's own duplicate of the task pipe's write end would keep the
    pipe open forever, and a supervisor death (crash, SIGKILL) would
    leave the worker blocked in ``recv`` as an orphan instead of
    reading EOF and exiting.
    """
    for conn in parent_conns:
        try:
            conn.close()
        except OSError:
            pass
    plan = FaultPlan.from_json(plan_json) if plan_json else None
    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index, attempt, args = task
        try:
            if plan is not None:
                plan.fire(index, attempt, allow_exit=True)
            result_conn.send((index, attempt, STATUS_OK, worker(args)))
        except Exception as failure:
            try:
                result_conn.send(
                    (index, attempt, STATUS_ERROR, describe_exception(failure))
                )
            except (OSError, ValueError):
                return


class _WorkerHandle:
    """One supervised worker process plus its private task/result pipes.

    A pipe per worker means no lock is ever shared across workers: a
    worker dying hard (``os._exit``, SIGKILL, OOM) can at worst tear
    its *own* pipe -- which the supervisor reads as an ``EOFError`` and
    resolves through the normal dead-worker path -- and can never block
    another worker's result delivery.
    """

    def __init__(self, ctx, worker, plan_json) -> None:
        task_recv, self.task_conn = ctx.Pipe(duplex=False)
        self.result_conn, result_send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                worker,
                plan_json,
                task_recv,
                result_send,
                (self.task_conn, self.result_conn),
            ),
            daemon=True,
        )
        self.process.start()
        # The parent's copies of the child-side ends: close them so a
        # dead worker surfaces as EOF on result_conn.
        task_recv.close()
        result_send.close()
        #: ``(index, attempt)`` in flight, or ``None`` when idle.
        self.item: Optional[Tuple[int, int]] = None
        #: Monotonic deadline of the in-flight item, or ``None``.
        self.deadline: Optional[float] = None

    def assign(self, index: int, attempt: int, args: Any, timeout: Optional[float]) -> None:
        self.item = (index, attempt)
        self.deadline = (time.monotonic() + timeout) if timeout is not None else None
        self.task_conn.send((index, attempt, args))

    def close(self) -> None:
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:
                pass


def _start_worker(ctx, worker, plan_json) -> _WorkerHandle:
    """Spawn one worker (module-level so tests can break the pool)."""
    return _WorkerHandle(ctx, worker, plan_json)


class SupervisedProcessExecutor(Executor):
    """Per-item dispatch over directly supervised worker processes.

    Unlike ``Pool.map`` -- where one crashed or hung worker aborts (or
    wedges) the whole sweep and discards every completed item -- the
    supervisor knows which item every worker holds, so it can replace
    dead workers, kill and report hung items, retry transient failures,
    and always account for every item.  When no worker can be spawned
    at all, the remaining items run serially in-process (``degraded``).
    """

    name = "processes"

    def run(self, worker, items, settings, on_result=None):
        items = list(items)
        if not items:
            return RunOutcome([], False)
        count = settings.processes
        if count is None:
            count = os.cpu_count() or 1
        count = max(1, min(int(count), len(items)))
        ctx = multiprocessing.get_context()
        plan_json = (
            settings.fault_plan.to_json() if settings.fault_plan is not None else None
        )
        supervisor = _Supervisor(worker, plan_json, ctx, settings, count, on_result)
        try:
            return supervisor.run(items)
        finally:
            supervisor.shutdown()


def _notify(on_result, result: ItemResult) -> None:
    """Deliver one resolved item to the caller's checkpoint hook.

    The hook is an optimisation (journaling), never a failure: an
    exception inside it must not take down an otherwise healthy sweep.
    """
    if on_result is None:
        return
    try:
        on_result(result)
    except Exception:
        pass


class _Supervisor:
    """The event loop behind :class:`SupervisedProcessExecutor`."""

    def __init__(self, worker, plan_json, ctx, settings, count, on_result=None) -> None:
        self.worker = worker
        self.plan_json = plan_json
        self.ctx = ctx
        self.settings = settings
        self.count = count
        self.on_result = on_result
        self.workers: List[_WorkerHandle] = []
        self.args: Dict[int, Any] = {}
        #: ``(index, attempt, ready_at)`` waiting for a worker.
        self.pending: List[Tuple[int, int, float]] = []
        self.results: Dict[int, ItemResult] = {}
        self.degraded = False

    def run(self, items: Sequence[Tuple[int, Any]]) -> RunOutcome:
        order = [index for index, _ in items]
        for index, args in items:
            self.args[index] = args
            self.pending.append((index, 1, 0.0))
        for _ in range(self.count):
            self._spawn()
        while len(self.results) < len(order):
            if not self.workers and not self._spawn():
                # The pool is broken beyond repair: no worker alive and
                # none spawnable.  Finish everything unresolved
                # serially so the sweep still returns complete results.
                return self._degrade(order)
            self._assign()
            self._drain()
            self._check_health()
        return RunOutcome([self.results[index] for index in order], self.degraded)

    # -- worker lifecycle --------------------------------------------

    def _spawn(self) -> bool:
        try:
            handle = _start_worker(self.ctx, self.worker, self.plan_json)
        except Exception:
            return False
        self.workers.append(handle)
        return True

    def _retire(self, handle: _WorkerHandle, kill: bool = False) -> None:
        self.workers.remove(handle)
        if kill and handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=1.0)
        handle.close()

    def _degrade(self, order: Sequence[int]) -> RunOutcome:
        self.degraded = True
        unresolved = [
            (index, self._attempt_of(index), self.args[index])
            for index in order
            if index not in self.results
        ]
        for index, attempt, args in unresolved:
            self._finish(
                _run_item_in_process(self.worker, index, args, self.settings, attempt)
            )
        return RunOutcome([self.results[index] for index in order], True)

    def _attempt_of(self, index: int) -> int:
        for pending_index, attempt, _ in self.pending:
            if pending_index == index:
                return attempt
        return 1

    def _finish(self, result: ItemResult) -> None:
        """Record one item's final verdict and checkpoint it."""
        self.results[result.index] = result
        _notify(self.on_result, result)

    # -- the event loop ----------------------------------------------

    def _assign(self) -> None:
        now = time.monotonic()
        for handle in list(self.workers):
            if handle.item is not None or not self.pending:
                continue
            if not handle.process.is_alive():
                # An idle worker died (e.g. a kill fault fired after
                # its reply was queued): replace it before assigning.
                self._retire(handle)
                if not self._spawn():
                    continue
                handle = self.workers[-1]
            slot = next(
                (
                    position
                    for position, (_, _, ready_at) in enumerate(self.pending)
                    if ready_at <= now
                ),
                None,
            )
            if slot is None:
                return
            index, attempt, _ = self.pending.pop(slot)
            try:
                handle.assign(
                    index, attempt, self.args[index], self.settings.item_timeout
                )
            except (OSError, ValueError):
                # The worker died between the liveness check and the
                # send: put the item back untouched and replace the
                # worker through the normal retirement path.
                handle.item = None
                handle.deadline = None
                self.pending.insert(0, (index, attempt, now))
                self._retire(handle)
                self._spawn()

    def _drain(self) -> None:
        busy = {
            handle.result_conn: handle
            for handle in self.workers
            if handle.item is not None
        }
        ready = multiprocessing.connection.wait(
            list(busy), timeout=SUPERVISOR_TICK
        )
        for conn in ready:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                continue  # A torn pipe: _check_health resolves the death.
            self._handle_message(busy[conn], message)

    def _handle_message(self, handle: _WorkerHandle, message) -> None:
        index, attempt, status, payload = message
        if handle.item == (index, attempt):
            handle.item = None
            handle.deadline = None
        if index in self.results:
            return  # Already resolved (e.g. timed out); verdict stands.
        if status == STATUS_OK:
            self._finish(ItemResult(index, STATUS_OK, value=payload, attempts=attempt))
            return
        self._retry_or_fail(index, attempt, status, payload)

    def _retry_or_fail(self, index: int, attempt: int, status: str, error: str) -> None:
        if attempt <= self.settings.retries:
            ready_at = time.monotonic() + backoff_delay(self.settings, index, attempt)
            self.pending.append((index, attempt + 1, ready_at))
        else:
            self._finish(ItemResult(index, status, error=error, attempts=attempt))

    def _check_health(self) -> None:
        now = time.monotonic()
        for handle in list(self.workers):
            if handle.item is None:
                continue
            index, attempt = handle.item
            if not handle.process.is_alive():
                exitcode = handle.process.exitcode
                self._retire(handle)
                self._retry_or_fail(
                    index,
                    attempt,
                    STATUS_WORKER_DEATH,
                    f"worker process died (exitcode {exitcode}) "
                    f"while running item {index}",
                )
                self._spawn()
            elif handle.deadline is not None and now > handle.deadline:
                self._retire(handle, kill=True)
                self._finish(
                    ItemResult(
                        index,
                        STATUS_TIMEOUT,
                        error=(
                            f"item exceeded the per-item timeout of "
                            f"{self.settings.item_timeout}s and its worker was killed"
                        ),
                        attempts=attempt,
                    )
                )
                self._spawn()

    def shutdown(self) -> None:
        for handle in self.workers:
            try:
                handle.task_conn.send(None)
            except (OSError, ValueError):
                pass
        for handle in self.workers:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=0.5)
            handle.close()
        self.workers.clear()


def resolve_executor(name: str) -> Executor:
    """Instantiate the executor named ``serial``, ``processes`` or ``queue``."""
    if name == "serial":
        return SerialExecutor()
    if name == "processes":
        return SupervisedProcessExecutor()
    if name == "queue":
        from repro.exec.queue import QueueExecutor

        return QueueExecutor()
    raise ValueError(
        f"unknown executor {name!r}; expected one of serial, processes, queue"
    )


def execute_items(
    worker: Callable,
    arguments: Sequence,
    settings: ExecutionSettings,
    executor: Executor,
    journal: Optional[journal_module.SweepJournal] = None,
) -> SweepReport:
    """Run a sweep: journal replay + supervised execution + journaling.

    With a journal, previously completed items are replayed from disk
    (status ``"replayed"``, bit-identical values via pickle) and only
    the missing ones are dispatched; every fresh success is journaled
    the moment its result reaches the supervisor (the executors'
    ``on_result`` hook), so a kill at any point loses at most the
    in-flight items.
    """
    arguments = list(arguments)
    order = list(range(len(arguments)))
    replayed: Dict[int, ItemResult] = {}
    keys: Dict[int, str] = {}
    if journal is not None:
        stored = journal.load()
        for index in order:
            key = journal_module.item_key(worker, index, arguments[index])
            keys[index] = key
            if key in stored:
                replayed[index] = ItemResult(
                    index, STATUS_REPLAYED, value=stored[key], attempts=0
                )
        journal_module.count_replays(len(replayed))

    def checkpoint(result: ItemResult) -> None:
        if result.status == STATUS_OK:
            journal.record(keys[result.index], result.value)

    remaining = [(index, arguments[index]) for index in order if index not in replayed]
    if remaining:
        hook = checkpoint if journal is not None else None
        outcome = executor.run(worker, remaining, settings, hook)
    else:
        outcome = RunOutcome([], False)
    merged: Dict[int, ItemResult] = dict(replayed)
    for result in outcome.results:
        merged[result.index] = result
    return SweepReport(
        items=[merged[index] for index in order],
        executor=executor.name,
        degraded=outcome.degraded,
    )
