"""Durable filesystem work queue: the distributed sweep backend.

A campaign is enqueued as one item file per work unit under a campaign
directory; any number of cooperating worker processes -- spawned by the
supervising :class:`QueueExecutor` or started externally on any machine
that mounts the queue directory (``repro-frontend worker --queue-dir``)
-- claim items with lease files, renew heartbeats while running, and
publish results with first-writer-wins compare-and-swap.  Everything is
plain files, each written whole through :mod:`repro.durable`, and
atomic renames: no broker, no sockets, no locks a dead worker could
wedge.

On-disk layout of one campaign::

    <queue_dir>/campaign-<digest>/
        campaign.json            # worker ref, totals, retries, lease TTL, faults
        items/<name>.item        # one pending work unit (pickle)
        leases/<name>.lease      # the claim + heartbeat of one item
        done/<name>.result       # the published outcome (pickle)
        done/<name>.conflict*    # quarantined conflicting publications
        deaths/<name>            # append-only per-item failure ledger
        poison/<name>.json       # typed report of a quarantined item

Robustness properties, each deterministically testable through the
``stale-lease`` / ``double-claim`` / ``slow-heartbeat`` fault kinds of
:mod:`repro.exec.faults`:

* A worker SIGKILLed mid-item leaves a lease that stops heartbeating;
  the reaper (every worker and the supervisor run one) reclaims it and
  the item is retried -- instantly when the dead pid is local, after
  the lease TTL otherwise.
* Double completion (a reclaimed-but-alive worker finishing anyway) is
  resolved first-writer-wins: the loser's identical publication counts
  as a duplicate, a *different* one is quarantined as ``.conflict``
  evidence and counted, never silently clobbered.
* An item whose worker dies more often than the retry budget is moved
  to ``poison/`` with a typed report and published as a ``poison``
  result, so one bad item can never wedge a campaign.
* The campaign directory is content-addressed from the package source
  and the item keys, so a killed supervisor resumed from *any* process
  running the same code re-derives the same campaign, replays the
  published successes, and re-runs only the rest -- failed items
  included, whose outcomes are set aside as ``*.failed`` evidence.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import durable
from repro.api import runtime_config
from repro.counters import Counters
from repro.exec import leases
from repro.exec.executors import Executor, RunOutcome, _worker_main
from repro.exec.faults import (
    QUEUE_FAULT_KINDS,
    FaultPlan,
    KILL_EXIT_CODE,
    SimulatedWorkerDeath,
)
from repro.exec.results import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POISON,
    STATUS_REPLAYED,
    ItemResult,
    describe_exception,
)

#: How often idle workers rescan the queue, and how long the supervisor
#: waits for a publication before it rescans ``done/`` and reaps.
QUEUE_POLL = 0.05

#: Lease renewals per lease TTL: a worker renews each claim every
#: ``lease_ttl / HEARTBEATS_PER_TTL`` seconds, so a live worker's lease
#: survives several delayed renewals before any reaper may take it.
HEARTBEATS_PER_TTL = 6

#: Campaign directory name prefix (content-addressed suffix).
CAMPAIGN_PREFIX = "campaign-"

#: File names inside one campaign directory.
CAMPAIGN_FILE = "campaign.json"
ITEMS_DIR = "items"
LEASES_DIR = "leases"
DONE_DIR = "done"
DEATHS_DIR = "deaths"
POISON_DIR = "poison"
ITEM_SUFFIX = ".item"
LEASE_SUFFIX = ".lease"
RESULT_SUFFIX = ".result"

#: Suffix of a failed outcome (and its failure ledger) set aside when a
#: rerun enqueues the item again.
FAILED_SUFFIX = ".failed"

_COUNTERS = Counters(
    "queue",
    (
        "enqueued",
        "replayed",
        "completed",
        "duplicates",
        "conflicts",
        "reclaims",
        "errors",
        "poisoned",
    ),
)


def queue_info() -> Dict[str, int]:
    """Process-wide queue counters (claims, reclaims, conflicts, ...)."""
    return _COUNTERS.snapshot()


def reset_queue_info() -> None:
    """Zero the counters (tests)."""
    _COUNTERS.reset()


def item_key(worker: Callable, index: int, args: Any) -> str:
    """Content address of one sweep item.

    Digests the worker's qualified name, the item's position, and the
    ``repr`` of its argument tuple -- all deterministic across
    processes (the arguments are frozen dataclasses, enums, and
    scalars) -- so a resumed run derives the same key for the same
    item and a changed argument derives a different one.
    """
    material = f"{worker.__module__}.{worker.__qualname__}|{index}|{args!r}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def worker_reference(worker: Callable) -> Optional[str]:
    """An importable ``module:qualname`` ref, or ``None`` (local only).

    External CLI workers resolve the campaign's worker by import; a
    worker that is not module-level (closure, lambda) can still be run
    by the supervisor's own spawned workers, which receive the callable
    directly.
    """
    module = getattr(worker, "__module__", None)
    qualname = getattr(worker, "__qualname__", "")
    if not module or "<" in qualname or "." in qualname:
        return None
    return f"{module}:{qualname}"


def resolve_worker_reference(reference: str) -> Callable:
    """Import a campaign's worker back from its ``module:qualname``."""
    module_name, _, qualname = reference.partition(":")
    worker = getattr(importlib.import_module(module_name), qualname)
    if not callable(worker):
        raise TypeError(f"worker reference {reference!r} is not callable")
    return worker


#: Default claim priority of enqueued items.  Claim order is the
#: lexicographic order of item names, which lead with ``p<priority>``:
#: a *numerically lower* priority is claimed first.
DEFAULT_PRIORITY = 50

#: Priority of interactively-requested items (results-service misses):
#: claimed ahead of default-priority background cache-warming work.
INTERACTIVE_PRIORITY = 10


def _clamp_priority(priority: int) -> int:
    return max(0, min(99, int(priority)))


def _item_name(index: int, key: str, priority: int) -> str:
    return f"p{_clamp_priority(priority):02d}-{index:06d}-{key[:12]}"


def _name_parts(name: str) -> Tuple[int, str]:
    """(priority, logical id) of an item name.

    Pre-priority names (``<index>-<key>``) parse as default priority, so
    a campaign enqueued by older code stays claimable and poisonable.
    """
    head, _, rest = name.partition("-")
    if len(head) == 3 and head.startswith("p") and head[1:].isdigit():
        return int(head[1:]), rest
    return DEFAULT_PRIORITY, name


def _item_priority(name: str) -> int:
    return _name_parts(name)[0]


def _item_index(name: str) -> int:
    return int(_name_parts(name)[1].split("-", 1)[0])


@dataclass
class Campaign:
    """One enqueued sweep: its directory, item names, and config."""

    root: str
    names: List[str]
    worker: Optional[Callable]
    config: runtime_config.RuntimeConfig

    @property
    def items_dir(self) -> str:
        return os.path.join(self.root, ITEMS_DIR)

    @property
    def leases_dir(self) -> str:
        return os.path.join(self.root, LEASES_DIR)

    @property
    def done_dir(self) -> str:
        return os.path.join(self.root, DONE_DIR)

    @property
    def deaths_dir(self) -> str:
        return os.path.join(self.root, DEATHS_DIR)

    @property
    def poison_dir(self) -> str:
        return os.path.join(self.root, POISON_DIR)

    def item_path(self, name: str) -> str:
        return os.path.join(self.items_dir, name + ITEM_SUFFIX)

    def lease_path(self, name: str) -> str:
        return os.path.join(self.leases_dir, name + LEASE_SUFFIX)

    def result_path(self, name: str) -> str:
        return os.path.join(self.done_dir, name + RESULT_SUFFIX)

    def deaths_path(self, name: str) -> str:
        return os.path.join(self.deaths_dir, name)

    def poison_report_path(self, name: str) -> str:
        return os.path.join(self.poison_dir, name + ".json")


def campaign_digest(keys: Sequence[str]) -> str:
    """Content address of a campaign: the package source and its item keys.

    The item keys fold in the worker's qualified name and every
    argument, so the same sweep re-enqueued from any process (a resumed
    supervisor included) derives the same campaign directory, and a
    different sweep can never collide with it.  The source fingerprint
    (:func:`repro.results.store.code_fingerprint`) keeps a campaign
    killed under one version of the code from replaying its values
    into a run of another.
    """
    from repro.results.store import code_fingerprint

    material = "\n".join([code_fingerprint(), *keys])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def enqueue_campaign(
    worker: Callable,
    items: Sequence[Tuple[int, Any]],
    config: runtime_config.RuntimeConfig,
    queue_dir: str,
    priority: int = DEFAULT_PRIORITY,
) -> Campaign:
    """Materialize a sweep as a campaign directory (idempotent).

    Re-enqueueing the same sweep is a resume: item files are only
    written for items without a published result, so completed work is
    never re-opened.  ``priority`` orders claims across everything
    sharing the queue directory -- lower values are claimed first --
    without entering the campaign's content address.
    """
    keys = [item_key(worker, index, args) for index, args in items]
    root = os.path.join(queue_dir, CAMPAIGN_PREFIX + campaign_digest(keys))
    names = [_item_name(index, key, priority) for (index, _), key in zip(items, keys)]
    campaign = Campaign(
        root=root,
        names=names,
        worker=worker,
        config=config,
    )
    _create_layout(campaign)
    enqueued = 0
    for (index, args), name in zip(items, campaign.names):
        if os.path.exists(campaign.result_path(name)):
            continue
        if not os.path.exists(campaign.item_path(name)):
            _write_item(campaign, name, index, args)
            enqueued += 1
    _COUNTERS.add("enqueued", enqueued)
    return campaign


def _create_layout(campaign: Campaign) -> None:
    """Create a campaign's directories and manifest (idempotent)."""
    for directory in (
        campaign.items_dir,
        campaign.leases_dir,
        campaign.done_dir,
        campaign.deaths_dir,
        campaign.poison_dir,
    ):
        os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(campaign.root, CAMPAIGN_FILE)
    if not os.path.exists(manifest_path):
        # Only what every worker of the campaign must share; the fault
        # plan travels parsed, so no worker needs the supervisor's file.
        plan = FaultPlan.from_spec(campaign.config.fault_plan)
        manifest = {
            "version": 1,
            "worker": worker_reference(campaign.worker),
            "total": len(campaign.names),
            "settings": {
                "retries": campaign.config.retries,
                "lease_ttl": campaign.config.lease_ttl,
                "fault_plan": plan.to_json() if plan is not None else None,
            },
        }
        durable.write_replace(
            manifest_path, json.dumps(manifest, sort_keys=True).encode("utf-8")
        )


def _write_item(campaign: Campaign, name: str, index: int, args: Any) -> None:
    """Materialize one pending work unit as ``items/<name>.item``."""
    os.makedirs(campaign.items_dir, exist_ok=True)
    durable.write_replace(
        campaign.item_path(name),
        pickle.dumps((index, args), protocol=pickle.HIGHEST_PROTOCOL),
    )


def enqueue_item(
    worker: Callable,
    args: Any,
    config: runtime_config.RuntimeConfig,
    queue_dir: str,
    priority: int = INTERACTIVE_PRIORITY,
) -> Tuple[Campaign, str]:
    """Enqueue one work unit as its own single-item campaign.

    The entry point of interactively-originated work (a results-service
    cache miss): the item defaults to :data:`INTERACTIVE_PRIORITY`, so
    cooperating workers claim it ahead of default-priority batch
    campaigns sharing the queue directory.  Idempotent like
    :func:`enqueue_campaign` -- re-enqueueing a unit that is already
    pending (or published) changes nothing.  Returns the campaign and
    the item's name within it.
    """
    campaign = enqueue_campaign(
        worker, [(0, args)], config, queue_dir, priority=priority
    )
    return campaign, campaign.names[0]


def open_campaign(root: str, worker: Optional[Callable] = None) -> Campaign:
    """Attach to an existing campaign directory (worker side).

    The worker callable is resolved from the manifest's importable
    reference unless one is handed in directly (the supervisor's own
    spawned workers, which may hold a non-importable callable).  The
    campaign's config is the opening process's current config with the
    manifest's ``retries``, ``lease_ttl`` and ``fault_plan`` applied, so
    spawned and external workers share one retry budget, one TTL and
    one fault plan; any other key a manifest holds is ignored.
    """
    with open(os.path.join(root, CAMPAIGN_FILE), "r", encoding="utf-8") as stream:
        manifest = json.load(stream)
    if worker is None:
        reference = manifest.get("worker")
        if not reference:
            raise ValueError(
                f"campaign {root} has no importable worker reference; "
                "only its own supervisor's workers can serve it"
            )
        worker = resolve_worker_reference(reference)
    shared = manifest.get("settings", {})
    current = runtime_config.current_config()
    config = current.replace(
        retries=int(shared.get("retries", current.retries)),
        lease_ttl=float(shared.get("lease_ttl", current.lease_ttl)),
        fault_plan=shared.get("fault_plan"),
    )
    names = []
    for directory, suffix in (
        (os.path.join(root, ITEMS_DIR), ITEM_SUFFIX),
        (os.path.join(root, DONE_DIR), RESULT_SUFFIX),
    ):
        try:
            entries = os.listdir(directory)
        except OSError:
            continue
        names.extend(
            entry[: -len(suffix)] for entry in entries if entry.endswith(suffix)
        )
    return Campaign(
        root=root,
        names=sorted(set(names)),
        worker=worker,
        config=config,
    )


def publish_result(campaign: Campaign, name: str, payload: Dict[str, Any]) -> str:
    """Publish one item's outcome, first writer wins.

    Returns ``"stored"`` (this writer won), ``"duplicate"`` (someone
    already published identical bytes -- the benign double-completion),
    or ``"conflict"`` (someone published *different* bytes: ours are
    preserved as ``.conflict`` evidence and counted, the first writer's
    verdict stands).
    """
    path = campaign.result_path(name)
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    # The link of a whole file both fails when a result already exists
    # (the compare of the CAS) and never shows a reader a torn result.
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if durable.write_link(path, data):
        _COUNTERS.add("completed")
        return "stored"
    try:
        with open(path, "rb") as stream:
            existing = stream.read()
    except OSError:
        existing = b""
    if existing == data:
        _COUNTERS.add("duplicates")
        return "duplicate"
    try:
        durable.write_link(durable.free_name(path, ".conflict"), data)
    except OSError:
        pass
    _COUNTERS.add("conflicts")
    return "conflict"


def load_published(campaign: Campaign, name: str) -> Optional[Dict[str, Any]]:
    """Read one published outcome (corrupt entries are quarantined)."""
    path = campaign.result_path(name)
    try:
        with open(path, "rb") as stream:
            return pickle.load(stream)
    except FileNotFoundError:
        return None
    except Exception:
        durable.quarantine(path)
        return None


def _record_death(campaign: Campaign, name: str, kind: str, detail: str) -> None:
    """Append one line to an item's failure ledger (``kind detail``).

    The ledger is strictly line-oriented (one line = one failure), so
    the detail -- often a multi-line traceback -- is flattened.
    """
    path = campaign.deaths_path(name)
    os.makedirs(campaign.deaths_dir, exist_ok=True)
    flattened = " | ".join(part for part in detail.splitlines() if part.strip())
    line = f"{kind} {flattened}\n".encode("utf-8")
    with open(path, "ab") as stream:
        stream.write(line)


def _death_ledger(campaign: Campaign, name: str) -> List[str]:
    try:
        with open(campaign.deaths_path(name), "r", encoding="utf-8") as stream:
            return [line.strip() for line in stream if line.strip()]
    except OSError:
        return []


def _ledger_counts(ledger: Sequence[str]) -> Dict[str, int]:
    counts = {"reclaim": 0, "death": 0, "error": 0}
    for line in ledger:
        kind = line.split(" ", 1)[0]
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def poison_item(
    campaign: Campaign, name: str, ledger: Sequence[str], last_owner: str
) -> None:
    """Quarantine an item that keeps killing its workers.

    The item file moves to ``poison/``, a typed JSON report lands next
    to it, and a ``poison`` result is published so the campaign
    completes with a structured per-item failure instead of wedging on
    an item nothing can finish.
    """
    counts = _ledger_counts(ledger)
    report = {
        "item": name,
        "index": _item_index(name),
        "priority": _item_priority(name),
        "reclaims": counts["reclaim"],
        "worker_deaths": counts["death"],
        "errors": counts["error"],
        "retries": campaign.config.retries,
        "last_owner": last_owner,
        "lease_ttl": campaign.config.lease_ttl,
        "ledger": list(ledger),
    }
    try:
        durable.write_replace(
            campaign.poison_report_path(name),
            json.dumps(report, sort_keys=True, indent=2).encode("utf-8"),
        )
    except OSError:
        pass
    item_path = campaign.item_path(name)
    try:
        os.replace(item_path, os.path.join(campaign.poison_dir, name + ITEM_SUFFIX))
    except OSError:
        try:
            os.unlink(item_path)
        except OSError:
            pass
    attempts = len(ledger)
    payload = {
        "index": _item_index(name),
        "status": STATUS_POISON,
        "value": None,
        "error": (
            f"poison item: its worker died {counts['reclaim'] + counts['death']} "
            f"time(s) (retry budget {campaign.config.retries}); quarantined "
            f"with report {json.dumps(report, sort_keys=True)}"
        ),
        "attempts": attempts,
    }
    if publish_result(campaign, name, payload) == "stored":
        _COUNTERS.add("poisoned")


#: Owner id planted by the ``stale-lease`` fault: a foreign host (so the
#: same-host dead-pid fast path cannot shortcut the test) with a dead
#: heartbeat, exercising exactly the worker-died-on-another-machine
#: reclaim path.
_FOREIGN_DEAD_OWNER = "elsewhere:0:stale"


class _AbandonLease(SimulatedWorkerDeath):
    """In-process stand-in for a death that leaves its lease behind."""


class _Heartbeat(threading.Thread):
    """Renews one lease every ``ttl / HEARTBEATS_PER_TTL`` until stopped."""

    def __init__(self, path: str, owner: str, ttl: float) -> None:
        super().__init__(daemon=True, name=f"lease-heartbeat:{os.path.basename(path)}")
        self.path = path
        self.owner = owner
        self.interval = ttl / HEARTBEATS_PER_TTL
        self.ttl = ttl
        self.seq = 0
        self.lost = False
        self._pause_until = 0.0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            if time.monotonic() < self._pause_until:
                continue  # A slow-heartbeat fault: skip renewals.
            self.seq += 1
            if not leases.renew(self.path, self.owner, self.seq, self.ttl):
                self.lost = True
                return

    def pause(self, seconds: float) -> None:
        self._pause_until = time.monotonic() + float(seconds)

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=2.0)


class QueueWorker:
    """One cooperating worker draining a campaign's items.

    Claims items lease-first, runs them under a heartbeat, publishes
    outcomes first-writer-wins, and doubles as a reaper for its
    campaign.  ``parent_pid`` (supervisor-spawned workers) makes the
    worker exit when its supervisor dies, so a SIGKILLed run never
    leaves orphans silently draining the queue; external CLI workers
    pass no parent and keep serving across supervisor restarts.
    ``announce`` (supervisor-spawned workers) is a connection on which
    the name of every item this worker publishes is sent.
    """

    def __init__(
        self,
        campaign: Campaign,
        owner: Optional[str] = None,
        allow_exit: bool = False,
        parent_pid: Optional[int] = None,
        poll: float = QUEUE_POLL,
        announce: Optional[multiprocessing.connection.Connection] = None,
    ) -> None:
        self.campaign = campaign
        self.owner = owner or leases.new_owner_id()
        self.allow_exit = allow_exit
        self.parent_pid = parent_pid
        self.poll = poll
        self.announce = announce
        self.reaper = leases.Reaper(campaign.config.lease_ttl)
        self.fault_plan = FaultPlan.from_spec(campaign.config.fault_plan)
        # A SIGKILLed supervisor that its own parent has not reaped yet
        # is a zombie, which still answers kill(pid, 0); the worker is
        # reparented the moment it dies, though.  (Under forkserver the
        # parent is the fork server, not the supervisor, so the two pids
        # are never compared.)
        self._start_ppid = os.getppid()

    # -- lifecycle ----------------------------------------------------

    def parent_alive(self) -> bool:
        if self.parent_pid is None:
            return True
        return os.getppid() == self._start_ppid and leases._pid_alive(
            self.parent_pid
        )

    def drain(self) -> int:
        """Serve the campaign until it is fully resolved.

        Returns the number of items this worker resolved.  Exits early
        when the supervising parent dies (see class docstring).
        """
        resolved = 0
        while self.parent_alive():
            progressed, pending = self.step()
            resolved += progressed
            if pending == 0:
                break
            if progressed == 0:
                time.sleep(self.poll)
        return resolved

    def step(self) -> Tuple[int, int]:
        """One scan: claim/run/publish what we can, then reap.

        Returns ``(items resolved by us, items still pending)``.
        """
        progressed = 0
        pending = 0
        try:
            entries = sorted(os.listdir(self.campaign.items_dir))
        except OSError:
            return 0, 0  # The campaign directory is gone: drained.
        for entry in entries:
            if not entry.endswith(ITEM_SUFFIX):
                continue
            if not self.parent_alive():
                return progressed, pending + 1
            name = entry[: -len(ITEM_SUFFIX)]
            if os.path.exists(self.campaign.result_path(name)):
                # Completed (possibly by a worker that died before its
                # cleanup): garbage-collect the item file.
                try:
                    os.unlink(self.campaign.item_path(name))
                except OSError:
                    pass
                continue
            if not leases.acquire(
                self.campaign.lease_path(name),
                self.owner,
                self.campaign.config.lease_ttl,
            ):
                pending += 1
                continue
            outcome = self._run_claimed(name)
            if outcome:
                progressed += 1
            else:
                pending += 1
        self.reap()
        return progressed, pending

    # -- one claimed item ---------------------------------------------

    def _run_claimed(self, name: str) -> bool:
        """Run one item we hold the lease for.  True when resolved."""
        campaign = self.campaign
        lease_path = campaign.lease_path(name)
        try:
            with open(campaign.item_path(name), "rb") as stream:
                index, args = pickle.load(stream)
        except FileNotFoundError:
            leases.release(lease_path, self.owner)
            return False  # Completed and collected between scan and claim.
        except Exception:
            durable.quarantine(campaign.item_path(name))
            leases.release(lease_path, self.owner)
            return False
        ledger = _death_ledger(campaign, name)
        attempt = len(ledger) + 1
        heartbeat = _Heartbeat(lease_path, self.owner, campaign.config.lease_ttl)
        heartbeat.start()
        try:
            plan = self.fault_plan
            if plan is not None:
                self._apply_queue_faults(plan, name, index, attempt, heartbeat)
                plan.fire(index, attempt, allow_exit=self.allow_exit)
            value = campaign.worker(args)
            payload = {
                "index": index,
                "status": STATUS_OK,
                "value": value,
                "error": None,
                "attempts": attempt,
            }
        except _AbandonLease:
            # The lease was handed to a fake dead foreign owner; leave
            # it for the reaper, which records the reclaim itself.
            heartbeat.stop()
            return False
        except SimulatedWorkerDeath as death:
            # The in-process stand-in for a worker kill: ledger it like
            # a real death and let a later pass (or sibling) retry.
            heartbeat.stop()
            _record_death(campaign, name, "death", describe_exception(death)[:200])
            leases.release(lease_path, self.owner)
            return self._maybe_poison(name)
        except Exception as failure:
            heartbeat.stop()
            _record_death(
                campaign, name, "error", describe_exception(failure)[:200]
            )
            ledger = _death_ledger(campaign, name)
            if _ledger_counts(ledger)["error"] > campaign.config.retries:
                payload = {
                    "index": index,
                    "status": STATUS_ERROR,
                    "value": None,
                    "error": describe_exception(failure),
                    "attempts": attempt,
                }
                self._resolve(name, payload)
                _COUNTERS.add("errors")
                return True
            leases.release(lease_path, self.owner)
            return False
        heartbeat.stop()
        self._resolve(name, payload)
        return True

    def _resolve(self, name: str, payload: Dict[str, Any]) -> None:
        publish_result(self.campaign, name, payload)
        try:
            os.unlink(self.campaign.item_path(name))
        except OSError:
            pass
        leases.release(self.campaign.lease_path(name), self.owner)
        self.reaper.forget(self.campaign.lease_path(name))
        self._announce(name)

    def _announce(self, name: str) -> None:
        """Tell the supervisor that ``name`` has a published outcome."""
        if self.announce is None:
            return
        try:
            self.announce.send(name)
        except (OSError, ValueError):
            self.announce = None  # The supervisor is gone; it rescans anyway.

    def _apply_queue_faults(
        self, plan: FaultPlan, name: str, index: int, attempt: int, heartbeat: _Heartbeat
    ) -> None:
        """Interpret the queue-specific fault kinds for this claim."""
        for fault in plan.at(index, attempt):
            if fault.kind not in QUEUE_FAULT_KINDS:
                continue
            lease_path = self.campaign.lease_path(name)
            if fault.kind == "stale-lease":
                # Die holding a lease whose heartbeat reads as ancient
                # and whose owner is on another machine: no dead-pid
                # fast path applies, the reaper must prove staleness
                # from the lease document alone.
                heartbeat.stop()
                try:
                    durable.write_replace(
                        lease_path,
                        json.dumps(
                            {
                                "owner": _FOREIGN_DEAD_OWNER,
                                "seq": 0,
                                "ts": 0.0,
                                "ttl": 0.0,
                            }
                        ).encode("utf-8"),
                    )
                except OSError:
                    pass
                if self.allow_exit:
                    os._exit(KILL_EXIT_CODE)
                raise _AbandonLease(
                    f"injected stale-lease death at item {index} attempt {attempt}"
                )
            if fault.kind == "double-claim":
                # Drop our own lease (as if reclaimed), let a sibling
                # re-claim and finish first, then complete anyway: the
                # first-writer-wins publication must resolve it.
                heartbeat.stop()
                try:
                    os.unlink(lease_path)
                except OSError:
                    pass
                time.sleep(fault.seconds)
            elif fault.kind == "slow-heartbeat":
                heartbeat.pause(fault.seconds)
                time.sleep(fault.seconds)

    def _maybe_poison(self, name: str) -> bool:
        ledger = _death_ledger(self.campaign, name)
        counts = _ledger_counts(ledger)
        if counts["reclaim"] + counts["death"] > self.campaign.config.retries:
            poison_item(self.campaign, name, ledger, self.owner)
            self._announce(name)
            return True
        return False

    # -- reaping ------------------------------------------------------

    def reap(self) -> int:
        """Reclaim stale leases; poison items past their death budget.

        Returns the number of leases reclaimed.  Every worker and the
        supervisor reap, so recovery needs no dedicated process and
        survives any single participant's death.
        """
        campaign = self.campaign
        try:
            entries = os.listdir(campaign.leases_dir)
        except OSError:
            return 0
        reclaimed = 0
        for entry in sorted(entries):
            if not entry.endswith(LEASE_SUFFIX):
                continue
            name = entry[: -len(LEASE_SUFFIX)]
            path = campaign.lease_path(name)
            lease = leases.read_lease(path)
            if lease is None:
                continue
            if lease.get("owner") == self.owner:
                continue  # Never reap ourselves.
            if os.path.exists(campaign.result_path(name)):
                # Published but never released (death after publish):
                # the claim is moot, clear it without a death entry.
                leases.reclaim(path, self.owner)
                self.reaper.forget(path)
                continue
            if not self.reaper.is_stale(path, lease):
                continue
            document = leases.reclaim(path, self.owner)
            if document is None:
                continue  # Lost the reclaim race; someone else owns it.
            self.reaper.forget(path)
            reclaimed += 1
            _COUNTERS.add("reclaims")
            _record_death(
                campaign,
                name,
                "reclaim",
                f"stale lease of {document.get('owner', '?')} "
                f"(seq {document.get('seq', 0)})",
            )
            self._maybe_poison(name)
        return reclaimed


class QueueExecutor(Executor):
    """Durable work-queue execution: the one parallel executor.

    The supervisor enqueues the campaign, spawns local queue workers
    (any external ``repro-frontend worker`` processes pointed at the
    same queue directory simply join in), and loads each result the
    moment its worker announces the publication.  When it hears nothing
    for :data:`QUEUE_POLL`, or a worker exits, it also rescans ``done/``
    (external workers only publish there), reaps stale leases, and
    replaces a dead pool -- or, when no worker can be spawned at all,
    drains the rest in-process (``degraded``).
    """

    name = "queue"

    def run(self, worker, items, config):
        items = list(items)
        if not items:
            return RunOutcome([], False)
        # The supervisor runs under the config it hands its workers, and
        # its queue directory follows from it.
        with runtime_config.activated(config):
            queue_dir = runtime_config.current_queue_dir()
            ephemeral = queue_dir is None
            if ephemeral:
                queue_dir = tempfile.mkdtemp(prefix="repro-queue-")
            campaign = enqueue_campaign(worker, items, config, queue_dir)
            try:
                return self._supervise(campaign, items)
            finally:
                if ephemeral:
                    shutil.rmtree(queue_dir, ignore_errors=True)

    def _supervise(self, campaign, items):
        order = [index for index, _ in items]
        args_of = dict(items)
        name_of = dict(zip(order, campaign.names))
        results: Dict[int, ItemResult] = {}
        # Resume: published successes replay without running.  A
        # published failure is set aside as evidence and runs again, so
        # a fault that has cleared is not replayed forever.
        for index in order:
            name = name_of[index]
            payload = load_published(campaign, name)
            if payload is None:
                continue
            if payload.get("status", STATUS_OK) != STATUS_OK:
                durable.quarantine(campaign.result_path(name), FAILED_SUFFIX)
                durable.quarantine(campaign.deaths_path(name), FAILED_SUFFIX)
                _write_item(campaign, name, index, args_of[index])
                continue
            results[index] = ItemResult(
                index,
                STATUS_REPLAYED,
                value=payload.get("value"),
                attempts=int(payload.get("attempts", 0)),
            )
        _COUNTERS.add("replayed", len(results))
        unresolved = [index for index in order if index not in results]
        degraded = False
        if unresolved:
            degraded = self._drive(campaign, unresolved, args_of, name_of, results)
        if all(results[index].ok for index in order):
            # A fully successful campaign leaves nothing to resume:
            # retire its directory (failures keep it as evidence).
            shutil.rmtree(campaign.root, ignore_errors=True)
        return RunOutcome([results[index] for index in order], degraded)

    def _drive(self, campaign, unresolved, args_of, name_of, results) -> bool:
        count = campaign.config.processes
        if count is None:
            count = os.cpu_count() or 1
        count = max(1, min(int(count), len(unresolved)))
        ctx = multiprocessing.get_context()
        index_of = {name_of[index]: index for index in unresolved}
        announcements, announce = ctx.Pipe(duplex=False)
        workers: List[Any] = []

        def spawn() -> bool:
            try:
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        campaign.worker,
                        campaign.root,
                        os.getpid(),
                        announce,
                        # Handed over as an object: nothing a worker
                        # resolves depends on its environment.
                        campaign.config,
                    ),
                    daemon=True,
                )
                process.start()
            except Exception:
                return False
            workers.append(process)
            return True

        def pending() -> bool:
            return any(index not in results for index in unresolved)

        supervisor = QueueWorker(campaign, allow_exit=False)
        degraded = False
        for _ in range(count):
            spawn()
        try:
            while pending():
                ready = multiprocessing.connection.wait(
                    [announcements] + [process.sentinel for process in workers],
                    timeout=QUEUE_POLL,
                )
                while announcements in ready and announcements.poll():
                    name = announcements.recv()
                    if name in index_of and index_of[name] not in results:
                        _load_result(campaign, index_of[name], name, results)
                if ready == [announcements] or not pending():
                    continue
                # Quiet for a poll interval, or a worker exited: pick up
                # what no announcement covers.
                self._collect(campaign, unresolved, name_of, results)
                if not pending():
                    break
                supervisor.reap()
                self._heal_missing_items(
                    campaign, unresolved, args_of, name_of, results
                )
                workers[:] = [process for process in workers if process.is_alive()]
                if not workers and not spawn():
                    # No worker alive and none spawnable: drain what is
                    # left in-process so the sweep still completes.
                    degraded = True
                    supervisor.drain()
                    self._collect(campaign, unresolved, name_of, results)
            return degraded
        finally:
            # The campaign has resolved (or the supervisor is failing):
            # nothing is left for a worker to do, so stop them now.
            for process in workers:
                process.terminate()
            for process in workers:
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            announcements.close()
            announce.close()

    def _collect(self, campaign, unresolved, name_of, results) -> None:
        for index in unresolved:
            if index not in results:
                _load_result(campaign, index, name_of[index], results)

    def _heal_missing_items(
        self, campaign, unresolved, args_of, name_of, results
    ) -> None:
        """Re-materialize items that lost both their file and result.

        Happens when another supervisor of the same sweep (one sharing
        the queue directory) finished first and retired the whole
        campaign, or through a quarantined (corrupt) file -- either way
        the campaign must heal, not hang: its layout and manifest come
        back too, so that the workers spawned next can open it.
        """
        missing = [
            index
            for index in unresolved
            if index not in results
            and not os.path.exists(campaign.item_path(name_of[index]))
            and not os.path.exists(campaign.result_path(name_of[index]))
        ]
        if not missing:
            return
        try:
            _create_layout(campaign)
            for index in missing:
                _write_item(campaign, name_of[index], index, args_of[index])
        except OSError:
            pass


def _load_result(
    campaign: Campaign, index: int, name: str, results: Dict[int, ItemResult]
) -> None:
    """Record item ``index``'s published outcome in ``results``, if any."""
    payload = load_published(campaign, name)
    if payload is None:
        return
    results[index] = ItemResult(
        index,
        payload.get("status", STATUS_OK),
        value=payload.get("value"),
        error=payload.get("error"),
        attempts=int(payload.get("attempts", 1)),
    )


def _most_urgent_item(queue_dir: str, entry: str) -> str:
    """Sort key for campaign visit order: the smallest pending item name.

    Item names lead with ``p<priority>``, so the minimum name *is* the
    most urgent claimable unit.  Campaigns with nothing pending sort
    last (``~`` follows every item spelling in ASCII).
    """
    try:
        items = os.listdir(os.path.join(queue_dir, entry, ITEMS_DIR))
    except OSError:
        return "~"
    pending = [name for name in items if name.endswith(ITEM_SUFFIX)]
    return min(pending) if pending else "~"


def serve_queue(
    queue_dir: str,
    max_idle: Optional[float] = 30.0,
    poll: float = 0.2,
) -> Dict[str, int]:
    """Serve every campaign under a queue directory (the CLI worker).

    Scans for campaign directories, resolves each campaign's worker by
    its importable reference, and claims items until the queue has been
    idle -- no campaign with claimable work -- for ``max_idle`` seconds
    (``None``: forever).  Campaigns are visited in order of their most
    urgent pending item (item names lead with the claim priority), so
    an interactive single-item campaign is drained before the bulk of
    a default-priority batch sweep.  Returns the process-wide queue
    counters.
    """
    served: Dict[str, QueueWorker] = {}
    last_work = time.monotonic()
    while True:
        worked = False
        try:
            entries = sorted(os.listdir(queue_dir))
        except OSError:
            entries = []
        entries.sort(key=lambda entry: _most_urgent_item(queue_dir, entry))
        for entry in entries:
            root = os.path.join(queue_dir, entry)
            if not entry.startswith(CAMPAIGN_PREFIX) or not os.path.isdir(root):
                continue
            queue_worker = served.get(root)
            if queue_worker is None:
                try:
                    campaign = open_campaign(root)
                except (OSError, ValueError, ImportError, AttributeError):
                    continue  # Unreadable or locally unresolvable worker.
                queue_worker = QueueWorker(campaign, allow_exit=True, poll=poll)
                served[root] = queue_worker
            progressed, _pending = queue_worker.step()
            if progressed:
                worked = True
            if not os.path.isdir(root):
                served.pop(root, None)
        now = time.monotonic()
        if worked:
            last_work = now
        elif max_idle is not None and now - last_work > max_idle:
            return queue_info()
        else:
            time.sleep(poll)
