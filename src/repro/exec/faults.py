"""Deterministic fault injection for the execution layer.

A :class:`FaultPlan` is a list of :class:`Fault` entries, each pinned
to an exact ``(item index, attempt)`` site, so a test (or a chaos run)
states *precisely* which item dies, raises, or has a cache file
truncated underneath it -- no probabilities, no flakiness.  Plans are
activated through :class:`~repro.api.runtime_config.RuntimeConfig`
(``fault_plan=...`` / ``REPRO_FAULT_PLAN``) as either an inline JSON
document or a path to one, and travel parsed in the queue campaign's
manifest to every worker that serves it, so injection works
identically on fork and spawn platforms and in external workers.

Fault kinds:

``kill``
    The worker process exits hard (``os._exit``), exactly like a
    crash or an OOM kill.  In-process (serial) execution raises
    :class:`SimulatedWorkerDeath` instead, so a test process is never
    taken down by its own fault plan.
``raise``
    A transient exception (:class:`InjectedFault`) -- the retry path.
``truncate``
    The first (sorted) file matching ``target`` under the active trace
    cache or result store directory is cut in half -- the
    corrupt-entry quarantine path.

Queue-specific kinds, interpreted by the durable work-queue machinery
of :mod:`repro.exec.queue` (and ignored by :meth:`FaultPlan.fire`,
which only handles the generic worker-side kinds above):

``stale-lease``
    The claiming worker backdates its own lease to the epoch and dies
    hard -- the dead-worker-on-another-machine path the reaper must
    reclaim.
``double-claim``
    The claiming worker deletes its own lease mid-item (as if it had
    been reclaimed), sleeps ``seconds`` so a sibling can re-claim and
    complete the item first, then publishes anyway -- the
    first-writer-wins compare-and-swap path.
``slow-heartbeat``
    The worker pauses heartbeat renewal and stalls the item for
    ``seconds`` -- long enough, with a short TTL, for the reaper to
    reclaim an item whose worker is merely slow, not dead.
"""

from __future__ import annotations

import fnmatch
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: The recognised fault kinds.
FAULT_KINDS = (
    "kill",
    "raise",
    "truncate",
    "stale-lease",
    "double-claim",
    "slow-heartbeat",
)

#: The kinds the queue machinery interprets itself (``FaultPlan.fire``
#: skips them: they need a lease and a heartbeat to act on).
QUEUE_FAULT_KINDS = ("stale-lease", "double-claim", "slow-heartbeat")

#: Exit code of an injected worker kill (visible in process tables).
KILL_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """The transient exception a ``raise`` fault throws."""


class SimulatedWorkerDeath(RuntimeError):
    """In-process stand-in for a ``kill`` fault.

    Serial execution cannot ``os._exit`` without taking the whole
    process (the test runner, the CLI) down with it; the serial
    executor treats this exception as a worker death instead.
    """


@dataclass(frozen=True)
class Fault:
    """One injection site: what happens at ``(index, attempt)``.

    ``attempt`` defaults to 1, so a fault fires on the item's first try
    only and a retry (or a resume) sails through -- the deterministic
    analogue of a transient failure.
    """

    kind: str
    index: int
    attempt: int = 1
    #: ``double-claim`` / ``slow-heartbeat``: how long the worker stalls.
    seconds: float = 60.0
    #: ``raise``: the exception message.
    message: str = "injected transient fault"
    #: ``truncate``: glob matched against files under the target dir.
    target: str = "*"
    #: ``truncate``: which cache directory to damage.
    store: str = "trace-cache"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.store not in ("trace-cache", "result-store"):
            raise ValueError(
                f"unknown fault store {self.store!r}; "
                "expected 'trace-cache' or 'result-store'"
            )

    def describe(self) -> Dict[str, Any]:
        """Plain-dict form (the JSON wire format)."""
        entry: Dict[str, Any] = {
            "kind": self.kind,
            "index": self.index,
            "attempt": self.attempt,
        }
        if self.kind in ("double-claim", "slow-heartbeat"):
            entry["seconds"] = self.seconds
        if self.kind == "raise":
            entry["message"] = self.message
        if self.kind == "truncate":
            entry["target"] = self.target
            entry["store"] = self.store
        return entry


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults, keyed by ``(index, attempt)``.

    Immutable and JSON-serializable, so one plan can be resolved in the
    supervisor, shipped to worker processes, and quoted verbatim in a
    failure report.
    """

    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        """Build a plan from fault entries."""
        return cls(faults=tuple(faults))

    @classmethod
    def from_json(cls, document: str) -> "FaultPlan":
        """Parse the JSON wire format (``{"faults": [...]}`` or a list)."""
        data = json.loads(document)
        if isinstance(data, dict):
            data = data.get("faults", [])
        if not isinstance(data, list):
            raise ValueError("fault plan JSON must be a list or {'faults': [...]}")
        return cls(faults=tuple(Fault(**entry) for entry in data))

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """Resolve a ``RuntimeConfig.fault_plan`` setting.

        ``None``/empty means no plan; a string starting with ``{`` or
        ``[`` is inline JSON; anything else is a path to a JSON file.
        """
        if spec is None:
            return None
        spec = spec.strip()
        if not spec:
            return None
        if spec.startswith("{") or spec.startswith("["):
            return cls.from_json(spec)
        with open(spec, "r", encoding="utf-8") as stream:
            return cls.from_json(stream.read())

    def to_json(self) -> str:
        """Serialize to the JSON wire format (round-trips from_json)."""
        return json.dumps({"faults": [fault.describe() for fault in self.faults]})

    def at(self, index: int, attempt: int) -> List[Fault]:
        """The faults planted at one ``(index, attempt)`` site."""
        return [
            fault
            for fault in self.faults
            if fault.index == index and fault.attempt == attempt
        ]

    def fire(self, index: int, attempt: int, allow_exit: bool = True) -> None:
        """Trigger the faults planted at this site (worker side).

        ``allow_exit`` distinguishes real worker processes (which die
        via ``os._exit``) from in-process execution (which raises
        :class:`SimulatedWorkerDeath` so the host survives).  The
        queue-specific kinds (:data:`QUEUE_FAULT_KINDS`) are skipped
        here: they act on a lease and a heartbeat, which only the queue
        worker loop holds.
        """
        for fault in self.at(index, attempt):
            if fault.kind == "truncate":
                _truncate_target(fault)
            elif fault.kind == "kill":
                if allow_exit:
                    os._exit(KILL_EXIT_CODE)
                raise SimulatedWorkerDeath(
                    f"injected worker kill at item {index} attempt {attempt}"
                )
            elif fault.kind == "raise":
                raise InjectedFault(
                    f"{fault.message} (item {index}, attempt {attempt})"
                )


def _truncate_target(fault: Fault) -> None:
    """Cut the first matching cache file in half (deterministically).

    Resolves the directory through the active runtime config, so the
    fault damages exactly the store the run is using.  Missing
    directory or no match is a no-op: the plan stays usable for runs
    whose caches have not materialized yet.
    """
    from repro.api import runtime_config

    config = runtime_config.current_config()
    if fault.store == "trace-cache":
        directory = config.trace_cache_dir
    else:
        directory = config.result_cache_dir
    if directory is None or not os.path.isdir(directory):
        return
    matches = sorted(
        name
        for name in os.listdir(directory)
        if fnmatch.fnmatch(name, fault.target)
        and os.path.isfile(os.path.join(directory, name))
    )
    if not matches:
        return
    path = os.path.join(directory, matches[0])
    size = os.path.getsize(path)
    with open(path, "r+b") as stream:
        stream.truncate(size // 2)
