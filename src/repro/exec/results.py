"""Typed per-item outcomes of a supervised sweep.

A supervised sweep never lets one bad item discard the others: every
item finishes as an :class:`ItemResult` -- a value, a captured
exception, a worker death, or a poison quarantine -- and the whole run is
summarised by a :class:`SweepReport`.  Callers that want the historical
"list of values" contract go through :meth:`SweepReport.values`, which
raises a :class:`SweepError` carrying the full structured failure
report (and the partial results) instead of a raw traceback from a
random worker.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Item completed normally; ``value`` holds the worker's return value.
STATUS_OK = "ok"
#: Item was replayed from a resumed queue campaign's published result.
STATUS_REPLAYED = "replayed"
#: Worker raised; ``error`` holds the rendered exception.
STATUS_ERROR = "error"
#: The worker process died (crash, ``os._exit``, external kill).
STATUS_WORKER_DEATH = "worker-death"
#: The item killed its worker (or leaked its lease) too many times and
#: was quarantined as a poison item; ``error`` holds the typed report.
STATUS_POISON = "poison"

#: Every status an :class:`ItemResult` can carry, in severity order.
ITEM_STATUSES = (
    STATUS_OK,
    STATUS_REPLAYED,
    STATUS_ERROR,
    STATUS_WORKER_DEATH,
    STATUS_POISON,
)

#: Statuses that count as success (a usable value is present).
SUCCESS_STATUSES = frozenset({STATUS_OK, STATUS_REPLAYED})


def describe_exception(error: BaseException, limit: int = 6) -> str:
    """One-string rendering of an exception (type, message, short tail).

    Used to ship worker-side failures across the result queue without
    pickling the exception object itself (whose type may not exist or
    unpickle cleanly in the supervisor).
    """
    rendered = "".join(
        traceback.format_exception(type(error), error, error.__traceback__, limit=limit)
    ).strip()
    return rendered or repr(error)


@dataclass
class ItemResult:
    """How one sweep item ended up.

    ``attempts`` counts every try including the final one; a result
    that succeeded on its second attempt after a transient failure has
    ``attempts == 2`` and ``status == "ok"``.
    """

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether the item produced a usable value."""
        return self.status in SUCCESS_STATUSES


class SweepError(RuntimeError):
    """A sweep finished with permanently failed items.

    Carries the full :class:`SweepReport` -- including every partial
    result -- so callers can salvage completed work; the message is the
    structured failure report, not one worker's raw traceback.
    """

    def __init__(self, report: "SweepReport") -> None:
        super().__init__(report.failure_report())
        self.report = report


@dataclass
class SweepReport:
    """Outcome of one supervised sweep, item by item.

    ``items`` are in argument order.  ``degraded`` is set when the
    queue could not spawn any worker process (e.g. fork unavailable)
    and the remaining items were finished serially in-process.
    """

    items: List[ItemResult] = field(default_factory=list)
    executor: str = "serial"
    degraded: bool = False

    def failures(self) -> List[ItemResult]:
        """The items that permanently failed, in index order."""
        return [item for item in self.items if not item.ok]

    def counts(self) -> Dict[str, int]:
        """Number of items per final status."""
        counts: Dict[str, int] = {}
        for item in self.items:
            counts[item.status] = counts.get(item.status, 0) + 1
        return counts

    def values(self) -> List[Any]:
        """Every item's value, in order; raises :class:`SweepError` on failures."""
        failures = self.failures()
        if failures:
            raise SweepError(self)
        return [item.value for item in self.items]

    def partial_values(self) -> Dict[int, Any]:
        """index -> value for the items that succeeded."""
        return {item.index: item.value for item in self.items if item.ok}

    def failure_report(self) -> str:
        """Human-readable structured failure report.

        One summary line plus one block per failed item (status,
        attempts, rendered error); this is what :class:`SweepError`
        prints and what the CLI shows instead of a raw traceback.
        """
        failures = self.failures()
        counts = self.counts()
        summary = ", ".join(f"{count} {status}" for status, count in sorted(counts.items()))
        lines = [
            f"sweep failed on {len(failures)}/{len(self.items)} item(s) "
            f"[executor={self.executor}"
            + (", degraded-to-serial" if self.degraded else "")
            + f"]: {summary}"
        ]
        for item in failures:
            lines.append(
                f"  item {item.index}: {item.status} after {item.attempts} attempt(s)"
            )
            if item.error:
                for error_line in item.error.splitlines():
                    lines.append(f"    {error_line}")
        return "\n".join(lines)
