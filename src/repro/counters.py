"""Process-wide counters: the one registry behind ``--verbose`` and ``/stats``.

Each layer that counts something (the trace cache, the profile memo,
the result store, the work queue, the leases) declares one
:class:`Counters` group at import time; :func:`snapshot` reads every
declared group, so the CLI's ``--verbose`` report and the results
service's ``GET /stats`` body list the same groups with the same keys.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Mapping, Optional

_GROUPS: Dict[str, "Counters"] = {}


class Counters:
    """A named group of counters, plus gauges read at snapshot time.

    ``names`` are the counters :meth:`add` increments and :meth:`reset`
    zeroes.  ``gauges`` maps further snapshot keys to callables that
    measure the owner's current state (a cache's ``entries``, say);
    :meth:`reset` leaves them alone.  Declaring a group under a name
    already in use replaces the earlier group, so one name always has
    one snapshot.
    """

    def __init__(
        self,
        group: str,
        names: Iterable[str],
        gauges: Optional[Mapping[str, Callable[[], int]]] = None,
    ) -> None:
        self._values = dict.fromkeys(names, 0)
        self._gauges = dict(gauges or {})
        self._lock = threading.Lock()
        _GROUPS[group] = self

    def add(self, name: str, amount: int = 1) -> None:
        """Increment one counter by ``amount``."""
        with self._lock:
            self._values[name] += amount

    def reset(self) -> None:
        """Zero every counter (tests, and a cleared cache)."""
        with self._lock:
            for name in self._values:
                self._values[name] = 0

    def snapshot(self) -> Dict[str, int]:
        """The counters, then the gauges, as one plain dictionary."""
        with self._lock:
            values = dict(self._values)
        for name, gauge in self._gauges.items():
            values[name] = gauge()
        return values


def snapshot() -> Dict[str, Dict[str, int]]:
    """Every declared group's snapshot, keyed by group name.

    Only groups whose owning module has been imported appear.
    """
    return {name: group.snapshot() for name, group in list(_GROUPS.items())}
