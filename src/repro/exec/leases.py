"""Filesystem leases: how queue workers claim items and prove liveness.

A lease is one small JSON file next to the item it protects.  The
primitives here make three guarantees on any POSIX filesystem (local or
shared) without assuming comparable clocks across machines:

* **Exclusive claims** -- :func:`acquire` publishes the whole lease
  document first-writer-wins (:func:`repro.durable.write_link`), so
  exactly one worker wins a contested item, and no reader ever sees a
  claim without its document.
* **Liveness** -- the owner renews the lease on a heartbeat interval
  (:func:`renew`), bumping a monotonic sequence number and a wall-clock
  timestamp.  Renewal re-reads the file first and refuses to clobber a
  lease it no longer owns (a reclaimed lease stays reclaimed), then
  replaces the whole document (:func:`repro.durable.write_replace`).
* **Recovery** -- a :class:`Reaper` watches leases and reclaims an item
  (:func:`reclaim`) when its owner is provably or presumably dead:
  the owner's pid is gone (same-host fast path), the heartbeat
  timestamp is older than the TTL, or -- clock-skew-proof -- the
  sequence number has not moved for a TTL on the *reaper's own*
  monotonic clock.  Reclaim renames the lease to a unique tombstone
  first, so concurrent reapers cannot both win.

Corrupt lease files are quarantined as ``*.corrupt`` evidence
(:func:`repro.durable.quarantine`) and treated as immediately
reclaimable: a lease that cannot prove liveness does not grant one.
No write here creates a directory, so a lease write into a retired
campaign fails instead of re-creating it.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from typing import Any, Dict, Optional

from repro import durable
from repro.counters import Counters

_COUNTERS = Counters(
    "leases", ("acquired", "renewed", "released", "reclaimed", "lost", "corrupt")
)


def lease_info() -> Dict[str, int]:
    """Process-wide lease counters (acquired/renewed/reclaimed/...)."""
    return _COUNTERS.snapshot()


def reset_lease_info() -> None:
    """Zero the counters (tests)."""
    _COUNTERS.reset()


def new_owner_id() -> str:
    """A globally unique lease owner: ``host:pid:nonce``.

    The host and pid feed the same-host dead-owner fast path; the nonce
    keeps two workers in one recycled pid distinct.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def owner_pid(owner: str) -> Optional[int]:
    """The pid embedded in an owner id, or ``None`` if unparsable."""
    parts = owner.rsplit(":", 2)
    if len(parts) != 3:
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


def owner_host(owner: str) -> Optional[str]:
    """The hostname embedded in an owner id, or ``None`` if unparsable."""
    parts = owner.rsplit(":", 2)
    if len(parts) != 3:
        return None
    return parts[0]


def _lease_document(owner: str, seq: int, ttl: float) -> bytes:
    return json.dumps(
        {"owner": owner, "seq": seq, "ts": time.time(), "ttl": ttl}
    ).encode("utf-8")


def acquire(path: str, owner: str, ttl: float) -> bool:
    """Claim a lease by publishing a whole document.  False when contested.

    The lease never exists half-written, so a sibling's reaper can never
    read an empty claim as a torn write and reclaim it.
    """
    try:
        if not durable.write_link(path, _lease_document(owner, 0, ttl)):
            return False  # Contested.
    except OSError:
        return False
    _COUNTERS.add("acquired")
    return True


def read_lease(path: str) -> Optional[Dict[str, Any]]:
    """The lease document, or ``None`` when absent.

    A present-but-unreadable lease is quarantined as
    ``*.corrupt`` evidence and reported as a sentinel document with
    ``seq`` and ``ts`` of 0 -- i.e. immediately stale -- because a
    lease that cannot prove liveness does not grant one.
    """
    try:
        with open(path, "rb") as stream:
            raw = stream.read()
    except FileNotFoundError:
        return None
    except OSError:
        return None
    try:
        document = json.loads(raw.decode("utf-8"))
        if not isinstance(document, dict) or "owner" not in document:
            raise ValueError("not a lease document")
    except ValueError:
        if durable.quarantine(path) is not None:
            _COUNTERS.add("corrupt")
        return {"owner": "", "seq": 0, "ts": 0.0, "ttl": 0.0, "corrupt": True}
    return document


def renew(path: str, owner: str, seq: int, ttl: float) -> bool:
    """Heartbeat: bump the lease's sequence number and timestamp.

    Re-reads the lease first and refuses to write unless this owner
    still holds it -- a zombie worker whose lease was reclaimed must
    not resurrect the claim.  Returns whether the lease is still held.
    """
    current = read_lease(path)
    if current is None or current.get("owner") != owner:
        _COUNTERS.add("lost")
        return False
    try:
        durable.write_replace(path, _lease_document(owner, seq, ttl))
    except OSError:
        return False
    _COUNTERS.add("renewed")
    return True


def release(path: str, owner: str) -> bool:
    """Drop a lease this owner holds (no-op when already reclaimed)."""
    current = read_lease(path)
    if current is None or current.get("owner") != owner:
        return False
    try:
        os.unlink(path)
    except OSError:
        return False
    _COUNTERS.add("released")
    return True


def reclaim(path: str, reclaimer: str) -> Optional[Dict[str, Any]]:
    """Take a stale lease away from its (dead) owner.

    Atomic against concurrent reapers: the lease is renamed to a
    tombstone unique to this reclaimer first -- only one rename can
    win -- then read and removed.  Returns the dead lease's document,
    or ``None`` when another reaper (or a surprise heartbeat's
    ``os.replace``) got there first.
    """
    tombstone = f"{path}.{reclaimer.rsplit(':', 1)[-1]}.reclaim"
    try:
        os.rename(path, tombstone)
    except OSError:
        return None
    document = read_lease(tombstone)
    try:
        os.unlink(tombstone)
    except OSError:
        pass
    _COUNTERS.add("reclaimed")
    return document if document is not None else {"owner": "", "seq": 0}


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


class Reaper:
    """Staleness detector for the leases of one campaign.

    Stateful on purpose: wall-clock timestamps from another machine may
    be skewed, so besides the timestamp check the reaper tracks, per
    lease, when *it* last saw the sequence number move (its own
    monotonic clock).  A lease is stale when any of these holds:

    * its owner's pid is dead and the owner is on this host (fast
      path -- no TTL wait after a local SIGKILL),
    * its heartbeat timestamp is more than a TTL in the past,
    * its sequence number has not moved for a TTL of observation.
    """

    def __init__(self, ttl: float) -> None:
        self.ttl = float(ttl)
        self._host = socket.gethostname()
        #: path -> (last seen seq, monotonic time it was first seen).
        self._observations: Dict[str, Any] = {}

    def forget(self, path: str) -> None:
        """Drop the observation history of a resolved lease."""
        self._observations.pop(path, None)

    def is_stale(self, path: str, lease: Dict[str, Any]) -> bool:
        """Whether a lease's owner is provably or presumably dead."""
        if lease.get("corrupt"):
            return True
        owner = str(lease.get("owner", ""))
        pid = owner_pid(owner)
        if pid is not None and owner_host(owner) == self._host:
            if not _pid_alive(pid):
                return True
        timestamp = float(lease.get("ts", 0) or 0)
        if timestamp and time.time() - timestamp > self.ttl:
            return True
        seq = lease.get("seq", 0)
        now = time.monotonic()
        seen = self._observations.get(path)
        if seen is None or seen[0] != seq:
            self._observations[path] = (seq, now)
            return not timestamp  # A ts of 0 is stale on sight.
        return now - seen[1] > self.ttl
