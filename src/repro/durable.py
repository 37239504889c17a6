"""Durable file writes: the one way bytes land on disk in this package.

Every persistence layer -- the work queue's items, results and leases,
the content-addressed result store, the disk trace cache -- writes
through these helpers, so no reader ever observes a half-written file
and no set-aside name ever clobbers earlier evidence:

:func:`write_replace`
    Last writer wins.  The bytes land whole in a temporary sibling,
    which then ``os.replace``-s the target.
:func:`write_link`
    First writer wins.  The bytes land whole in a temporary sibling,
    which is then ``os.link``-ed to the target; the link fails when the
    target exists, which is the compare of every compare-and-swap here.
:func:`free_name` / :func:`quarantine`
    The numbered set-aside name ``<path><suffix>[.n]`` that preserves
    damaged entries (``*.corrupt``), conflicting publications
    (``*.conflict``) and failed outcomes (``*.failed``) as evidence.

No helper creates a directory: a caller that wants its directory made
makes it, so a write into a retired (deleted) campaign fails instead of
resurrecting it.  Like :mod:`repro.counters`, this module imports
nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

#: Suffix appended to quarantined (unreadable) entries.
CORRUPT_SUFFIX = ".corrupt"


def _discard(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _land(path: str, data: bytes) -> str:
    """Write ``data`` whole to a new temporary sibling of ``path``."""
    handle, temporary = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path))
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
    except BaseException:
        _discard(temporary)
        raise
    return temporary


def write_replace(path: str, data: bytes) -> None:
    """Put ``data`` at ``path`` whole, replacing any file there.

    Raises :class:`OSError` when the bytes cannot land (the directory
    is missing or unwritable); the old file, if any, is then intact and
    no temporary is left behind.
    """
    temporary = _land(path, data)
    try:
        os.replace(temporary, path)
    except BaseException:
        _discard(temporary)
        raise


def write_link(path: str, data: bytes) -> bool:
    """Put ``data`` at ``path`` whole unless a file is already there.

    Returns ``False`` when ``path`` exists (another writer won) and
    ``True`` when these bytes were published.  Raises :class:`OSError`
    on any other failure.
    """
    temporary = _land(path, data)
    try:
        os.link(temporary, path)
    except FileExistsError:
        return False
    finally:
        _discard(temporary)
    return True


def free_name(path: str, suffix: str) -> str:
    """The first of ``<path><suffix>``, ``<path><suffix>.1``, ... not taken."""
    candidate = path + suffix
    attempt = 0
    while os.path.exists(candidate):
        attempt += 1
        candidate = f"{path}{suffix}.{attempt}"
    return candidate


def quarantine(path: str, suffix: str = CORRUPT_SUFFIX) -> Optional[str]:
    """Rename a file to its free ``<path><suffix>[.n]`` name.

    Damaged bytes (or a failed item's outcome) are kept as evidence and
    the caller counts and recomputes.  Returns the new path, or
    ``None`` when the rename failed (the file is then left in place).
    """
    destination = free_name(path, suffix)
    try:
        os.replace(path, destination)
    except OSError:
        return None
    return destination
