"""Content-addressed experiment result store (memory + optional disk).

Every experiment result is keyed by a SHA-256 digest of its *complete*
provenance: the experiment name, the full semantic configuration
(instruction budget, geometries, scenario names, CMP names, ...), the
workload set it ran over, the RNG seed, and the code-relevant engine
versions (the trace-cache version plus this store's own version and the
artifact schema).  Two processes that would compute the same numbers
therefore derive the same key, and any change that could alter the
numbers derives a different one.

The store mirrors :mod:`repro.workloads.trace_cache`: an in-process
dictionary layer is always on (its counters are the ``results`` group
of :mod:`repro.counters`), and an optional XDG-style disk layer
lives in the current config's ``result_cache_dir``
(``REPRO_RESULT_CACHE_DIR``: unset means "no disk layer" for library
use, while the CLI defaults it to the per-user directory; ``none``/
``off``/``0``/empty disables it everywhere).  Disk entries land whole
through :mod:`repro.durable` -- last writer wins for
:func:`store_result`, first writer wins for :func:`store_result_cas`
-- and the disk layer is best-effort: a write that fails leaves the
memory layer to answer.  Corrupt or truncated entries are quarantined
as ``*.corrupt`` evidence and treated as misses, so a damaged cache can
only cost a recompute, never a wrong answer.  Only the stored (v2)
artifact form validates on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro import durable
from repro.api import runtime_config
from repro.api.frame import FRAME_SCHEMA_VERSION
from repro.counters import Counters
from repro.results.artifacts import ARTIFACT_SCHEMA_VERSION, valid_artifact
from repro.source_digest import source_digest
from repro.workloads.trace_cache import TRACE_CACHE_VERSION

#: Version salt folded into every result key.  Bump when experiment
#: semantics change in a way the configuration cannot see.
RESULT_STORE_VERSION = 1

#: In-process layer: key digest -> artifact.
_MEMORY: Dict[str, Dict[str, Any]] = {}
#: Guards the compare-and-swap of :func:`store_result_cas` on ``_MEMORY``.
_LOCK = threading.Lock()

_COUNTERS = Counters(
    "results",
    (
        "hits",
        "misses",
        "stores",
        "disk_hits",
        "disk_misses",
        "disk_stores",
        "quarantined",
        "cas_stores",
        "cas_identical",
        "cas_conflicts",
    ),
    {"entries": lambda: len(_MEMORY)},
)


def resolved_result_dir() -> Optional[str]:
    """The active disk-store directory, or ``None`` when disabled.

    The current config's ``result_cache_dir`` (see
    :func:`repro.api.runtime_config.current_config`).
    """
    return runtime_config.current_config().result_cache_dir


def code_fingerprint() -> str:
    """Digest of the installed ``repro`` package source.

    Folded into every result key so *any* code change invalidates
    stored results instead of silently serving pre-change numbers --
    the store never has to trust a manual version bump.  Conservative
    on purpose: a docstring edit costs a recompute, a semantics edit
    can never reuse a stale entry.  :func:`repro.source_digest.
    source_digest` memoizes it.
    """
    return source_digest()


def result_key(
    experiment: str,
    config: Mapping[str, Any],
    workloads: Sequence[str],
    seed: int = 0,
) -> str:
    """Content-address of one experiment result.

    The key material is serialized as canonical JSON (sorted keys, no
    whitespace), so the digest is stable across processes, platforms,
    and dictionary insertion orders.  The package source fingerprint is
    part of the material, so results computed by different code never
    share a key.  No runtime knob is part of it: execution details
    (parallelism, executors, cache locations) never change the numbers.
    """
    material = {
        "experiment": experiment,
        "config": config,
        "workloads": list(workloads),
        "seed": int(seed),
        "versions": {
            "artifact_schema": ARTIFACT_SCHEMA_VERSION,
            "code": code_fingerprint(),
            "frame_schema": FRAME_SCHEMA_VERSION,
            "result_store": RESULT_STORE_VERSION,
            "trace_cache": TRACE_CACHE_VERSION,
        },
    }
    canonical = json.dumps(
        material, sort_keys=True, separators=(",", ":"), default=_canonical_default
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical_default(value: Any) -> Any:
    """JSON fallback for key material (enums by name, sets sorted)."""
    if hasattr(value, "name") and hasattr(value, "value"):
        return value.name  # Enum members.
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"unhashable result-key component: {value!r}")


def load_result(key: str, experiment: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """Fetch a stored artifact by key, memory layer first, then disk.

    A disk hit is promoted into the memory layer.  Returns ``None`` on
    a miss (including corrupt, truncated, or mismatched disk entries).
    """
    artifact = _MEMORY.get(key)
    if artifact is not None:
        _COUNTERS.add("hits")
    else:
        _COUNTERS.add("misses")
        if resolved_result_dir() is not None:
            artifact = _load_from_disk(key, experiment)
            if artifact is None:
                _COUNTERS.add("disk_misses")
            else:
                _COUNTERS.add("disk_hits")
                _MEMORY[key] = artifact
    return artifact


def store_result(key: str, artifact: Dict[str, Any]) -> None:
    """Insert an artifact under its key (memory, then best-effort disk)."""
    _MEMORY[key] = artifact
    _COUNTERS.add("stores")
    if _store_to_disk(key, artifact):
        _COUNTERS.add("disk_stores")


def artifact_etag(artifact: Dict[str, Any]) -> str:
    """Content tag of an artifact: digest of its canonical JSON.

    The generation check of the CAS path: two writes are "the same
    result" exactly when their etags match, independent of dict
    insertion order or which process produced them.
    """
    canonical = json.dumps(
        artifact, sort_keys=True, separators=(",", ":"), default=_canonical_default
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def store_result_cas(
    key: str, artifact: Dict[str, Any], experiment: Optional[str] = None
) -> Tuple[str, Dict[str, Any]]:
    """First-writer-wins insert: the store's compare-and-swap path.

    :func:`store_result` is last-writer-wins, which is fine for a
    single-writer pipeline but ambiguous when two workers publish the
    same key concurrently (a reclaimed-but-alive queue worker racing
    its replacement).  This path resolves the race deterministically:

    * ``("stored", artifact)`` -- this writer created the entry.
    * ``("identical", winner)`` -- an entry with the same etag already
      exists; the benign double-completion, counted as such.
    * ``("conflict", winner)`` -- an entry with a *different* etag
      exists.  The first writer's artifact stands everywhere (and is
      returned so callers converge on it); the loser's bytes are
      preserved as ``*.conflict`` evidence next to the entry and the
      conflict is counted, never silently clobbered.

    The disk leg is :func:`repro.durable.write_link`: the whole entry
    is linked into place, which both fails on an existing entry (the
    compare) and can never expose a torn file to a concurrent reader.
    """
    path = _entry_path(key)
    if path is not None:
        status, winner = _cas_to_disk(path, key, artifact, experiment)
    else:
        status, winner = None, artifact  # Memory-only CAS below.
    with _LOCK:
        if status is None:
            existing = _MEMORY.get(key)
            if existing is None:
                status, winner = "stored", artifact
            elif artifact_etag(existing) == artifact_etag(artifact):
                status, winner = "identical", existing
            else:
                status, winner = "conflict", existing
        _MEMORY[key] = winner
    if status == "stored":
        _COUNTERS.add("stores")
        _COUNTERS.add("cas_stores")
        if path is not None:
            _COUNTERS.add("disk_stores")
    elif status == "identical":
        _COUNTERS.add("cas_identical")
    else:
        _COUNTERS.add("cas_conflicts")
    return status, winner


def _cas_to_disk(
    path: str, key: str, artifact: Dict[str, Any], experiment: Optional[str]
) -> Tuple[str, Dict[str, Any]]:
    """The disk leg of :func:`store_result_cas` (see its docstring)."""
    etag = artifact_etag(artifact)
    # Insertion order is preserved (like the plain store): only the
    # etag comparison is canonical, the entry round-trips verbatim.
    data = json.dumps({"key": key, "artifact": artifact, "etag": etag}).encode("utf-8")
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for _ in range(5):
            if durable.write_link(path, data):
                return "stored", artifact
            existing = _load_from_disk(key, experiment)
            if existing is not None:
                if artifact_etag(existing) == etag:
                    return "identical", existing
                try:
                    durable.write_link(durable.free_name(path, ".conflict"), data)
                except OSError:
                    pass  # Evidence is best-effort; the verdict stands.
                return "conflict", existing
            if os.path.exists(path):
                # A valid entry of *different* provenance (key prefix
                # collision) occupies the slot; replace it exactly as
                # the plain store would.
                break
            # A corrupt entry was quarantined away: retry the link.
        durable.write_replace(path, data)
    except OSError:
        pass  # The disk layer is best-effort: memory wins.
    return "stored", artifact


def clear_result_store() -> None:
    """Drop the in-process layer and reset the counters (tests).

    The disk layer is left untouched -- it is the cross-process layer a
    resumed run replays from.
    """
    _MEMORY.clear()
    _COUNTERS.reset()


def result_store_info() -> Dict[str, int]:
    """Hit/miss/store counters of the result store (both layers)."""
    return _COUNTERS.snapshot()


def _entry_path(key: str) -> Optional[str]:
    directory = resolved_result_dir()
    if directory is None:
        return None
    return os.path.join(directory, f"{key[:32]}.json")


def _load_from_disk(key: str, experiment: Optional[str]) -> Optional[Dict[str, Any]]:
    path = _entry_path(key)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as stream:
            entry = json.load(stream)
    except OSError:
        return None  # Unreadable (permissions, transient IO): a plain miss.
    except ValueError:
        # Damaged bytes (torn write, truncation): quarantine the entry
        # as ``*.corrupt`` evidence and recompute.  Entries below that
        # merely mismatch (key prefix collision, schema change) are
        # valid files from other provenance and stay untouched.
        if durable.quarantine(path) is not None:
            _COUNTERS.add("quarantined")
        return None
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    artifact = entry.get("artifact")
    if not valid_artifact(artifact, experiment):
        return None
    return artifact


def _store_to_disk(key: str, artifact: Dict[str, Any]) -> bool:
    path = _entry_path(key)
    if path is None:
        return False
    # Concurrent writers (the orchestrator's --parallel workers,
    # overlapping CLI invocations) may race on the same key, and a
    # reader must never observe a half-written entry.  Last writer wins
    # with identical content.
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        durable.write_replace(
            path, json.dumps({"key": key, "artifact": artifact}).encode("utf-8")
        )
    except OSError:
        return False  # Disk store is best-effort.
    return True
