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
dictionary layer is always on, and an optional XDG-style disk layer
lives in the current config's ``result_cache_dir``
(``REPRO_RESULT_CACHE_DIR``: unset means "no disk layer" for library
use, while the CLI defaults it to the per-user directory; ``none``/
``off``/``0``/empty disables it everywhere).  Disk entries are written
atomically (write-then-rename); corrupt or truncated entries are
quarantined as ``*.corrupt`` evidence and treated as misses, so a
damaged cache can only cost a recompute, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.api import runtime_config
from repro.api.frame import FRAME_SCHEMA_VERSION
from repro.results.artifacts import ARTIFACT_SCHEMA_VERSION, valid_artifact
from repro.source_digest import source_digest
from repro.workloads.trace_cache import TRACE_CACHE_VERSION, register_stats_provider

#: Environment variable selecting the on-disk result-store directory.
#: Owned by :mod:`repro.api.runtime_config`; re-exported here.
RESULT_CACHE_DIR_VARIABLE = runtime_config.RESULT_CACHE_DIR_VARIABLE

#: Version salt folded into every result key.  Bump when experiment
#: semantics change in a way the configuration cannot see.
RESULT_STORE_VERSION = 1

#: Memoized digest of the package source (see :func:`code_fingerprint`).
_CODE_FINGERPRINT: Optional[str] = None

#: In-process layer: key digest -> artifact.
_MEMORY: Dict[str, Dict[str, Any]] = {}
_LOCK = threading.Lock()
_STATS = {
    "hits": 0,
    "misses": 0,
    "stores": 0,
    "disk_hits": 0,
    "disk_misses": 0,
    "disk_stores": 0,
    "quarantined": 0,
    "cas_stores": 0,
    "cas_identical": 0,
    "cas_conflicts": 0,
    # Read-path accounting (the results service reads these): every
    # load_result call, how many resolved to an artifact from either
    # layer, and the cumulative wall time spent loading -- so a serving
    # layer can report store-read latency without wrapping every call.
    "loads": 0,
    "load_hits": 0,
    "load_ns": 0,
}


def default_result_store_dir() -> str:
    """Per-user shared result-store directory (platformdirs-style)."""
    return runtime_config.default_result_cache_dir()


def resolved_result_dir() -> Optional[str]:
    """The active disk-store directory, or ``None`` when disabled.

    The current config's ``result_cache_dir`` joined with its cache
    namespace (see :func:`repro.api.runtime_config.current_config`).
    """
    return runtime_config.current_result_cache_dir()


def code_fingerprint() -> str:
    """Digest of the installed ``repro`` package source (memoized).

    Folded into every result key so *any* code change invalidates
    stored results instead of silently serving pre-change numbers --
    the store never has to trust a manual version bump.  Conservative
    on purpose: a docstring edit costs a recompute, a semantics edit
    can never reuse a stale entry.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        _CODE_FINGERPRINT = source_digest()
    return _CODE_FINGERPRINT


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
    started = time.perf_counter_ns()
    with _LOCK:
        _STATS["loads"] += 1
        cached = _MEMORY.get(key)
        if cached is not None:
            _STATS["hits"] += 1
            _STATS["load_hits"] += 1
            _STATS["load_ns"] += time.perf_counter_ns() - started
            return cached
        _STATS["misses"] += 1

    if resolved_result_dir() is None:
        with _LOCK:
            _STATS["load_ns"] += time.perf_counter_ns() - started
        return None
    artifact = _load_from_disk(key, experiment)
    with _LOCK:
        _STATS["load_ns"] += time.perf_counter_ns() - started
        if artifact is None:
            _STATS["disk_misses"] += 1
            return None
        _STATS["disk_hits"] += 1
        _STATS["load_hits"] += 1
        _MEMORY[key] = artifact
    return artifact


def store_result(key: str, artifact: Dict[str, Any]) -> None:
    """Insert an artifact under its key (memory, then best-effort disk)."""
    with _LOCK:
        _MEMORY[key] = artifact
        _STATS["stores"] += 1
    if _store_to_disk(key, artifact):
        with _LOCK:
            _STATS["disk_stores"] += 1


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

    Disk-layer atomicity is hardlink-based: the entry is fully written
    to a temporary file and then ``os.link``-ed into place, which both
    fails on an existing entry (the compare) and can never expose a
    torn half-written file to a concurrent reader.
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
            _STATS["stores"] += 1
            _STATS["cas_stores"] += 1
            if path is not None:
                _STATS["disk_stores"] += 1
        elif status == "identical":
            _STATS["cas_identical"] += 1
        else:
            _STATS["cas_conflicts"] += 1
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
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle, temporary = tempfile.mkstemp(suffix=".json.tmp", dir=directory)
    except OSError:
        return "stored", artifact  # No disk layer reachable: memory wins.
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        for _ in range(5):
            try:
                os.link(temporary, path)
                return "stored", artifact
            except FileExistsError:
                existing = _load_from_disk(key, experiment)
                if existing is not None:
                    if artifact_etag(existing) == etag:
                        return "identical", existing
                    _preserve_conflict(path, data)
                    return "conflict", existing
                if os.path.exists(path):
                    # A valid entry of *different* provenance (key
                    # prefix collision) occupies the slot; replace it
                    # exactly as the plain store would.
                    os.replace(temporary, path)
                    temporary = None
                    return "stored", artifact
                # Corrupt entry was quarantined away: retry the link.
            except OSError:
                return "stored", artifact  # Disk is best-effort.
        os.replace(temporary, path)
        temporary = None
        return "stored", artifact
    except OSError:
        return "stored", artifact
    finally:
        if temporary is not None:
            try:
                os.unlink(temporary)
            except OSError:
                pass


def _preserve_conflict(path: str, data: bytes) -> None:
    """Keep a CAS loser's bytes as ``*.conflict`` evidence (best effort)."""
    evidence = path + ".conflict"
    attempt = 0
    while os.path.exists(evidence):
        attempt += 1
        evidence = f"{path}.conflict.{attempt}"
    try:
        with open(evidence, "wb") as stream:
            stream.write(data)
    except OSError:
        pass


def clear_result_store() -> None:
    """Drop the in-process layer and reset the counters (tests).

    The disk layer is left untouched -- it is the cross-process layer a
    resumed run replays from.
    """
    with _LOCK:
        _MEMORY.clear()
        for counter in _STATS:
            _STATS[counter] = 0


def result_store_info() -> Dict[str, int]:
    """Hit/miss/store counters of the result store (both layers)."""
    with _LOCK:
        info = dict(_STATS)
        info["entries"] = len(_MEMORY)
        return info


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
        from repro.exec.leases import quarantine_entry

        if quarantine_entry(path) is not None:
            with _LOCK:
                _STATS["quarantined"] += 1
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
    # Write-then-rename keeps the store atomic: concurrent writers (the
    # orchestrator's --parallel workers, overlapping CLI invocations)
    # may race on the same key, and a reader must never observe a
    # half-written entry.  Last writer wins with identical content.
    temporary = None
    try:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle, temporary = tempfile.mkstemp(suffix=".json.tmp", dir=directory)
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump({"key": key, "artifact": artifact}, stream)
        os.replace(temporary, path)
    except OSError:
        if temporary is not None:
            try:
                os.unlink(temporary)
            except OSError:
                pass
        return False  # Disk store is best-effort.
    return True


register_stats_provider("results", result_store_info)
