"""Shared workload-trace cache (process-wide, plus an optional disk layer).

This is the single place a dynamic trace of a catalogued workload is
supposed to come from: every profiling layer (the experiment drivers,
the Section V CMP simulator, benchmarks, examples) routes through
:func:`workload_trace` so one trace per ``(spec, instructions, seed)``
exists per process, regardless of which driver asked first.  It is the
only in-memory trace layer: :meth:`SyntheticWorkload.trace
<repro.workloads.synthesis.SyntheticWorkload.trace>` just generates.

A cached trace holds no program.  Whether it was generated here or
loaded from disk, it keeps its four event columns and the five static
per-block arrays (:data:`~repro.trace.columns.STATIC_ARRAYS`) every
analysis and simulator reads, and builds its program only when
something asks for block objects (``trace.program``), keeping it from
then on.  Nothing else holds a built workload either
(:func:`~repro.workloads.synthesis.build_workload` builds anew on every
call), so the program and compiled schedule a trace was generated from
are freed as soon as it is cached.

The cache lives in the workloads layer -- below both ``experiments``
and ``uarch`` -- precisely so the micro-architecture simulator can use
it without a layering cycle.

A config's ``trace_cache_dir`` (``REPRO_TRACE_CACHE_DIR``) also
persists trace columns on disk as ``.npz`` files, so separate driver
*processes* (each CLI invocation is one, as is every ``--parallel``
worker) share traces too.  Sessions may share one directory: an entry
is named by its key and checked against its fingerprint, so a session
never loads another spec's trace.  In memory, every session of a
process shares one trace per key.  A parallel session built without
any trace-cache setting (see :meth:`repro.api.runtime_config.
RuntimeConfig.from_environment`) defaults the directory to a per-user one
(``$XDG_CACHE_HOME/repro-frontend/traces``, falling back to
``~/.cache``); name an explicit path to relocate it, or one of
``""``/``none``/``off``/``0`` to disable the disk layer entirely.

A disk entry ``{name}-{instructions}-{seed}.npz`` holds the four event
columns, the five static per-block arrays the trace's consumers read
(:data:`~repro.trace.columns.STATIC_ARRAYS`), and a fingerprint of
everything the bytes depend on: :data:`TRACE_CACHE_VERSION`, the NumPy
version, the workload spec, and the source of ``repro.trace`` and
``repro.workloads``.  The fingerprint is computed without building
anything, so checking or loading an entry never synthesizes the
workload: a loaded trace has the same program-free form as a
generated one.  A readable entry whose fingerprint
differs (or that lacks the static arrays) is stale and is regenerated
and overwritten; only an unreadable one is quarantined as
``*.corrupt``.  Entries are serialized in memory and land whole
through :func:`repro.durable.write_replace` (last writer wins), and the
disk layer is best-effort: a write that fails leaves the trace in
memory only.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro import durable
from repro.api import runtime_config
from repro.counters import Counters
from repro.source_digest import source_digest
from repro.trace.columns import STATIC_ARRAYS, ProgramColumns
from repro.trace.events import Trace
from repro.trace.program import Program
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthesis import build_workload

#: Version salt folded into the disk-cache fingerprint.  Bump when the
#: entry layout changes; code changes are already covered by the
#: source digest in :func:`trace_fingerprint`.
TRACE_CACHE_VERSION = 2

#: The subpackages whose source the trace bytes depend on (the same
#: scope as CI's trace-cache key), digested into every fingerprint.
_TRACE_SOURCE_PACKAGES = ("trace", "workloads")

#: Process-wide trace cache: (spec, instructions, seed) -> Trace.  The
#: key is everything the trace bytes depend on, so a modified spec that
#: keeps its catalog name gets its own entry.
_TRACES: Dict[Tuple[WorkloadSpec, int, int], Trace] = {}

_COUNTERS = Counters(
    "traces",
    ("hits", "misses", "disk_hits", "disk_misses", "disk_stores", "quarantined"),
    {"entries": lambda: len(_TRACES)},
)


def resolved_cache_dir() -> Optional[str]:
    """The active disk-cache directory, or ``None`` when disabled.

    The current config's ``trace_cache_dir`` (see
    :func:`repro.api.runtime_config.current_config`).
    """
    return runtime_config.current_config().trace_cache_dir


def trace_in_memory(spec: WorkloadSpec, instructions: int, seed: int = 0) -> bool:
    """Whether this process already holds the trace for this key."""
    return (spec, int(instructions), int(seed)) in _TRACES


def trace_on_disk(spec: WorkloadSpec, instructions: int, seed: int = 0) -> bool:
    """Whether the disk layer holds a *loadable* trace for this key.

    Compares the stored fingerprint with :func:`trace_fingerprint`
    without building the workload, so sweep priming regenerates exactly
    the traces that need it.
    """
    path = _disk_cache_path(spec, int(instructions), int(seed))
    if path is None or not os.path.exists(path):
        return False
    try:
        with np.load(path) as archive:
            return _is_current(archive, spec)
    except Exception:
        _quarantine_trace_entry(path)  # Unreadable archive: preserve it.
        return False


def workload_trace(
    spec: WorkloadSpec,
    instructions: Optional[int] = None,
    seed: int = 0,
) -> Trace:
    """Return the workload's trace, generating it on a miss.

    Traces are cached process-wide, keyed by ``(spec, instructions,
    seed)``, so the experiment drivers share one trace per workload
    instead of each regenerating all of them.  Repeated calls with the
    same key return the *same* object.  A generated trace is cached
    without the workload it came from, in the form a disk-loaded one
    has: its ``program`` is built again on first access.  A config with a
    ``trace_cache_dir`` also persists trace columns on disk and shares
    them across driver processes; a trace already held in memory is
    written to the current directory when that directory lacks it.
    An omitted ``instructions`` is the current config's budget.
    """
    if instructions is None:
        instructions = runtime_config.current_config().instructions
    key = (spec, int(instructions), int(seed))
    cached = _TRACES.get(key)
    if cached is not None:
        _COUNTERS.add("hits")
        # A trace held since another directory was current fills this one.
        path = _disk_cache_path(*key)
        if path is not None and not os.path.exists(path):
            if _store_trace_to_disk(cached, *key):
                _COUNTERS.add("disk_stores")
        return cached
    _COUNTERS.add("misses")

    trace = _load_trace_from_disk(*key)
    if trace is not None:
        _COUNTERS.add("disk_hits")
    else:
        if resolved_cache_dir() is not None:
            _COUNTERS.add("disk_misses")
        generated = build_workload(spec).trace(int(instructions), seed=seed)
        trace = _program_free_trace(spec, generated.event_columns(), generated.static)
        if _store_trace_to_disk(trace, *key):
            _COUNTERS.add("disk_stores")
    _TRACES[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop every cached trace (mainly for tests and memory pressure).

    Results memoized per trace (the section streams, the Section V
    profiles) are weakly keyed by the trace and go with it, as does a
    program a trace built on request.
    """
    _TRACES.clear()
    _COUNTERS.reset()


def trace_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide trace cache.

    ``disk_hits``/``disk_misses``/``disk_stores`` count the optional
    ``.npz`` layer; they stay zero while it is disabled.
    """
    return _COUNTERS.snapshot()


def _disk_cache_path(spec: WorkloadSpec, instructions: int, seed: int) -> Optional[str]:
    directory = resolved_cache_dir()
    if directory is None:
        return None
    return os.path.join(directory, f"{spec.name}-{instructions}-{seed}.npz")


def trace_fingerprint(spec: WorkloadSpec) -> str:
    """Digest of everything a cached trace of ``spec`` depends on.

    :data:`TRACE_CACHE_VERSION`, the NumPy version, every field of the
    spec (serialized stably), and the source of the trace and workloads
    subpackages.  Computed without building the workload.
    """
    material = {
        "version": TRACE_CACHE_VERSION,
        "numpy": np.__version__,
        "spec": dataclasses.asdict(spec),
        "source": source_digest(*_TRACE_SOURCE_PACKAGES),
    }
    # ``str`` renders the spec's only non-JSON fields, its enums.
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _is_current(archive, spec: WorkloadSpec) -> bool:
    """Whether an open archive is a complete entry for today's ``spec``.

    Reads only the fingerprint, before any column: an archive from
    older code is stale (regenerated and overwritten), not corrupt.
    """
    names = set(archive.files)
    if "fingerprint" not in names or not names.issuperset(STATIC_ARRAYS):
        return False
    return str(archive["fingerprint"]) == trace_fingerprint(spec)


def _build_program(spec: WorkloadSpec) -> Program:
    """The program of a cached trace, built when something asks for it."""
    return build_workload(spec).program


def _program_free_trace(
    spec: WorkloadSpec, columns: tuple, static: ProgramColumns
) -> Trace:
    """The one form the cache holds: event columns, static arrays, a loader."""
    return Trace.from_columns(
        functools.partial(_build_program, spec), *columns, name=spec.name, static=static
    )


def _load_trace_from_disk(
    spec: WorkloadSpec, instructions: int, seed: int
) -> Optional[Trace]:
    path = _disk_cache_path(spec, instructions, seed)
    if path is None or not os.path.exists(path):
        return None
    try:
        with np.load(path) as archive:
            if not _is_current(archive, spec):
                return None  # Stale: regenerated and overwritten.
            columns = (
                archive["block_ids"],
                archive["taken"],
                archive["targets"],
                archive["sections"],
            )
            static = ProgramColumns.from_arrays(
                *(archive[name] for name in STATIC_ARRAYS)
            )
    except Exception:
        # An unreadable archive (torn write, truncation, disk damage)
        # is evidence of a fault: quarantine it as ``*.corrupt`` and
        # regenerate.  A *stale* entry above is not quarantined -- it
        # is a valid archive from older code, simply superseded.
        _quarantine_trace_entry(path)
        return None
    return _program_free_trace(spec, columns, static)


def _quarantine_trace_entry(path: str) -> None:
    """Set an unreadable ``.npz`` aside as ``*.corrupt`` and count it."""
    if durable.quarantine(path) is not None:
        _COUNTERS.add("quarantined")


def _store_trace_to_disk(
    trace: Trace, spec: WorkloadSpec, instructions: int, seed: int
) -> bool:
    path = _disk_cache_path(spec, instructions, seed)
    if path is None:
        return False
    # The archive is serialized in memory and lands whole: the shared
    # directory is populated concurrently by parallel drivers, and a
    # reader must never observe a half-written archive.
    static = trace.static
    archive = io.BytesIO()
    np.savez_compressed(
        archive,
        block_ids=trace.block_ids,
        taken=trace.taken_column,
        targets=trace.target_column,
        sections=trace.section_column,
        fingerprint=np.str_(trace_fingerprint(spec)),
        **{name: getattr(static, name) for name in STATIC_ARRAYS},
    )
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        durable.write_replace(path, archive.getvalue())
    except OSError:
        return False  # Disk cache is best-effort.
    return True
