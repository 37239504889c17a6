"""Runtime configuration: the single owner of every ``REPRO_*`` knob.

This module is the **only** place in the package that reads a
``REPRO_*`` environment variable.  Everything the environment used to
configure at scattered call sites -- the two cache directories, sweep
parallelism, and the default instruction budget -- is captured by one
frozen :class:`RuntimeConfig` dataclass, resolved with *explicit
argument > environment variable > default* precedence.

The environment is read once per :class:`repro.api.session.Session`
(and by the CLI, which builds one) and once per process: code below a
session asks :func:`current_config`, which answers with the activated
config (see :func:`activated`) or, outside any activation, with the
process snapshot resolved from ``REPRO_*`` on first use.  Nothing
re-reads the environment after that, so a later change to it reaches
only configs and sessions built afterwards.  Worker processes never
read it either: a parallel sweep hands each worker the sweep's config
as an object, and the worker runs under :func:`activated`.

The module deliberately imports nothing from the rest of the package,
so every layer -- down to :mod:`repro.workloads.trace_cache` -- can
consult it without creating an import cycle.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

#: Environment variable selecting the on-disk trace-cache directory
#: (unset: no disk layer; ``none``/``off``/``0``/empty: disabled).
TRACE_CACHE_DIR_VARIABLE = "REPRO_TRACE_CACHE_DIR"

#: Environment variable selecting the on-disk result-store directory
#: (same unset/disable semantics as the trace cache).
RESULT_CACHE_DIR_VARIABLE = "REPRO_RESULT_CACHE_DIR"

#: Environment variable turning sweep parallelism on by default
#: (truthy values: ``1``/``true``/``yes``/``on``).
PARALLEL_VARIABLE = "REPRO_PARALLEL"

#: Environment variable fixing the worker-process count of parallel
#: sweeps (unset: the CPU count).
PROCESSES_VARIABLE = "REPRO_PROCESSES"

#: Environment variable overriding the default dynamic trace length.
INSTRUCTIONS_VARIABLE = "REPRO_INSTRUCTIONS"

#: Environment variable fixing the per-item retry count of supervised
#: sweeps (transient failures and worker deaths).
RETRIES_VARIABLE = "REPRO_RETRIES"

#: Environment variable fixing the base retry backoff delay (seconds).
RETRY_DELAY_VARIABLE = "REPRO_RETRY_DELAY"

#: Environment variable carrying a deterministic fault-injection plan
#: (inline JSON or a path to a JSON file; see :mod:`repro.exec.faults`).
FAULT_PLAN_VARIABLE = "REPRO_FAULT_PLAN"

#: Environment variable naming a cache namespace: a single path
#: component appended to both disk-cache directories (trace cache and
#: result store), so concurrent sessions pointed at the same roots
#: cannot collide (unset/blank: no namespace).
CACHE_NAMESPACE_VARIABLE = "REPRO_CACHE_NAMESPACE"

#: Environment variable naming the durable work-queue directory used by
#: parallel sweeps (unset/``none``: ``<result store>/queue``, or
#: a private per-campaign temporary directory without a result store; a
#: shared path is what lets external workers cooperate on a campaign).
QUEUE_DIR_VARIABLE = "REPRO_QUEUE_DIR"

#: Environment variable fixing the queue lease time-to-live in seconds:
#: how long a claimed item's heartbeat may go silent before the reaper
#: reclaims it from a presumed-dead worker.
LEASE_TTL_VARIABLE = "REPRO_LEASE_TTL"

#: Environment variable fixing the bind address of the results service
#: (``repro-frontend serve``).  Deployment-local: never folded into
#: result keys.
SERVE_HOST_VARIABLE = "REPRO_SERVE_HOST"

#: Environment variable fixing the TCP port of the results service
#: (``0``: an ephemeral OS-assigned port, the test-friendly default).
SERVE_PORT_VARIABLE = "REPRO_SERVE_PORT"

#: Default dynamic trace length used by the profiling layers.  Scaled
#: down from the paper's multi-billion-instruction runs so the full
#: 41-workload sweeps finish in minutes on a laptop; every caller
#: accepts an ``instructions`` override.
DEFAULT_INSTRUCTIONS = 150_000

#: Default per-item retry count of supervised sweeps.
DEFAULT_RETRIES = 2

#: Default base backoff delay between retries, in seconds.
DEFAULT_RETRY_DELAY = 0.05

#: Default queue lease time-to-live, in seconds.  Generous on purpose:
#: a reclaim re-runs the item, so false positives (a live worker merely
#: stalled past the TTL) cost duplicated work, while a true dead worker
#: only delays its items by the TTL.
DEFAULT_LEASE_TTL = 30.0

#: Default bind address of the results service: loopback only, so a
#: bare ``repro-frontend serve`` never exposes itself off-host.
DEFAULT_SERVE_HOST = "127.0.0.1"

#: Default results-service port.
DEFAULT_SERVE_PORT = 8757

#: Cache-directory values that disable a disk layer outright
#: (case-insensitive), shared by the trace cache and the result store.
CACHE_DISABLE_VALUES = frozenset({"", "0", "none", "off", "disabled"})

#: Truthy spellings accepted by boolean variables.
_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})


def _parse_bool(value: str) -> bool:
    return value.strip().lower() in _TRUE_VALUES


#: Each :class:`RuntimeConfig` field's environment variable and the
#: parser of its value, in documentation order.  A value that fails to
#: parse, or that the constructor rejects, resolves to the default.
_ENVIRONMENT: Dict[str, Tuple[str, Callable[[str], Any]]] = {
    "trace_cache_dir": (TRACE_CACHE_DIR_VARIABLE, str),
    "result_cache_dir": (RESULT_CACHE_DIR_VARIABLE, str),
    "parallel": (PARALLEL_VARIABLE, _parse_bool),
    "processes": (PROCESSES_VARIABLE, int),
    "instructions": (INSTRUCTIONS_VARIABLE, int),
    "retries": (RETRIES_VARIABLE, int),
    "retry_delay": (RETRY_DELAY_VARIABLE, float),
    "fault_plan": (FAULT_PLAN_VARIABLE, str),
    "cache_namespace": (CACHE_NAMESPACE_VARIABLE, str),
    "queue_dir": (QUEUE_DIR_VARIABLE, str),
    "lease_ttl": (LEASE_TTL_VARIABLE, float),
    "serve_host": (SERVE_HOST_VARIABLE, str),
    "serve_port": (SERVE_PORT_VARIABLE, int),
}

#: Every environment variable the runtime honours, in documentation
#: order.  The API-surface test pins this tuple: growing it is an API
#: change.
ENVIRONMENT_VARIABLES: Tuple[str, ...] = tuple(
    variable for variable, _ in _ENVIRONMENT.values()
)


def read_environment(name: str) -> Optional[str]:
    """Read one ``REPRO_*`` variable (the package's only such read).

    Every other module resolves runtime knobs through
    :class:`RuntimeConfig` or the ``current_*`` accessors, which funnel
    through here; grep for ``os.environ`` to verify.
    """
    return os.environ.get(name)


def default_trace_cache_dir() -> str:
    """Per-user shared trace-cache directory (platformdirs-style).

    Honours ``$XDG_CACHE_HOME`` and falls back to ``~/.cache``, the
    conventional per-user cache root on every platform this project
    targets.
    """
    return os.path.join(_cache_home(), "repro-frontend", "traces")


def default_result_cache_dir() -> str:
    """Per-user shared result-store directory (platformdirs-style)."""
    return os.path.join(_cache_home(), "repro-frontend", "results")


def _cache_home() -> str:
    return os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )


def normalize_cache_dir(value: Optional[str]) -> Optional[str]:
    """Map a cache-directory setting to an active path or ``None``.

    ``None`` and the disable spellings (``""``/``0``/``none``/``off``/
    ``disabled``, case-insensitive) mean "no disk layer"; anything else
    is the directory itself.
    """
    if value is None:
        return None
    if value.strip().lower() in CACHE_DISABLE_VALUES:
        return None
    return value


def normalize_cache_namespace(value: Optional[str]) -> Optional[str]:
    """Map a cache-namespace setting to a path component or ``None``.

    ``None`` and blank mean "no namespace".  A namespace must be a
    single path component -- separators and the ``.``/``..`` traversal
    spellings raise, because the namespace is joined under the cache
    roots and must not escape them.
    """
    if value is None:
        return None
    namespace = str(value).strip()
    if not namespace:
        return None
    if namespace in (".", "..") or any(
        sep in namespace for sep in ("/", "\\", os.sep)
    ):
        raise ValueError(
            f"invalid cache namespace {value!r}: must be a single "
            "path component (no separators, not '.' or '..')"
        )
    return namespace


def _namespaced(directory: Optional[str], namespace: Optional[str]) -> Optional[str]:
    """Join the cache namespace under an enabled cache directory."""
    if directory is None or namespace is None:
        return directory
    return os.path.join(directory, namespace)


@dataclass(frozen=True)
class RuntimeConfig:
    """Frozen snapshot of every runtime knob the package honours.

    Construct via :meth:`from_environment` (explicit keyword beats
    environment variable beats default, field by field) or directly
    with plain values.  Construction coerces and validates every knob
    (an out-of-range count raises) and normalizes the three directory
    fields to their *resolved* setting: ``None`` means "no disk
    layer", anything else is the active directory -- the
    ``none``-disables spelling is applied here, so consumers never
    re-parse it.
    """

    #: On-disk trace-cache directory, or ``None`` when disabled.
    trace_cache_dir: Optional[str] = None
    #: On-disk result-store directory, or ``None`` when disabled.
    result_cache_dir: Optional[str] = None
    #: Whether sweeps run on the work queue's worker processes
    #: (otherwise serially, in-process).
    parallel: bool = False
    #: Worker-process count for parallel sweeps (``None``: CPU count).
    processes: Optional[int] = None
    #: Default dynamic trace length per workload.
    instructions: int = DEFAULT_INSTRUCTIONS
    #: Per-item retries of supervised sweeps (0 disables retrying).
    retries: int = DEFAULT_RETRIES
    #: Base backoff delay between retries of a serial sweep, in seconds
    #: (a queue worker retries an item on its next scan).
    retry_delay: float = DEFAULT_RETRY_DELAY
    #: Deterministic fault-injection plan: inline JSON or a file path
    #: (``None``: no injection).  Parsed by :mod:`repro.exec.faults`.
    fault_plan: Optional[str] = None
    #: Cache namespace: one path component appended to both disk-cache
    #: directories, isolating concurrent sessions (``None``: none).
    cache_namespace: Optional[str] = None
    #: Durable work-queue directory of parallel sweeps (``None``: see
    #: :func:`current_queue_dir`).
    queue_dir: Optional[str] = None
    #: Queue lease time-to-live in seconds: heartbeat silence beyond
    #: this and the reaper reclaims the item.  Workers renew every
    #: ``lease_ttl / 6`` (:data:`repro.exec.queue.HEARTBEATS_PER_TTL`).
    lease_ttl: float = DEFAULT_LEASE_TTL
    #: Results-service bind address (deployment-local; never keyed).
    serve_host: str = DEFAULT_SERVE_HOST
    #: Results-service TCP port (``0``: OS-assigned ephemeral port).
    serve_port: int = DEFAULT_SERVE_PORT

    def __post_init__(self) -> None:
        def store(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        for name in ("trace_cache_dir", "result_cache_dir", "queue_dir"):
            store(name, normalize_cache_dir(getattr(self, name)))
        store("parallel", bool(self.parallel))
        for name in ("processes", "instructions", "retries", "serve_port"):
            if getattr(self, name) is not None:
                store(name, int(getattr(self, name)))
        store("retry_delay", float(self.retry_delay))
        store("lease_ttl", float(self.lease_ttl))
        store("fault_plan", self.fault_plan or None)
        store("cache_namespace", normalize_cache_namespace(self.cache_namespace))
        store("serve_host", str(self.serve_host).strip() or DEFAULT_SERVE_HOST)
        if self.processes is not None and self.processes < 1:
            raise ValueError(f"processes must be >= 1, got {self.processes}")
        if self.instructions < 1:
            raise ValueError(f"instructions must be >= 1, got {self.instructions}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.retry_delay <= 0:
            raise ValueError(f"retry_delay must be positive, got {self.retry_delay!r}")
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl!r}")
        if not 0 <= self.serve_port <= 65535:
            raise ValueError(
                f"serve_port must be in [0, 65535] (0: ephemeral), "
                f"got {self.serve_port!r}"
            )

    @classmethod
    def from_environment(cls, **explicit: Any) -> "RuntimeConfig":
        """Resolve a config with explicit > environment > default.

        ``explicit`` takes field names.  For the cache directories an
        explicit ``None`` (or any disable spelling) disables the disk
        layer even when the environment names a directory; an unset
        environment variable also means "disabled", matching the
        historical library default -- except under ``parallel``, where
        a fully unset trace-cache setting defaults to the per-user
        shared directory, so parallel workers share traces through the
        disk (an explicit disable still wins).  Explicit arguments are
        validated at construction and raise; an environment value that
        does not parse or would not validate (a non-positive count)
        falls back to the default instead.
        """
        values = dict(explicit)
        for name, (variable, parse) in _ENVIRONMENT.items():
            text = read_environment(variable)
            if name in values or text is None:
                continue
            try:
                value = parse(text)
                cls(**{name: value})
            except ValueError:
                continue
            values[name] = value
        if "trace_cache_dir" not in values and values.get("parallel"):
            values["trace_cache_dir"] = default_trace_cache_dir()
        return cls(**values)

    def replace(self, **changes: Any) -> "RuntimeConfig":
        """A copy with some fields changed (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> Dict[str, Any]:
        """Plain-dict form of every field (for logs and manifests)."""
        return dataclasses.asdict(self)


#: The activated config, or ``None`` outside any activation.  A
#: :class:`~contextvars.ContextVar` so concurrent sessions in separate
#: threads (or async tasks) cannot cross-contaminate.
_ACTIVE: "contextvars.ContextVar[Optional[RuntimeConfig]]" = contextvars.ContextVar(
    "repro_active_runtime_config", default=None
)

#: The process snapshot (see :func:`process_snapshot`), once resolved.
_PROCESS: Optional[RuntimeConfig] = None
_PROCESS_LOCK = threading.Lock()


def process_snapshot() -> RuntimeConfig:
    """What a ``Session()`` built now would resolve, captured once.

    The config resolved from ``REPRO_*`` on first use.
    :func:`current_config` answers with it outside any activation, and
    the default session is built from it, so the two always agree.
    Later changes to the environment never reach the snapshot.
    """
    global _PROCESS
    snapshot = _PROCESS
    if snapshot is None:
        with _PROCESS_LOCK:
            if _PROCESS is None:
                _PROCESS = RuntimeConfig.from_environment()
            snapshot = _PROCESS
    return snapshot


def current_config() -> RuntimeConfig:
    """The activated config, else the process snapshot."""
    active = _ACTIVE.get()
    if active is not None:
        return active
    return process_snapshot()


@contextlib.contextmanager
def activated(config: RuntimeConfig) -> Iterator[RuntimeConfig]:
    """Make ``config`` the active config for a scope (this context only).

    Scopes nest; the previous active config (usually none, i.e. the
    process snapshot) is restored on exit.
    """
    token = _ACTIVE.set(config)
    try:
        yield config
    finally:
        _ACTIVE.reset(token)


def current_trace_cache_dir() -> Optional[str]:
    """Current trace-cache directory (namespaced), or ``None`` when disabled."""
    config = current_config()
    return _namespaced(config.trace_cache_dir, config.cache_namespace)


def current_result_cache_dir() -> Optional[str]:
    """Current result-store directory (namespaced), or ``None`` when disabled."""
    config = current_config()
    return _namespaced(config.result_cache_dir, config.cache_namespace)


def current_queue_dir() -> Optional[str]:
    """Current work-queue directory, or ``None`` (ephemeral campaigns).

    The config's ``queue_dir``, else ``queue`` under the result store,
    so a killed parallel sweep resumes item by item wherever results
    persist.
    """
    config = current_config()
    if config.queue_dir is not None:
        return config.queue_dir
    store = current_result_cache_dir()
    return os.path.join(store, "queue") if store is not None else None
