"""The Session: one typed entry point for the whole pipeline.

A :class:`Session` owns all runtime state -- a frozen
:class:`~repro.api.runtime_config.RuntimeConfig` resolved once at
construction (explicit argument > ``REPRO_*`` environment variable >
default) -- and exposes the pipeline behind typed methods::

    from repro.api import Session

    session = Session(instructions=60_000)
    trace = session.trace("FT")                       # workloads -> traces
    plan = session.sweep(workloads=["FT", "LU"])      # declarative plan
    frame = plan.execute()                            # -> ResultFrame
    print(frame.to_csv())

Execution primitives
--------------------
:meth:`Session.map` is the sweep engine every experiment driver routes
through: serial by default, fanned out over the durable work queue of
:mod:`repro.exec` when the session's config says so -- with per-item
retries, worker replacement, resume of killed campaigns, and
structured failure reports -- and the shared disk trace cache primed
first.  The config is the only source of that policy; the queue and
priming workers receive it as an object and run under it.  While a
session executes, its config is *activated* (see
:func:`repro.api.runtime_config.activated`) so every layer below --
cache directories, the result store, the executor -- sees one
consistent snapshot instead of re-reading the environment.

Code that runs outside any session (a driver called directly, say)
uses the **default session** (:func:`default_session`): a session
built on first use from the process snapshot that
:func:`repro.api.runtime_config.current_config` answers with, so both
agree and neither re-reads the environment afterwards.
"""

from __future__ import annotations

import contextlib
import contextvars
import multiprocessing
import os
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.api import runtime_config as rc
from repro.api.frame import ResultFrame
from repro.api.plan import (
    DEFAULT_SWEEP_CONFIGS,
    SWEEP_METRICS,
    ExperimentPlan,
    FrontendSweepPlan,
    Plan,
)
from repro.frontend.configs import FrontEndConfig
from repro.frontend.simulation import (
    FrontEndResult,
    simulate_frontend,
    simulate_frontend_many,
)
from repro.trace.events import Trace
from repro.trace.instruction import CodeSection
from repro.workloads.catalog import get_workload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import (
    trace_in_memory,
    trace_on_disk,
    workload_trace,
)

#: What a workload argument may be: a catalog name or a spec.
WorkloadLike = Union[str, WorkloadSpec]


def parallel_map(
    function: Callable,
    items: Sequence,
    processes: Optional[int] = None,
) -> List:
    """Map ``function`` over ``items`` across worker processes, in order.

    ``function`` must be picklable (a module-level function).  With one
    item or one worker, falls back to a plain in-process map.  This is
    the pool that primes the disk trace cache before a parallel sweep
    (:func:`_prime_shared_traces`); the sweep itself runs on the work
    queue.
    """
    items = list(items)
    if processes is None:
        processes = min(len(items), os.cpu_count() or 1)
    if processes <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    with multiprocessing.Pool(processes) as pool:
        return pool.map(function, items)


def _prime_worker(args) -> None:
    """Generate one trace into the shared disk cache (worker side).

    Runs under the sweep's config, handed over with the key, so the
    trace lands in the session's cache directory whatever the start
    method.
    """
    config, spec, instructions, seed = args
    with rc.activated(config):
        workload_trace(spec, instructions, seed=seed)


def _default_prime_keys(arguments: Sequence) -> "List[tuple]":
    """Prime keys inferred from conventional driver argument tuples.

    Tuples shaped ``(spec, instructions, ...)`` are primed; the seed is
    taken from the third position when it is a plain ``int`` (the
    ``(spec, instructions, seed, ...)`` worker convention) and defaults
    to 0 otherwise.  The check is ``type(...) is int`` on purpose:
    drivers also pass ``(spec, instructions, section)`` tuples whose
    :class:`~repro.trace.instruction.CodeSection` is an ``IntEnum`` and
    must not be misread as a seed, and a CMP exploration chunk
    ``(spec, instructions, chips)`` profiles the seed-0 trace.
    """
    keys = []
    seen = set()
    for args in arguments:
        if (
            isinstance(args, tuple)
            and len(args) >= 2
            and isinstance(args[0], WorkloadSpec)
            and isinstance(args[1], int)
        ):
            seed = args[2] if len(args) >= 3 and type(args[2]) is int else 0
            key = (args[0], args[1], seed)
            if key in seen:
                continue
            seen.add(key)
            keys.append(key)
    return keys


def _prime_shared_traces(keys: Sequence, config: rc.RuntimeConfig) -> None:
    """Populate the shared trace cache for a sweep before forking.

    ``keys`` are ``(spec, instructions, seed)`` triples.  Traces this
    process does not hold and the disk layer lacks are generated *in
    parallel* under ``config`` (each priming worker stores its ``.npz``
    atomically).  Then the parent loads every key into its in-memory
    cache and writes the traces it already held to the disk, so sweep
    workers find every trace present -- inherited on fork platforms,
    disk-loaded otherwise -- instead of each regenerating its own.
    """
    missing = [
        (config, *key)
        for key in keys
        if not trace_in_memory(*key) and not trace_on_disk(*key)
    ]
    if len(missing) > 1:
        parallel_map(_prime_worker, missing, config.processes)
    for spec, instructions, seed in keys:
        workload_trace(spec, instructions, seed=seed)


class Session:
    """Owns runtime state; every pipeline stage hangs off it.

    ``config`` may be a ready-made :class:`~repro.api.runtime_config.
    RuntimeConfig`; keyword overrides take precedence over environment
    variables, which take precedence over defaults (resolved once,
    here).  A provided config object is taken verbatim.
    """

    def __init__(
        self, config: Optional[rc.RuntimeConfig] = None, **overrides: Any
    ) -> None:
        if config is None:
            config = rc.RuntimeConfig.from_environment(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self._config = config

    # -- configuration -----------------------------------------------

    @property
    def config(self) -> rc.RuntimeConfig:
        """The session's frozen runtime config."""
        return self._config

    @contextlib.contextmanager
    def activate(self) -> Iterator["Session"]:
        """Make this session's config the active one for a scope.

        Also makes the session :func:`current_session` for the scope,
        so code below (the experiment drivers) routes its sweeps
        through it.
        """
        token = _CURRENT.set(self)
        try:
            with rc.activated(self._config):
                yield self
        finally:
            _CURRENT.reset(token)

    # -- workload selection ------------------------------------------

    def workload(self, workload: WorkloadLike) -> WorkloadSpec:
        """Resolve a catalog name (or pass a spec through)."""
        if isinstance(workload, WorkloadSpec):
            return workload
        return get_workload(workload)

    def workloads(
        self,
        suites: Optional[Sequence[Suite]] = None,
        names: Optional[Sequence[str]] = None,
    ) -> List[WorkloadSpec]:
        """Select workloads: all 41 by default, or by suite/name.

        Delegates to :func:`repro.workloads.catalog.select_workloads`.
        """
        from repro.workloads.catalog import select_workloads

        return select_workloads(
            suites=list(suites) if suites is not None else None,
            names=list(names) if names is not None else None,
        )

    # -- pipeline stages ---------------------------------------------

    def trace(
        self,
        workload: WorkloadLike,
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> Trace:
        """Build (or reuse) a workload's dynamic trace.

        Routed through the shared trace cache under this session's
        config, so the disk layer and cache namespace follow the
        session.
        """
        spec = self.workload(workload)
        if instructions is None:
            instructions = self.config.instructions
        with self.activate():
            return workload_trace(spec, instructions, seed=seed)

    def frontend(
        self,
        workload: WorkloadLike,
        config: FrontEndConfig,
        section: CodeSection = CodeSection.TOTAL,
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> FrontEndResult:
        """Simulate one front-end configuration over one workload."""
        trace = self.trace(workload, instructions, seed=seed)
        with self.activate():
            return simulate_frontend(trace, config, section)

    def frontend_many(
        self,
        workload: WorkloadLike,
        configs: Sequence[FrontEndConfig],
        sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> Dict[Any, FrontEndResult]:
        """Simulate many configurations over one workload, batched."""
        trace = self.trace(workload, instructions, seed=seed)
        with self.activate():
            return simulate_frontend_many(trace, tuple(configs), tuple(sections))

    # -- declarative plans -------------------------------------------

    def sweep(
        self,
        workloads: Optional[Sequence[WorkloadLike]] = None,
        configs: Optional[Sequence[FrontEndConfig]] = None,
        metrics: Optional[Sequence[str]] = None,
        sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> FrontendSweepPlan:
        """Declare a workloads x configs x sections front-end sweep.

        Returns a :class:`FrontendSweepPlan`; nothing runs until
        ``execute()``.  Defaults: the full 41-workload catalog, the
        baseline and tailored Section V front-ends, all three MPKI
        metrics, the TOTAL section, and the session's instruction
        budget.
        """
        specs = (
            self.workloads()
            if workloads is None
            else [self.workload(w) for w in workloads]
        )
        return FrontendSweepPlan(
            session=self,
            workloads=tuple(specs),
            configs=tuple(configs) if configs is not None else DEFAULT_SWEEP_CONFIGS,
            sections=tuple(sections),
            metrics=tuple(metrics) if metrics is not None else SWEEP_METRICS,
            instructions=(
                self.config.instructions if instructions is None else int(instructions)
            ),
            seed=int(seed),
        )

    def experiment(self, name: str, **options: Any) -> ExperimentPlan:
        """Declare one registered paper experiment (see ``experiments``)."""
        return self.experiments([name], **options)

    def experiments(
        self,
        names: Optional[Sequence[str]] = None,
        scenario_names: Optional[Sequence[str]] = None,
        instructions: Optional[int] = None,
        use_store: bool = True,
    ) -> ExperimentPlan:
        """Declare a selection of registered experiments (default: all).

        Returns an :class:`ExperimentPlan` that executes through the
        orchestrator under this session's config: store-first,
        dependency-deriving, resumable.
        """
        if names is None:
            from repro.results.orchestrator import registry_names

            names = registry_names()
        return ExperimentPlan(
            session=self,
            names=tuple(names),
            scenario_names=tuple(scenario_names) if scenario_names else None,
            instructions=instructions,
            use_store=use_store,
        )

    def explore(
        self,
        grid: Any,
        workloads: Optional[Sequence[WorkloadLike]] = None,
        sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
        instructions: Optional[int] = None,
        seed: int = 0,
        chunk_points: Optional[int] = None,
        objectives: Optional[Sequence[str]] = None,
        use_store: bool = True,
    ) -> "Any":
        """Declare a design-space exploration over a grid.

        ``grid`` is a :class:`~repro.explore.grid.GridSpec` (or a
        preset name from :data:`~repro.explore.grid.GRID_PRESETS`).
        Returns an :class:`~repro.explore.plan.ExplorePlan`; nothing
        runs until ``execute()``/``result()``.  Grid points are
        evaluated in content-addressed chunks through the batched
        engines, so interrupted explorations resume by replaying stored
        chunks, and ``objectives`` (default: the grid kind's standard
        area/power/performance triple) select the Pareto frontier.
        """
        from repro.explore.grid import GridSpec, get_grid
        from repro.explore.plan import (
            DEFAULT_CHUNK_POINTS,
            DEFAULT_EXPLORE_WORKLOADS,
            ExplorePlan,
        )

        if isinstance(grid, str):
            grid = get_grid(grid)
        if not isinstance(grid, GridSpec):
            raise TypeError(
                f"expected a GridSpec or preset name, got {type(grid).__name__}"
            )
        names = DEFAULT_EXPLORE_WORKLOADS if workloads is None else workloads
        return ExplorePlan(
            session=self,
            grid=grid,
            workloads=tuple(self.workload(w) for w in names),
            sections=tuple(sections),
            instructions=(
                self.config.instructions if instructions is None else int(instructions)
            ),
            seed=int(seed),
            chunk_points=(
                DEFAULT_CHUNK_POINTS if chunk_points is None else int(chunk_points)
            ),
            objectives=() if objectives is None else objectives,
            use_store=use_store,
        )

    def run(self, plan: Plan) -> ResultFrame:
        """Execute a plan (equivalent to ``plan.execute()``)."""
        return plan.execute()

    # -- the sweep engine --------------------------------------------

    def map(self, worker: Callable, arguments: Sequence) -> List:
        """Run a per-workload sweep worker over its argument tuples.

        The historical "list of values" contract over
        :meth:`map_report`: every item's value in argument order, or a
        :class:`repro.exec.SweepError` carrying the structured failure
        report (and the partial results) when any item permanently
        failed.
        """
        return self.map_report(worker, arguments).values()

    def map_report(self, worker: Callable, arguments: Sequence):
        """Run a sweep under supervision; return the full SweepReport.

        The session's config is the execution policy, handed to the
        executor whole: ``parallel`` runs the sweep on the work queue
        with ``processes`` workers, anything else runs it serially
        in-process, both with per-item retries and fault injection from
        the config.  Before the queue spawns workers, the shared disk
        trace cache is primed under the session's ``trace_cache_dir``
        with the traces the argument tuples name (see
        :func:`_default_prime_keys`).  Queue campaigns live under the
        config's ``queue_dir``, else under the result store, so a
        killed sweep rerun with the same store replays the items
        already published and computes only the rest.
        """
        from repro.exec.executors import SerialExecutor, execute_items
        from repro.exec.queue import QueueExecutor

        config = self.config
        executor = QueueExecutor() if config.parallel else SerialExecutor()
        with self.activate():
            if config.parallel and config.trace_cache_dir is not None:
                _prime_shared_traces(_default_prime_keys(arguments), config)
            return execute_items(worker, arguments, config, executor)

    def workload_sweep(
        self,
        worker: Callable,
        extra_args: Sequence = (),
        names: Optional[Sequence[str]] = None,
        specs: Optional[Sequence[WorkloadSpec]] = None,
    ) -> "tuple[List[WorkloadSpec], List]":
        """Sweep a per-workload worker over one workload selection.

        Builds the conventional ``(spec, *extra_args)`` argument tuples
        and runs them through :meth:`map`.  Returns ``(specs, rows)``
        with rows in spec order -- the flat-sweep glue every
        per-benchmark driver used to hand-roll.
        """
        if specs is None:
            specs = self.workloads(names=names)
        specs = list(specs)
        arguments = [(spec, *extra_args) for spec in specs]
        return specs, self.map(worker, arguments)

    def suite_sweep(
        self,
        worker: Callable,
        extra_args: Sequence = (),
        suites: Optional[Sequence[Suite]] = None,
    ) -> "List[tuple]":
        """Sweep a per-workload worker suite by suite.

        Returns ``[(suite, specs, rows), ...]`` in figure order -- the
        per-suite loop glue shared by the Section III/IV drivers, so
        each experiment keeps only its own aggregation.
        """
        from repro.workloads.suites import SUITE_ORDER

        results = []
        for suite in suites or SUITE_ORDER:
            specs = self.workloads(suites=[suite])
            arguments = [(spec, *extra_args) for spec in specs]
            results.append((suite, specs, self.map(worker, arguments)))
        return results


#: The default session, once built (see :func:`default_session`).
_DEFAULT: Optional[Session] = None
_DEFAULT_LOCK = threading.Lock()

#: The innermost session activated via :meth:`Session.activate` -- a
#: :class:`~contextvars.ContextVar` so threads cannot cross-contaminate.
_CURRENT: "contextvars.ContextVar[Optional[Session]]" = contextvars.ContextVar(
    "repro_current_session", default=None
)


def default_session() -> Session:
    """The process-wide session behind code run outside any session.

    Built on first use from :func:`repro.api.runtime_config.
    process_snapshot`: its config is the snapshot
    :func:`~repro.api.runtime_config.current_config` answers with
    outside any activation, so the two always agree.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = Session(rc.process_snapshot())
        return _DEFAULT


def current_session() -> Session:
    """The session executing right now, else the default session.

    The experiment drivers call this so that work initiated through an
    explicit session (``session.experiment("fig5").execute()``) runs
    under that session's config, while direct driver calls run under
    the default session.
    """
    current = _CURRENT.get()
    if current is not None:
        return current
    return default_session()
