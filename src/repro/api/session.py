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
first with the trace each item's ``(spec, instructions, seed)`` head
names.  A computed experiment is one sweep (:meth:`Session.suite_sweep`
splits its rows by suite afterwards), so a parallel experiment makes
one campaign and at most one priming pool, whose children keep no
trace.  The config is the only source of that policy; the queue and
priming workers receive it as an object and run under it.  While a
session executes, its config is *activated* (see
:func:`repro.api.runtime_config.activated`) so every layer below --
cache directories, the result store, the executor -- sees one
consistent snapshot instead of re-reading the environment.

The activated config is the only "current" state:
:func:`current_session` is a session over
:func:`repro.api.runtime_config.current_config`, so the experiment
drivers follow whatever config is active -- in a worker process too,
whatever its start method -- and, outside any activation, the process
snapshot resolved from ``REPRO_*`` on first use.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import islice
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Union

from repro.api import runtime_config as rc
from repro.api.plan import (
    DEFAULT_SWEEP_CONFIGS,
    SWEEP_METRICS,
    ExperimentPlan,
    FrontendSweepPlan,
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
    clear_trace_cache,
    trace_in_memory,
    trace_on_disk,
    workload_trace,
)

#: What a workload argument may be: a catalog name or a spec.
WorkloadLike = Union[str, WorkloadSpec]


def _prime_worker(args) -> None:
    """Generate one trace into the shared disk cache (priming pool child).

    Runs under the sweep's config, handed over with the key, so the
    trace lands in the session's cache directory whatever the start
    method.  It hands the trace over on disk and keeps nothing.
    """
    config, spec, instructions, seed = args
    with rc.activated(config):
        workload_trace(spec, instructions, seed=seed)
    clear_trace_cache()


def _default_prime_keys(arguments: Sequence) -> "List[tuple]":
    """The trace keys a sweep's items name, each once, in item order.

    An item whose head is ``(WorkloadSpec, int, int)`` names the trace
    ``(spec, instructions, seed)`` (the item shape :meth:`Session.map`
    documents); any other item names none.
    """
    return list(
        dict.fromkeys(
            args[:3]
            for args in arguments
            if isinstance(args, tuple)
            and len(args) >= 3
            and isinstance(args[0], WorkloadSpec)
            and all(type(number) is int for number in args[1:3])
        )
    )


def _prime_shared_traces(keys: Sequence, config: rc.RuntimeConfig) -> None:
    """Populate the shared trace cache for a sweep before forking.

    ``keys`` are ``(spec, instructions, seed)`` triples.  Traces this
    process does not hold and the disk layer lacks are generated *in
    parallel* under ``config`` by a pool of :func:`_prime_worker`
    children (none for one trace or one process).  Then the parent
    loads every key into its in-memory cache and writes the traces it
    already held to the disk, so sweep workers find every trace present
    -- inherited on fork platforms, disk-loaded otherwise -- instead of
    each regenerating its own.
    """
    missing = [
        (config, *key)
        for key in keys
        if not trace_in_memory(*key) and not trace_on_disk(*key)
    ]
    processes = min(len(missing), config.processes or os.cpu_count() or 1)
    if processes > 1:
        with multiprocessing.Pool(processes) as pool:
            pool.map(_prime_worker, missing)
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

    def activate(self) -> ContextManager[rc.RuntimeConfig]:
        """Make this session's config the active one for a scope.

        :func:`current_session` then answers with a session over this
        config, so code below (the experiment drivers) routes its
        sweeps through it.
        """
        return rc.activated(self._config)

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
        config, so the disk layer follows the session.
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
    ) -> ExperimentPlan:
        """Declare a selection of registered experiments (default: all).

        Returns an :class:`ExperimentPlan` that executes through the
        orchestrator under this session's config: store-first and
        resumable.
        """
        if names is None:
            from repro.results.orchestrator import registry_names

            names = registry_names()
        return ExperimentPlan(
            session=self,
            names=tuple(names),
            scenario_names=tuple(scenario_names) if scenario_names else None,
            instructions=instructions,
        )

    def explore(
        self,
        grid: Any,
        workloads: Optional[Sequence[WorkloadLike]] = None,
        sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
        instructions: Optional[int] = None,
        seed: int = 0,
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
        from repro.explore.plan import DEFAULT_EXPLORE_WORKLOADS, ExplorePlan

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
            objectives=() if objectives is None else objectives,
            use_store=use_store,
        )

    # -- the sweep engine --------------------------------------------

    def map(self, worker: Callable, arguments: Sequence) -> List:
        """Run a per-workload sweep worker over its items.

        A per-workload item is a tuple ``(spec, instructions, seed,
        *rest)``: its head names the one trace the worker reads,
        ``workload_trace(spec, instructions, seed=seed)``, and ``rest``
        is the worker's own arguments.  Every worker the package sweeps
        takes that shape, and the primer reads the head of each item
        (see :meth:`map_report`).

        Returns every item's value in argument order, or raises a
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
        the config (a fault's ``index`` is an item's position in
        ``arguments``).  Before the queue spawns workers, the shared disk
        trace cache is primed under the session's ``trace_cache_dir``
        with the traces the items' ``(spec, instructions, seed)`` heads
        name.  Queue campaigns live under the config's ``queue_dir``,
        else under the result store, so a killed sweep rerun with the
        same store replays the items already published and computes
        only the rest.
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
        instructions: int,
        extra_args: Sequence = (),
        names: Optional[Sequence[str]] = None,
        specs: Optional[Sequence[WorkloadSpec]] = None,
    ) -> "tuple[List[WorkloadSpec], List]":
        """Sweep a per-workload worker over one workload selection.

        Runs one item per spec, each at the seed-0 trace (see
        :func:`_sweep_items`), through :meth:`map`.  Returns ``(specs,
        rows)`` with rows in spec order.
        """
        if specs is None:
            specs = self.workloads(names=names)
        specs = list(specs)
        return specs, self.map(worker, _sweep_items(specs, instructions, extra_args))

    def suite_sweep(
        self,
        worker: Callable,
        instructions: int,
        extra_args: Sequence = (),
        suites: Optional[Sequence[Suite]] = None,
    ) -> "List[tuple]":
        """Sweep a per-workload worker over every suite's workloads at once.

        Returns ``[(suite, specs, rows), ...]`` in figure order, the rows
        of one :meth:`map` (items as in :meth:`workload_sweep`) split by
        suite -- the per-suite glue shared by the Section III/IV
        drivers, so each experiment keeps only its own aggregation.
        """
        from repro.workloads.suites import SUITE_ORDER

        suites = suites or SUITE_ORDER
        groups = [(suite, self.workloads(suites=[suite])) for suite in suites]
        flat = [spec for _, specs in groups for spec in specs]
        rows = iter(self.map(worker, _sweep_items(flat, instructions, extra_args)))
        return [
            (suite, specs, list(islice(rows, len(specs)))) for suite, specs in groups
        ]


def _sweep_items(
    specs: Sequence[WorkloadSpec], instructions: int, extra_args: Sequence
) -> "List[tuple]":
    """One ``(spec, instructions, 0, *extra_args)`` item per spec.

    The experiment drivers sweep the seed-0 trace of every workload.
    """
    return [(spec, instructions, 0, *extra_args) for spec in specs]


def current_session() -> Session:
    """A session over the current config (the activated one, else the
    process snapshot).

    The experiment drivers call this so that work initiated through an
    explicit session (``session.experiment("fig5").execute()``), or run
    by a worker under a handed config, runs under that config, while
    direct driver calls run under the process snapshot.
    """
    return Session(rc.current_config())
