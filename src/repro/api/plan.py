"""Declarative plans: what to run, separated from how it runs.

A plan captures a complete description of work -- which workloads,
which front-end configurations, which metrics, which registered paper
experiments, or which exploration grid -- bound to the
:class:`~repro.api.session.Session` that will execute it.  Building a
plan performs no simulation; ``execute()`` compiles it onto the
existing engines (the batched
:func:`repro.frontend.simulation.simulate_frontend_many`, the shared
trace cache, the orchestrator's content-addressed store) under the
session's :class:`~repro.api.runtime_config.RuntimeConfig` and yields a
columnar :class:`~repro.api.frame.ResultFrame`.

Each plan -- :class:`FrontendSweepPlan`, :class:`ExperimentPlan`, and
:class:`~repro.explore.plan.ExplorePlan` -- has ``execute()``, which
returns its primary frame.  Provenance is read where it is computed:
:meth:`ExperimentPlan.report` returns the orchestrator's
:class:`~repro.results.orchestrator.RunReport` (each experiment's
status, ``"computed"`` or ``"cached"``, and its store key), and
:meth:`ExplorePlan.result() <repro.explore.plan.ExplorePlan.result>`
returns every frame with its cached and computed chunk counts.

The front-end rows worker :func:`frontend_rows` is a plain picklable
function that :class:`FrontendSweepPlan` and the exploration's
front-end chunks share, fanned out through :meth:`Session.map
<repro.api.session.Session.map>` like the experiment drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    List,
    Optional,
    Tuple,
)

from repro.api.frame import ResultFrame
from repro.frontend.configs import (
    BASELINE_FRONTEND,
    TAILORED_FRONTEND,
    FrontEndConfig,
)
from repro.frontend.simulation import simulate_frontend_many
from repro.trace.instruction import CodeSection
from repro.workloads.spec import WorkloadSpec
from repro.workloads.trace_cache import workload_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.api.session import Session

#: The front-end metrics a sweep plan can report, in column order.
SWEEP_METRICS: Tuple[str, ...] = ("branch_mpki", "btb_mpki", "icache_mpki")

#: The configurations swept when a plan does not name any: the two
#: Section V core flavours.
DEFAULT_SWEEP_CONFIGS: Tuple[FrontEndConfig, ...] = (
    BASELINE_FRONTEND,
    TAILORED_FRONTEND,
)


def frontend_rows(args) -> List[List[Any]]:
    """Per-workload worker: every configuration over one shared trace.

    Takes ``(spec, instructions, seed, configs, sections)``, a sweep
    item headed by its trace like every per-workload worker's (see
    :meth:`Session.map <repro.api.session.Session.map>`), and returns
    one ``[section, config, branch_mpki, btb_mpki, icache_mpki]`` row
    per (section, configuration), sections outermost.  Front-end sweep
    plans and front-end exploration chunks both run it.
    """
    spec, instructions, seed, configs, sections = args
    trace = workload_trace(spec, instructions, seed=seed)
    results = simulate_frontend_many(trace, configs, sections)
    rows: List[List[Any]] = []
    for section in sections:
        for config in configs:
            result = results[(config.name, section)]
            mpki = (result.branch.mpki, result.btb.mpki, result.icache.mpki)
            rows.append([section.name, config.name, *mpki])
    return rows


@dataclass(frozen=True)
class FrontendSweepPlan:
    """workloads x front-end configurations x sections -> metrics.

    Compiles to one sweep of :func:`frontend_rows`, one batched
    :func:`simulate_frontend_many` call per workload (each section's
    branch/line streams decoded once for all configurations), on the
    work queue when the session's config says so.  The resulting frame
    has one row per (workload, section, configuration) with the
    requested metric columns, picked from the worker's rows.
    """

    session: "Session"
    workloads: Tuple[WorkloadSpec, ...]
    configs: Tuple[FrontEndConfig, ...]
    sections: Tuple[CodeSection, ...]
    metrics: Tuple[str, ...]
    instructions: int
    seed: int = 0

    def __post_init__(self) -> None:
        # Results are keyed by config *name*, so duplicates would
        # silently collapse onto one config's numbers.
        names = [config.name for config in self.configs]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate front-end config name(s): {', '.join(duplicates)}; "
                "every swept configuration needs a unique name"
            )
        for metric in self.metrics:
            if metric not in SWEEP_METRICS:
                raise KeyError(
                    f"unknown sweep metric {metric!r}; "
                    f"expected one of {SWEEP_METRICS}"
                )
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError(
                "duplicate sweep metrics; each metric becomes one frame column"
            )

    def execute(self) -> ResultFrame:
        """Run the sweep and return its frame."""
        arguments = [
            (spec, self.instructions, self.seed, self.configs, self.sections)
            for spec in self.workloads
        ]
        # A worker row is [section, config, *SWEEP_METRICS].
        picks = [2 + SWEEP_METRICS.index(metric) for metric in self.metrics]
        results = self.session.map(frontend_rows, arguments)
        rows = [
            [spec.name, spec.suite.label, row[0], row[1]] + [row[i] for i in picks]
            for spec, workload_rows in zip(self.workloads, results)
            for row in workload_rows
        ]
        return ResultFrame.from_rows(
            ("workload", "suite", "section", "config") + self.metrics, rows
        )


@dataclass(frozen=True)
class ExperimentPlan:
    """A selection of registered paper experiments, store-backed.

    Executes through the orchestrator under the session's runtime
    config: results are looked up in the content-addressed store first,
    computed otherwise, and stored the moment they complete.
    """

    session: "Session"
    names: Tuple[str, ...]
    scenario_names: Optional[Tuple[str, ...]] = None
    instructions: Optional[int] = None

    def _instructions(self) -> int:
        if self.instructions is not None:
            return self.instructions
        return self.session.config.instructions

    def report(self):
        """Run the plan and return the orchestrator's full RunReport."""
        from repro.results.orchestrator import run_experiments

        with self.session.activate():
            return run_experiments(
                list(self.names),
                instructions=self._instructions(),
                scenario_names=(
                    list(self.scenario_names) if self.scenario_names else None
                ),
            )

    def _sole_outcome(self):
        """Run the plan and return its one experiment's outcome."""
        report = self.report()
        if len(report.outcomes) != 1:
            known = ", ".join(outcome.name for outcome in report.outcomes)
            raise ValueError(
                f"plan selects {len(report.outcomes)} experiments ({known}); "
                "name one with frame(experiment=...), or use report()"
            )
        return report.outcomes[0]

    def frame(
        self,
        experiment: Optional[str] = None,
        name: Optional[str] = None,
    ) -> ResultFrame:
        """Execute and return one stored payload frame.

        ``experiment`` defaults to the plan's only selection (a
        multi-experiment plan requires it); ``name`` defaults to the
        experiment's primary frame as declared in its artifact.
        """
        if experiment is None:
            outcome = self._sole_outcome()
        else:
            outcome = self.report().outcome(experiment)
        return outcome.stored_frame(name)

    def execute(self) -> ResultFrame:
        """Execute and return the selected experiment's primary frame.

        The same frame as :meth:`frame`: the stored payload frame.  A
        multi-experiment plan has no single primary frame and raises;
        use :meth:`report`.
        """
        return self.frame()
