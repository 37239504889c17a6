"""Declarative plans: what to run, separated from how it runs.

A :class:`Plan` captures a complete description of work -- which
workloads, which front-end configurations, which metrics, which
registered paper experiments, or which exploration grid -- bound to the
:class:`~repro.api.session.Session` that will execute it.  Building a
plan performs no simulation; :meth:`Plan.execute` compiles it onto the
existing engines (the batched
:func:`repro.frontend.simulation.simulate_frontend_many`, the shared
trace cache, the orchestrator's content-addressed store) under the
session's :class:`~repro.api.runtime_config.RuntimeConfig` and yields a
columnar :class:`~repro.api.frame.ResultFrame`.

The Plan protocol
-----------------
Every plan -- :class:`FrontendSweepPlan`, :class:`ExperimentPlan`, and
:class:`~repro.explore.plan.ExplorePlan` -- implements the same
three-method surface, so callers (the CLI, notebooks, higher-level
tooling) can hold any of them behind one interface:

``execute() -> ResultFrame``
    Run the plan and return its canonical columnar result.
``frame() -> ResultFrame``
    The plan's primary frame.  For store-backed plans this is the
    *stored payload* frame (slice with ``select()``/``column()``);
    plans that compute directly alias :meth:`execute`.
``outcome() -> PlanOutcome``
    Run the plan and return the frame together with its provenance:
    the plan kind, the plan's content-addressed key, and
    whether the result was served from the store (``"cached"``) or
    computed this run.

``describe()`` stays the side-effect-free semantic description used for
logging and content addressing.

The module-level sweep worker is deliberately a plain picklable
function, so plans fan out through :meth:`Session.map
<repro.api.session.Session.map>` like the experiment drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
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
from repro.frontend.simulation import FrontEndResult, simulate_frontend_many
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


def _metric_value(result: FrontEndResult, metric: str) -> float:
    if metric == "branch_mpki":
        return result.branch.mpki
    if metric == "btb_mpki":
        return result.btb.mpki
    if metric == "icache_mpki":
        return result.icache.mpki
    raise KeyError(f"unknown sweep metric {metric!r}; expected one of {SWEEP_METRICS}")


def _sweep_worker(args) -> Dict[Tuple[str, CodeSection], FrontEndResult]:
    """Per-workload worker: every configuration over one shared trace.

    Module-level (and argument-tuple shaped like the driver workers:
    ``(spec, instructions, ...)``) so parallel execution can pickle it
    and the sweep primer recognises and pre-generates its traces.
    """
    spec, instructions, seed, configs, sections = args
    trace = workload_trace(spec, instructions, seed=seed)
    return simulate_frontend_many(trace, configs, sections)


@dataclass(frozen=True)
class PlanOutcome:
    """What one executed plan produced, with provenance.

    ``kind``
        The plan flavour (``"frontend-sweep"``, ``"experiments"``,
        ``"explore"``).
    ``key``
        The plan's content-addressed key -- the identity a rerun would
        resolve against.
    ``status``
        ``"cached"`` when the result was served entirely from the
        store, ``"computed"`` otherwise (orchestrator statuses such as
        ``"derived"`` pass through).
    ``frame``
        The plan's primary :class:`ResultFrame`.
    ``details``
        Plan-specific accounting (chunk counts, experiment titles, ...).
    """

    kind: str
    key: str
    status: str
    frame: ResultFrame
    details: Dict[str, Any]


class Plan:
    """Base class of every declarative plan.

    Subclasses implement the protocol documented in the module
    docstring: :meth:`execute` and :meth:`describe` are required;
    :meth:`frame` defaults to :meth:`execute`, and :meth:`outcome`
    wraps it with ``"computed"`` provenance for plans that do not
    track store service themselves.
    """

    def execute(self) -> ResultFrame:
        """Run the plan and return its columnar result."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """Plain-dict description of everything the plan will do."""
        raise NotImplementedError

    def frame(self) -> ResultFrame:
        """The plan's primary frame (defaults to :meth:`execute`)."""
        return self.execute()

    def outcome(self) -> PlanOutcome:
        """Execute and return the frame with provenance attached."""
        description = self.describe()
        return PlanOutcome(
            kind=str(description.get("kind", type(self).__name__)),
            key="",
            status="computed",
            frame=self.execute(),
            details={},
        )


@dataclass(frozen=True)
class FrontendSweepPlan(Plan):
    """workloads x front-end configurations x sections -> metrics.

    Compiles to one batched :func:`simulate_frontend_many` call per
    workload (each section's branch/line streams decoded once for all
    configurations), fanned out through the session's pool when its
    config says so.  The resulting frame has one row per (workload,
    section, configuration) with the requested metric columns.
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

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "frontend-sweep",
            "workloads": [spec.name for spec in self.workloads],
            "configs": [config.name for config in self.configs],
            "sections": [section.name for section in self.sections],
            "metrics": list(self.metrics),
            "instructions": self.instructions,
            "seed": self.seed,
            "runtime": self.session.config.describe(),
        }

    def key(self) -> str:
        """Content address of this sweep (the :class:`PlanOutcome` key).

        A digest of the plan's full provenance via
        :func:`repro.results.store.result_key`, which also folds in the
        package source fingerprint.
        """
        import dataclasses

        from repro.results.store import result_key

        return result_key(
            "frontend-sweep-plan",
            {
                "configs": [dataclasses.asdict(config) for config in self.configs],
                "sections": [section.name for section in self.sections],
                "instructions": self.instructions,
            },
            [spec.name for spec in self.workloads],
            seed=self.seed,
        )

    def execute(self) -> ResultFrame:
        arguments = [
            (spec, self.instructions, self.seed, self.configs, self.sections)
            for spec in self.workloads
        ]
        results = self.session.map(_sweep_worker, arguments)
        rows: List[List[Any]] = []
        for spec, by_key in zip(self.workloads, results):
            for section in self.sections:
                for config in self.configs:
                    result = by_key[(config.name, section)]
                    rows.append(
                        [spec.name, spec.suite.label, section.name, config.name]
                        + [_metric_value(result, metric) for metric in self.metrics]
                    )
        return ResultFrame.from_rows(
            ("workload", "suite", "section", "config") + self.metrics, rows
        )

    def outcome(self) -> PlanOutcome:
        """Execute and return the sweep frame with its key.

        Sweep plans are not stored as whole results, so the status is
        always ``"computed"``.
        """
        return PlanOutcome(
            kind="frontend-sweep",
            key=self.key(),
            status="computed",
            frame=self.execute(),
            details={
                "workloads": [spec.name for spec in self.workloads],
                "configs": [config.name for config in self.configs],
            },
        )


@dataclass(frozen=True)
class ExperimentPlan(Plan):
    """A selection of registered paper experiments, store-backed.

    Executes through the orchestrator under the session's runtime
    config: results are looked up in the content-addressed store first,
    derived from dependencies when possible, computed otherwise, and
    stored the moment they complete.
    """

    session: "Session"
    names: Tuple[str, ...]
    scenario_names: Optional[Tuple[str, ...]] = None
    instructions: Optional[int] = None
    use_store: bool = True

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "experiments",
            "experiments": list(self.names),
            "scenarios": list(self.scenario_names or ()) or None,
            "instructions": self._instructions(),
            "use_store": self.use_store,
            "runtime": self.session.config.describe(),
        }

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
                use_store=self.use_store,
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

        The same frame as :meth:`frame`: the stored payload frame the
        Plan protocol calls canonical.  A multi-experiment plan has no
        single canonical frame and raises; use :meth:`report`.
        """
        return self.frame()

    def outcome(self) -> PlanOutcome:
        """Execute and return the single selected experiment's outcome.

        The orchestrator's store status (``"cached"``, ``"derived"``,
        ``"computed"``) passes straight through.  A multi-experiment
        plan has no single outcome; use :meth:`report`.
        """
        outcome = self._sole_outcome()
        return PlanOutcome(
            kind="experiments",
            key=outcome.key,
            status=outcome.status,
            frame=outcome.stored_frame(),
            details={"experiment": outcome.name, "title": outcome.title},
        )
