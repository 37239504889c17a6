"""CMP scenario sweeps: arbitrary configuration grids over the workloads.

Generalizes the Section V comparison (Figures 10/11) into named
scenarios of :class:`~repro.uarch.sweep.SweepScenario` grids -- core
counts from 1 to 64, baseline/tailored/asymmetric mixes, private-L2
sizes -- evaluated with exactly the same profile -> schedule -> power
pipeline as the paper's four chips.  Exposed on the CLI as
``repro-frontend cmpsweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.frame import ResultFrame
from repro.api.session import current_session
from repro.experiments.common import (
    FrameResult,
    PayloadField,
    PivotView,
    experiment_instructions,
    fixed,
    mean,
    normalize_to_reference,
    render_blocks,
)
from repro.power.cmp_power import evaluate_cmp_energy
from repro.results.artifacts import TableBlock
from repro.results.spec import ExperimentSpec
from repro.uarch.simulator import profile_workload_frontend, run_on_cmp
from repro.uarch.sweep import SweepScenario, get_scenario, standard_scenarios
from repro.workloads.suites import Suite

#: Metrics reported per scenario grid point.
SWEEP_METRICS = ("time", "power", "energy")

#: Workloads the sweep evaluates by default: the Figure 11 selection (a
#: representative HPC/desktop mix) keeps full grids tractable; pass
#: ``workloads=`` or ``suites=`` for broader coverage.
DEFAULT_SWEEP_WORKLOADS = ("CoEVP", "CoMD", "fma3d", "FT", "h264ref", "gobmk")


@dataclass
class CmpSweepResult(FrameResult):
    """Normalized metrics for every scenario grid point and workload.

    Frames:

    ``summary`` (primary)
        One row per (scenario, metric, cmp): workload-mean normalized
        value.
    ``workloads``
        One row per (scenario, workload, metric, cmp): normalized
        value.
    """

    instructions: int
    scenarios: List[SweepScenario] = field(default_factory=list)
    workloads: List[str] = field(default_factory=list)
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "summary"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.scalar("scenarios"),
        PayloadField.scalar("workloads"),
        PayloadField.pivot(
            "per_workload",
            "workloads",
            [["scenario"], ["workload"], ["metric"], ["cmp"]],
            value="value",
        ),
        PayloadField.pivot(
            "summary",
            "summary",
            [["scenario"], ["metric"], ["cmp"]],
            value="value",
        ),
    )

    def views(self) -> Sequence[PivotView]:
        return tuple(
            PivotView(
                frame="summary",
                index=(("cmp", "configuration", str),),
                key=("metric",),
                value="value",
                header=lambda key: str(key[0]),
                cell=fixed(3),
                filter=(("scenario", scenario.name),),
                title=(
                    f"scenario {scenario.name}: {scenario.description}\n"
                    f"(workload-mean, normalized to {scenario.reference.name})"
                ),
                name=scenario.name,
            )
            for scenario in self.scenarios
        )


def _sweep_workload(args) -> Dict[str, Dict[str, float]]:
    """Per-workload worker: normalized metrics on one scenario grid."""
    spec, instructions, cmps = args
    profile = profile_workload_frontend(spec, instructions)
    absolute: Dict[str, Dict[str, float]] = {metric: {} for metric in SWEEP_METRICS}
    for cmp in cmps:
        run = run_on_cmp(profile, cmp)
        energy = evaluate_cmp_energy(run)
        absolute["time"][cmp.name] = run.execution_seconds
        absolute["power"][cmp.name] = energy.average_power_w
        absolute["energy"][cmp.name] = energy.energy_j
    reference = cmps[0].name
    return {
        metric: normalize_to_reference(values, reference)
        for metric, values in absolute.items()
    }


def run_cmpsweep(
    instructions: Optional[int] = None,
    scenarios: Optional[Sequence[SweepScenario]] = None,
    scenario_names: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    suites: Optional[Sequence[Suite]] = None,
) -> CmpSweepResult:
    """Evaluate CMP sweep scenarios over a workload selection.

    ``scenarios`` takes explicit :class:`SweepScenario` objects;
    ``scenario_names`` selects built-ins by name (both default to every
    built-in scenario).  Workload profiles are shared across scenarios
    through the process-wide trace/profile caches, so adding a scenario
    only adds the (cheap) scheduling and power arithmetic.  The
    per-workload evaluation runs through the current session's sweep
    engine.
    """
    instructions = experiment_instructions(instructions)
    session = current_session()
    if scenarios is None:
        if scenario_names is None:
            scenarios = list(standard_scenarios().values())
        else:
            scenarios = [get_scenario(name) for name in scenario_names]
    else:
        scenarios = list(scenarios)
    if workloads is None and suites is None:
        workloads = DEFAULT_SWEEP_WORKLOADS
    specs = session.workloads(suites=suites, names=workloads)

    summary_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    for scenario in scenarios:
        _, rows = session.workload_sweep(
            _sweep_workload,
            (instructions, scenario.cmps),
            specs=specs,
        )
        per_workload: Dict[str, Dict[str, Dict[str, float]]] = {}
        for spec, normalized in zip(specs, rows):
            per_workload[spec.name] = normalized
            for metric in SWEEP_METRICS:
                for cmp in scenario.cmps:
                    workload_rows.append(
                        (
                            scenario.name,
                            spec.name,
                            metric,
                            cmp.name,
                            normalized[metric][cmp.name],
                        )
                    )
        for metric in SWEEP_METRICS:
            for cmp in scenario.cmps:
                value = mean(
                    per_workload[spec.name][metric][cmp.name] for spec in specs
                )
                summary_rows.append((scenario.name, metric, cmp.name, value))
    return CmpSweepResult(
        instructions=instructions,
        scenarios=scenarios,
        workloads=[spec.name for spec in specs],
        frames={
            "summary": ResultFrame.from_rows(
                ["scenario", "metric", "cmp", "value"], summary_rows
            ),
            "workloads": ResultFrame.from_rows(
                ["scenario", "workload", "metric", "cmp", "value"], workload_rows
            ),
        },
    )


def tables_cmpsweep(result: CmpSweepResult) -> List[TableBlock]:
    """One normalized time/power/energy table block per scenario."""
    return result.tables()


def format_cmpsweep(result: CmpSweepResult) -> str:
    """Render one normalized time/power/energy table per scenario."""
    return render_blocks(result.tables())


def _constants() -> Dict[str, object]:
    """Key material: the default workload mix and reported metrics."""
    return {"metrics": list(SWEEP_METRICS)}


SPEC = ExperimentSpec(
    name="cmpsweep",
    title="CMP scenario sweeps: configuration grids over the workloads",
    runner=run_cmpsweep,
    tables=tables_cmpsweep,
    workloads=lambda: tuple(DEFAULT_SWEEP_WORKLOADS),
    constants=_constants,
)
