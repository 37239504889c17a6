"""CMP scenario sweeps: arbitrary configuration grids over the workloads.

Generalizes the Section V comparison (Figures 10/11) into named
scenarios of :class:`~repro.uarch.sweep.SweepScenario` grids -- core
counts from 1 to 64, baseline/tailored/asymmetric mixes, private-L2
sizes -- evaluated with exactly the same profile -> schedule -> power
pipeline as the paper's four chips.  Exposed on the CLI as
``repro-frontend cmpsweep``.  All selected scenarios run as one sweep
of the CMP rows worker (:func:`repro.power.cmp_power.cmp_rows`), whose
``(spec, instructions, seed, chips)`` items a CMP exploration chunk
shares; the sweep reads the seed-0 traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
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
)
from repro.power.cmp_power import cmp_rows
from repro.results.spec import ExperimentSpec
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


def _normalized(rows: Sequence, reference: str) -> Dict[str, Dict[str, float]]:
    """One scenario's ``cmp_rows`` for one workload, per metric, each
    normalized to the scenario's reference chip."""
    return {
        metric: normalize_to_reference(
            {row[0]: row[column] for row in rows}, reference
        )
        for column, metric in enumerate(SWEEP_METRICS, start=1)
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
    built-in scenario).  Every scenario runs in one sweep through the
    current session's sweep engine: each workload is one
    :func:`~repro.power.cmp_power.cmp_rows` item carrying the chips of
    every selected scenario, in scenario order, so a workload is
    profiled once and adding a scenario only adds the (cheap)
    scheduling and power arithmetic.  Each scenario takes its rows by
    position, never by chip name, since two scenarios may hold
    different chips under one name.
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
    chips = tuple(cmp for scenario in scenarios for cmp in scenario.cmps)
    _, rows = session.workload_sweep(cmp_rows, instructions, (chips,), specs=specs)
    remaining = [iter(chip_rows) for chip_rows in rows]

    summary_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    for scenario in scenarios:
        normalized = [
            _normalized(
                list(islice(chip_rows, len(scenario.cmps))), scenario.reference.name
            )
            for chip_rows in remaining
        ]
        for spec, values in zip(specs, normalized):
            for metric in SWEEP_METRICS:
                for cmp in scenario.cmps:
                    workload_rows.append(
                        (
                            scenario.name,
                            spec.name,
                            metric,
                            cmp.name,
                            values[metric][cmp.name],
                        )
                    )
        for metric in SWEEP_METRICS:
            for cmp in scenario.cmps:
                value = mean(values[metric][cmp.name] for values in normalized)
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


def _constants() -> Dict[str, object]:
    """Key material: the default workload mix and reported metrics."""
    return {"metrics": list(SWEEP_METRICS)}


SPEC = ExperimentSpec(
    name="cmpsweep",
    title="CMP scenario sweeps: configuration grids over the workloads",
    runner=run_cmpsweep,
    workloads=lambda: tuple(DEFAULT_SWEEP_WORKLOADS),
    constants=_constants,
)
