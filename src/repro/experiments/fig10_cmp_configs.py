"""Figure 10: normalized execution time, power, energy, and ED per CMP."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.frame import ResultFrame
from repro.api.session import current_session
from repro.experiments.common import (
    FrameResult,
    PayloadField,
    RowView,
    experiment_instructions,
    default_workload_names,
    fixed,
    mean,
    normalize_to_reference,
    render_blocks,
    suite_cell,
)
from repro.power.cmp_power import evaluate_cmp_energy
from repro.results.artifacts import TableBlock
from repro.results.spec import ExperimentSpec
from repro.uarch.cmp import STANDARD_CMP_CONFIGS, CmpConfig
from repro.uarch.simulator import profile_workload_frontend, run_on_cmp
from repro.workloads.suites import Suite

#: Metrics reported by Figure 10, in subplot order.
FIG10_METRICS = ("execution time", "power", "energy", "energy-delay")


@dataclass
class Fig10Result(FrameResult):
    """Normalized metrics per (suite, CMP configuration).

    Frames:

    ``suites`` (primary)
        One row per (suite, metric): per-CMP values normalized to the
        Baseline CMP (suite average).
    ``workloads``
        One row per (workload, metric): per-CMP normalized values.
    """

    instructions: int
    cmp_names: List[str] = field(default_factory=list)
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "suites"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.scalar("cmp_names"),
        PayloadField.pivot("normalized", "suites", [["suite"], ["metric"]]),
        PayloadField.pivot("per_workload", "workloads", [["workload"], ["metric"]]),
    )

    def views(self) -> Sequence[RowView]:
        return (
            RowView(
                "suites",
                (("suite", "suite", suite_cell), ("metric", "metric", str))
                + tuple((name, name, fixed(3)) for name in self.cmp_names),
            ),
        )


def _evaluate_workload(args) -> Dict[str, Dict[str, float]]:
    """Per-workload worker: normalized metrics on every CMP configuration.

    The front-end profile comes from the shared trace/profile caches
    (see :func:`repro.uarch.simulator.profile_workload_frontend`), so a
    warm in-process run re-simulates nothing.
    """
    spec, instructions, cmps = args
    profile = profile_workload_frontend(spec, instructions)
    absolute: Dict[str, Dict[str, float]] = {metric: {} for metric in FIG10_METRICS}
    for cmp in cmps:
        run = run_on_cmp(profile, cmp)
        energy = evaluate_cmp_energy(run)
        absolute["execution time"][cmp.name] = run.execution_seconds
        absolute["power"][cmp.name] = energy.average_power_w
        absolute["energy"][cmp.name] = energy.energy_j
        absolute["energy-delay"][cmp.name] = energy.energy_delay
    baseline_name = cmps[0].name
    return {
        metric: normalize_to_reference(values, baseline_name)
        for metric, values in absolute.items()
    }


def run_fig10(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
    cmps: Sequence[CmpConfig] = STANDARD_CMP_CONFIGS,
) -> Fig10Result:
    """Regenerate the Figure 10 data.

    The per-workload evaluation (trace, front-end profile, all CMP
    runs) goes through the current session's sweep engine.
    """
    instructions = experiment_instructions(instructions)
    cmps = tuple(cmps)
    names = [cmp.name for cmp in cmps]
    suite_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    sweep = current_session().suite_sweep(
        _evaluate_workload, (instructions, cmps), suites
    )
    for suite, specs, rows in sweep:
        per_metric: Dict[str, Dict[str, List[float]]] = {
            metric: {name: [] for name in names} for metric in FIG10_METRICS
        }
        for spec, normalized in zip(specs, rows):
            for metric in FIG10_METRICS:
                workload_rows.append(
                    (spec.name, metric)
                    + tuple(normalized[metric][name] for name in names)
                )
                for name in names:
                    per_metric[metric][name].append(normalized[metric][name])
        for metric in FIG10_METRICS:
            suite_rows.append(
                (suite, metric)
                + tuple(mean(per_metric[metric][name]) for name in names)
            )
    return Fig10Result(
        instructions=instructions,
        cmp_names=names,
        frames={
            "suites": ResultFrame.from_rows(["suite", "metric", *names], suite_rows),
            "workloads": ResultFrame.from_rows(
                ["workload", "metric", *names], workload_rows
            ),
        },
    )


def tables_fig10(result: Fig10Result) -> List[TableBlock]:
    """Figure 10 bars as table blocks (normalized to Baseline CMP)."""
    return result.tables()


def format_fig10(result: Fig10Result) -> str:
    """Render the Figure 10 bars as a table (normalized to Baseline CMP)."""
    return render_blocks(result.tables())


def _constants() -> Dict[str, object]:
    """Key material: the four Section V chips and reported metrics."""
    return {
        "cmp_names": [cmp.name for cmp in STANDARD_CMP_CONFIGS],
        "metrics": list(FIG10_METRICS),
    }


SPEC = ExperimentSpec(
    name="fig10",
    title="Figure 10: normalized execution time, power, energy, and ED per CMP",
    runner=run_fig10,
    tables=tables_fig10,
    workloads=default_workload_names,
    constants=_constants,
)
