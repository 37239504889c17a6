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
    suite_cell,
)
from repro.power.cmp_power import cmp_rows
from repro.results.spec import ExperimentSpec
from repro.uarch.cmp import STANDARD_CMP_CONFIGS, CmpConfig
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


def _normalized(rows: Sequence, reference: str) -> Dict[str, Dict[str, float]]:
    """One workload's ``cmp_rows`` per Figure 10 metric, normalized to
    the ``reference`` chip (energy-delay is energy times time)."""
    absolute: Dict[str, Dict[str, float]] = {metric: {} for metric in FIG10_METRICS}
    for name, seconds, power_w, energy_j in rows:
        absolute["execution time"][name] = seconds
        absolute["power"][name] = power_w
        absolute["energy"][name] = energy_j
        absolute["energy-delay"][name] = energy_j * seconds
    return {
        metric: normalize_to_reference(values, reference)
        for metric, values in absolute.items()
    }


def run_fig10(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
    cmps: Sequence[CmpConfig] = STANDARD_CMP_CONFIGS,
) -> Fig10Result:
    """Regenerate the Figure 10 data.

    The per-workload evaluation (trace, front-end profile, all CMP
    runs) is one sweep of :func:`~repro.power.cmp_power.cmp_rows`
    through the current session's sweep engine.
    """
    instructions = experiment_instructions(instructions)
    cmps = tuple(cmps)
    names = [cmp.name for cmp in cmps]
    suite_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    sweep = current_session().suite_sweep(cmp_rows, instructions, (cmps,), suites)
    for suite, specs, rows in sweep:
        per_metric: Dict[str, Dict[str, List[float]]] = {
            metric: {name: [] for name in names} for metric in FIG10_METRICS
        }
        for spec, chip_rows in zip(specs, rows):
            normalized = _normalized(chip_rows, names[0])
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
    workloads=default_workload_names,
    constants=_constants,
)
