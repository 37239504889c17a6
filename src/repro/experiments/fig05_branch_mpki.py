"""Figure 5: branch MPKI per predictor configuration and suite."""

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
    suite_cell,
)
from repro.frontend.configs import BranchPredictorConfig
from repro.frontend.predictors.factory import predictor_configurations
from repro.frontend.simulation import simulate_branch_predictors
from repro.results.spec import ExperimentSpec
from repro.trace.instruction import CodeSection
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import workload_trace

#: The nine configuration labels Figure 5 sweeps, in bar order.
FIGURE5_LABELS = tuple(label for label, _, _, _ in predictor_configurations())


def _workload_mpki(args) -> Dict[str, float]:
    """Per-workload worker: all predictor configurations on one trace.

    The nine configurations go through :func:`simulate_branch_predictors`,
    which answers them from the trace's per-section memo: each loop-free
    predictor and the loop predictor run once, and the ``L-`` hybrids
    combine those passes.  Figure 6, the exploration presets and the
    Section V profiles then reuse them on the same cached trace.
    """
    spec, instructions, section = args
    trace = workload_trace(spec, instructions)
    configurations = predictor_configurations()
    configs = [
        BranchPredictorConfig(kind, budget, with_loop)
        for _, kind, budget, with_loop in configurations
    ]
    results = simulate_branch_predictors(trace, configs, section)
    return {
        label: result.mpki
        for (label, _, _, _), result in zip(configurations, results)
    }


@dataclass
class Fig05Result(FrameResult):
    """Branch MPKI per (suite, predictor configuration).

    Frames:

    ``suites`` (primary)
        One row per suite: MPKI per configuration label (suite average).
    ``workloads``
        One row per workload: MPKI per configuration label.
    """

    instructions: int
    configurations: List[str] = field(default_factory=list)
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "suites"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.scalar("configurations"),
        PayloadField.pivot("mpki", "suites", [["suite"]]),
        PayloadField.pivot("per_workload", "workloads", [["workload"]]),
    )
    VIEWS = (
        RowView(
            "suites",
            (("suite", "suite", suite_cell),)
            + tuple((label, label, fixed(2)) for label in FIGURE5_LABELS),
        ),
    )


def run_fig05(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
    section: CodeSection = CodeSection.TOTAL,
) -> Fig05Result:
    """Regenerate the Figure 5 data (all nine predictor configurations).

    The per-workload sweep (trace generation plus all predictor
    simulations) runs through the current session's sweep engine.
    """
    instructions = experiment_instructions(instructions)
    labels = list(FIGURE5_LABELS)
    suite_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    sweep = current_session().suite_sweep(
        _workload_mpki, (instructions, section), suites
    )
    for suite, specs, rows in sweep:
        per_config: Dict[str, List[float]] = {label: [] for label in labels}
        for spec, row in zip(specs, rows):
            workload_rows.append((spec.name,) + tuple(row[label] for label in labels))
            for label, mpki in row.items():
                per_config[label].append(mpki)
        suite_rows.append(
            (suite,) + tuple(mean(per_config[label]) for label in labels)
        )
    return Fig05Result(
        instructions=instructions,
        configurations=labels,
        frames={
            "suites": ResultFrame.from_rows(["suite", *labels], suite_rows),
            "workloads": ResultFrame.from_rows(["workload", *labels], workload_rows),
        },
    )


def _constants() -> Dict[str, object]:
    """Key material: the nine predictor configurations Figure 5 sweeps."""
    return {
        "configurations": list(FIGURE5_LABELS),
        "section": CodeSection.TOTAL.name,
    }


SPEC = ExperimentSpec(
    name="fig5",
    title="Figure 5: branch MPKI per predictor configuration and suite",
    runner=run_fig05,
    workloads=default_workload_names,
    constants=_constants,
)
