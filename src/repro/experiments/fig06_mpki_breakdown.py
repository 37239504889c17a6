"""Figure 6: branch MPKI breakdown for gshare on a workload subset.

Mispredictions are split by the outcome class of the mispredicted
branch: not taken, taken backward, or taken forward.
"""

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
    fixed,
)
from repro.frontend.configs import BranchPredictorConfig
from repro.frontend.simulation import simulate_branch_predictors
from repro.results.spec import ExperimentSpec
from repro.workloads.trace_cache import workload_trace

#: The benchmarks shown in Figure 6 of the paper.
FIGURE6_WORKLOADS = (
    "CoEVP", "CoMD", "botsspar", "imagick", "EP", "FT", "astar", "gobmk", "xalancbmk",
)

#: The three gshare configurations compared in Figure 6.
FIGURE6_CONFIGS = (
    ("gshare-big", "gshare", "big", False),
    ("gshare-small", "gshare", "small", False),
    ("L-gshare-small", "gshare", "small", True),
)

#: The misprediction outcome classes, in stacking order.
BREAKDOWN_CLASSES = ("not taken", "taken backward", "taken forward")


@dataclass
class Fig06Result(FrameResult):
    """MPKI breakdown per (workload, configuration).

    Frames:

    ``breakdown`` (primary)
        One row per (workload, configuration): MPKI per outcome class
        plus the total.
    """

    instructions: int
    workloads: List[str] = field(default_factory=list)
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "breakdown"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.scalar("workloads"),
        PayloadField.pivot(
            "breakdown",
            "breakdown",
            [["workload"], ["config"]],
            columns=BREAKDOWN_CLASSES,
        ),
    )
    VIEWS = (
        RowView(
            "breakdown",
            (
                ("workload", "workload", str),
                ("config", "config", str),
            )
            + tuple((cls, cls, fixed(2)) for cls in BREAKDOWN_CLASSES)
            + (("total", "total", fixed(2)),),
        ),
    )

    def total_mpki(self, workload: str, config: str) -> float:
        """Total MPKI of one configuration on one workload."""
        return sum(self.breakdown[workload][config].values())


def _workload_breakdown(args) -> Dict[str, Dict[str, float]]:
    """Per-workload worker: MPKI breakdown of every Figure 6 config.

    Answered from the trace's per-section memo
    (:func:`simulate_branch_predictors`), so on a trace Figure 5 already
    simulated no predictor runs again.
    """
    spec, instructions = args
    trace = workload_trace(spec, instructions)
    configs = [
        BranchPredictorConfig(kind, budget, with_loop)
        for _, kind, budget, with_loop in FIGURE6_CONFIGS
    ]
    outcomes = simulate_branch_predictors(trace, configs)
    return {
        label: outcome.breakdown_mpki()
        for (label, _, _, _), outcome in zip(FIGURE6_CONFIGS, outcomes)
    }


def run_fig06(
    instructions: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Fig06Result:
    """Regenerate the Figure 6 data.

    The per-workload simulation runs through the current session's
    sweep engine.
    """
    instructions = experiment_instructions(instructions)
    names = list(workloads or FIGURE6_WORKLOADS)
    breakdown_rows: List[tuple] = []
    specs, rows = current_session().workload_sweep(
        _workload_breakdown,
        (instructions,),
        names=names,
    )
    for spec, breakdown in zip(specs, rows):
        for label, classes in breakdown.items():
            breakdown_rows.append(
                (spec.name, label)
                + tuple(classes[cls] for cls in BREAKDOWN_CLASSES)
                + (sum(classes.values()),)
            )
    return Fig06Result(
        instructions=instructions,
        workloads=names,
        frames={
            "breakdown": ResultFrame.from_rows(
                ["workload", "config", *BREAKDOWN_CLASSES, "total"], breakdown_rows
            ),
        },
    )


def _constants() -> Dict[str, object]:
    """Key material: the gshare configurations Figure 6 compares."""
    return {"configurations": [label for label, _, _, _ in FIGURE6_CONFIGS]}


SPEC = ExperimentSpec(
    name="fig6",
    title="Figure 6: branch MPKI breakdown for gshare on a workload subset",
    runner=run_fig06,
    workloads=lambda: tuple(FIGURE6_WORKLOADS),
    constants=_constants,
)
