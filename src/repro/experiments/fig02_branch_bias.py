"""Figure 2: distribution of conditional branch directions per suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.branch_bias import (
    BIAS_BUCKET_LABELS,
    BiasDistribution,
    analyze_branch_bias,
)
from repro.api.frame import ResultFrame
from repro.api.session import current_session
from repro.experiments.common import (
    FrameResult,
    PayloadField,
    RowView,
    experiment_instructions,
    default_workload_names,
    mean,
    percent,
    section_cell,
    sections_for,
    suite_cell,
)
from repro.results.spec import ExperimentSpec
from repro.trace.instruction import CodeSection
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import workload_trace


@dataclass
class Fig02Result(FrameResult):
    """Per-suite, per-section taken-percentage bucket shares.

    Frames:

    ``sections`` (primary)
        One row per (suite, section): one column per bias bucket plus
        the derived ``strongly biased`` share (0-10% or >90% buckets).
    """

    instructions: int
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "sections"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.pivot(
            "buckets",
            "sections",
            [["suite"], ["section"]],
            columns=BIAS_BUCKET_LABELS,
        ),
    )
    VIEWS = (
        RowView(
            "sections",
            (
                ("suite", "suite", suite_cell),
                ("section", "section", section_cell),
            )
            + tuple((label, label, percent(1)) for label in BIAS_BUCKET_LABELS)
            + (("strongly biased", "strongly biased", percent(1)),),
        ),
    )

    def strongly_biased(self, suite: Suite, section: CodeSection) -> float:
        """Share of dynamic conditionals in the 0-10% or >90% buckets."""
        data = self.buckets[suite][section]
        return data["0-10%"] + data[">90%"]


def _workload_bias(args) -> Dict[CodeSection, BiasDistribution]:
    """Per-workload worker: bias distribution of every reported section."""
    spec, instructions = args
    trace = workload_trace(spec, instructions)
    return {
        section: analyze_branch_bias(trace, section) for section in sections_for(spec)
    }


def run_fig02(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
) -> Fig02Result:
    """Regenerate the Figure 2 data.

    The per-workload analysis runs through the current session's sweep
    engine.
    """
    instructions = experiment_instructions(instructions)
    section_rows: List[tuple] = []
    sweep = current_session().suite_sweep(_workload_bias, (instructions,), suites)
    for suite, specs, rows in sweep:
        per_section: Dict[CodeSection, List[BiasDistribution]] = {}
        for spec, distributions in zip(specs, rows):
            for section, distribution in distributions.items():
                per_section.setdefault(section, []).append(distribution)
        for section, distributions in per_section.items():
            buckets = {
                label: mean(d.bucket_fractions[label] for d in distributions)
                for label in BIAS_BUCKET_LABELS
            }
            section_rows.append(
                (suite, section)
                + tuple(buckets[label] for label in BIAS_BUCKET_LABELS)
                + (buckets["0-10%"] + buckets[">90%"],)
            )
    return Fig02Result(
        instructions=instructions,
        frames={
            "sections": ResultFrame.from_rows(
                ["suite", "section", *BIAS_BUCKET_LABELS, "strongly biased"],
                section_rows,
            ),
        },
    )


SPEC = ExperimentSpec(
    name="fig2",
    title="Figure 2: distribution of conditional branch directions per suite",
    runner=run_fig02,
    workloads=default_workload_names,
)
