"""Figure 1: dynamic branch instruction breakdown per suite and section."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.branch_mix import BranchMix, analyze_branch_mix
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
from repro.trace.instruction import FIGURE1_CATEGORIES, CodeSection
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import workload_trace


@dataclass
class Fig01Result(FrameResult):
    """Per-suite, per-section branch category shares (of all instructions).

    Frames:

    ``sections`` (primary)
        One row per (suite, section): the total branch fraction plus
        one column per Figure 1 category.
    ``workloads``
        One row per workload: its total branch fraction.
    """

    instructions: int
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "sections"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.pivot(
            "categories",
            "sections",
            [["suite"], ["section"]],
            columns=FIGURE1_CATEGORIES,
        ),
        PayloadField.pivot(
            "branch_fraction",
            "sections",
            [["suite"], ["section"]],
            value="branch_fraction",
        ),
        PayloadField.pivot(
            "per_workload", "workloads", [["workload"]], value="branch_fraction"
        ),
    )
    VIEWS = (
        RowView(
            "sections",
            (
                ("suite", "suite", suite_cell),
                ("section", "section", section_cell),
                ("branch_fraction", "branches%", percent(1)),
            )
            + tuple(
                (category, category, percent(2)) for category in FIGURE1_CATEGORIES
            ),
        ),
    )


def _workload_mix(args) -> Dict[CodeSection, BranchMix]:
    """Per-workload worker: branch mix of every reported section."""
    spec, instructions, seed = args
    trace = workload_trace(spec, instructions, seed=seed)
    return {
        section: analyze_branch_mix(trace, section) for section in sections_for(spec)
    }


def run_fig01(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
) -> Fig01Result:
    """Regenerate the Figure 1 data.

    The per-workload analysis (trace generation plus the per-section
    branch mixes) runs through the current session's sweep engine.
    """
    instructions = experiment_instructions(instructions)
    section_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    sweep = current_session().suite_sweep(_workload_mix, instructions, suites=suites)
    for suite, specs, rows in sweep:
        per_section_mixes: Dict[CodeSection, List[BranchMix]] = {}
        for spec, mixes in zip(specs, rows):
            for section, mix in mixes.items():
                per_section_mixes.setdefault(section, []).append(mix)
                if section is CodeSection.TOTAL:
                    workload_rows.append((spec.name, mix.branch_fraction))
        for section, mixes in per_section_mixes.items():
            section_rows.append(
                (suite, section, mean(m.branch_fraction for m in mixes))
                + tuple(
                    mean(m.category_fractions[category] for m in mixes)
                    for category in FIGURE1_CATEGORIES
                )
            )
    return Fig01Result(
        instructions=instructions,
        frames={
            "sections": ResultFrame.from_rows(
                ["suite", "section", "branch_fraction", *FIGURE1_CATEGORIES],
                section_rows,
            ),
            "workloads": ResultFrame.from_rows(
                ["workload", "branch_fraction"], workload_rows
            ),
        },
    )


SPEC = ExperimentSpec(
    name="fig1",
    title="Figure 1: dynamic branch instruction breakdown per suite and section",
    runner=run_fig01,
    workloads=default_workload_names,
)
