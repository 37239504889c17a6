"""Figure 4: basic-block length and distance between taken branches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.basic_blocks import BasicBlockStats, analyze_basic_blocks
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
    section_cell,
    sections_for,
    suite_cell,
)
from repro.results.spec import ExperimentSpec
from repro.trace.instruction import CodeSection
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import workload_trace


@dataclass
class Fig04Result(FrameResult):
    """Per-suite, per-section basic-block statistics in bytes.

    Frames:

    ``sections`` (primary)
        One row per (suite, section): average basic-block length and
        average distance between taken branches, in bytes.
    ``workloads``
        One row per workload: its total-section block length.
    """

    instructions: int
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "sections"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.pivot(
            "block_bytes", "sections", [["suite"], ["section"]], value="block_bytes"
        ),
        PayloadField.pivot(
            "taken_distance_bytes",
            "sections",
            [["suite"], ["section"]],
            value="taken_distance_bytes",
        ),
        PayloadField.pivot(
            "per_workload_block_bytes",
            "workloads",
            [["workload"]],
            value="block_bytes",
        ),
    )
    VIEWS = (
        RowView(
            "sections",
            (
                ("suite", "suite", suite_cell),
                ("section", "section", section_cell),
                ("block_bytes", "avg BBL [B]", fixed(0)),
                ("taken_distance_bytes", "avg taken distance [B]", fixed(0)),
            ),
        ),
    )


def _workload_blocks(args) -> Dict[CodeSection, BasicBlockStats]:
    """Per-workload worker: block statistics of every reported section."""
    spec, instructions, seed = args
    trace = workload_trace(spec, instructions, seed=seed)
    return {
        section: analyze_basic_blocks(trace, section)
        for section in sections_for(spec)
    }


def run_fig04(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
) -> Fig04Result:
    """Regenerate the Figure 4 data.

    The per-workload analysis runs through the current session's sweep
    engine.
    """
    instructions = experiment_instructions(instructions)
    section_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    sweep = current_session().suite_sweep(_workload_blocks, instructions, suites=suites)
    for suite, specs, rows in sweep:
        blocks: Dict[CodeSection, List[float]] = {}
        distances: Dict[CodeSection, List[float]] = {}
        for spec, stats_by_section in zip(specs, rows):
            for section, stats in stats_by_section.items():
                blocks.setdefault(section, []).append(stats.average_block_bytes)
                distances.setdefault(section, []).append(
                    stats.average_taken_distance_bytes
                )
                if section is CodeSection.TOTAL:
                    workload_rows.append((spec.name, stats.average_block_bytes))
        for section in blocks:
            section_rows.append(
                (suite, section, mean(blocks[section]), mean(distances[section]))
            )
    return Fig04Result(
        instructions=instructions,
        frames={
            "sections": ResultFrame.from_rows(
                ["suite", "section", "block_bytes", "taken_distance_bytes"],
                section_rows,
            ),
            "workloads": ResultFrame.from_rows(
                ["workload", "block_bytes"], workload_rows
            ),
        },
    )


def hpc_to_desktop_block_ratio(result: Fig04Result) -> float:
    """Ratio of HPC parallel block length to the desktop average."""
    block_bytes = result.block_bytes
    hpc = mean(
        block_bytes[suite][CodeSection.PARALLEL]
        for suite in block_bytes
        if suite.is_hpc and CodeSection.PARALLEL in block_bytes[suite]
    )
    desktop = mean(
        block_bytes[suite][CodeSection.TOTAL]
        for suite in block_bytes
        if suite.is_desktop
    )
    if desktop == 0:
        return 0.0
    return hpc / desktop


SPEC = ExperimentSpec(
    name="fig4",
    title="Figure 4: basic-block length and distance between taken branches",
    runner=run_fig04,
    workloads=default_workload_names,
)
