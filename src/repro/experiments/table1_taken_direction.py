"""Table I: backward versus forward taken branches per suite and section."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.branch_bias import analyze_taken_directions
from repro.api.frame import ResultFrame
from repro.api.session import current_session
from repro.experiments.common import (
    FrameResult,
    PayloadField,
    RowView,
    experiment_instructions,
    default_workload_names,
    mean,
    sections_for,
    suite_cell,
)
from repro.results.spec import ExperimentSpec
from repro.trace.instruction import CodeSection
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import workload_trace


def _share_cell(value: Optional[float]) -> str:
    """Percent cell; desktop codes have no serial/parallel split."""
    return "-" if value is None else f"{100 * value:.0f}%"


@dataclass
class Table1Result(FrameResult):
    """Per-suite, per-section backward-taken share.

    Frames:

    ``sections`` (primary)
        One row per (suite, section): backward-taken share.
    ``table``
        One row per suite in Table I layout: serial/parallel backward
        shares (``None`` where a desktop code has no section split).
    """

    instructions: int
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "sections"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.pivot(
            "backward", "sections", [["suite"], ["section"]], value="backward"
        ),
    )
    VIEWS = (
        RowView(
            "table",
            (
                ("suite", "suite", suite_cell),
                ("serial_backward", "serial backward", _share_cell),
                ("serial_forward", "serial forward", _share_cell),
                ("parallel_backward", "parallel backward", _share_cell),
                ("parallel_forward", "parallel forward", _share_cell),
            ),
        ),
    )

    def forward(self, suite: Suite, section: CodeSection) -> float:
        """Forward-taken share (complement of the backward share)."""
        return 1.0 - self.backward[suite][section]


def _workload_directions(args) -> Dict[CodeSection, float]:
    """Per-workload worker: backward-taken share of every section."""
    spec, instructions, seed = args
    trace = workload_trace(spec, instructions, seed=seed)
    return {
        section: analyze_taken_directions(trace, section).backward_fraction
        for section in sections_for(spec)
    }


def run_table1(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
) -> Table1Result:
    """Regenerate the Table I data.

    The per-workload analysis runs through the current session's sweep
    engine.
    """
    instructions = experiment_instructions(instructions)
    section_rows: List[tuple] = []
    table_rows: List[tuple] = []
    sweep = current_session().suite_sweep(
        _workload_directions, instructions, suites=suites
    )
    for suite, specs, rows in sweep:
        per_section: Dict[CodeSection, List[float]] = {}
        for spec, fractions in zip(specs, rows):
            for section, backward in fractions.items():
                per_section.setdefault(section, []).append(backward)
        averages = {
            section: mean(values) for section, values in per_section.items()
        }
        for section, backward in averages.items():
            section_rows.append((suite, section, backward))
        if CodeSection.SERIAL in averages and CodeSection.PARALLEL in averages:
            serial = averages[CodeSection.SERIAL]
            parallel = averages[CodeSection.PARALLEL]
            table_rows.append((suite, serial, 1 - serial, parallel, 1 - parallel))
        else:
            total = averages[CodeSection.TOTAL]
            table_rows.append((suite, total, 1 - total, None, None))
    return Table1Result(
        instructions=instructions,
        frames={
            "sections": ResultFrame.from_rows(
                ["suite", "section", "backward"], section_rows
            ),
            "table": ResultFrame.from_rows(
                [
                    "suite",
                    "serial_backward",
                    "serial_forward",
                    "parallel_backward",
                    "parallel_forward",
                ],
                table_rows,
            ),
        },
    )


SPEC = ExperimentSpec(
    name="table1",
    title="Table I: backward versus forward taken branches per suite and section",
    runner=run_table1,
    workloads=default_workload_names,
)
