"""Figure 3: static and 99%-dynamic instruction footprints per suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.footprint import FootprintResult, analyze_footprint
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
class Fig03Result(FrameResult):
    """Per-suite, per-section footprints in KB.

    Frames:

    ``sections`` (primary)
        One row per (suite, section): static and 99%-dynamic KB.
    ``workloads``
        One row per workload: its total-section footprints.
    """

    instructions: int
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "sections"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.pivot(
            "static_kb", "sections", [["suite"], ["section"]], value="static_kb"
        ),
        PayloadField.pivot(
            "dynamic99_kb", "sections", [["suite"], ["section"]], value="dynamic99_kb"
        ),
        PayloadField.pivot(
            "per_workload_static_kb", "workloads", [["workload"]], value="static_kb"
        ),
        PayloadField.pivot(
            "per_workload_dynamic99_kb",
            "workloads",
            [["workload"]],
            value="dynamic99_kb",
        ),
    )
    VIEWS = (
        RowView(
            "sections",
            (
                ("suite", "suite", suite_cell),
                ("section", "section", section_cell),
                ("static_kb", "static [KB]", fixed(0)),
                ("dynamic99_kb", "99% dynamic [KB]", fixed(1)),
            ),
        ),
    )


def _workload_footprints(args) -> Dict[CodeSection, FootprintResult]:
    """Per-workload worker: footprint of every reported section."""
    spec, instructions, seed = args
    trace = workload_trace(spec, instructions, seed=seed)
    return {
        section: analyze_footprint(trace, section) for section in sections_for(spec)
    }


def run_fig03(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
) -> Fig03Result:
    """Regenerate the Figure 3 data.

    The per-workload analysis runs through the current session's sweep
    engine.
    """
    instructions = experiment_instructions(instructions)
    section_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    sweep = current_session().suite_sweep(
        _workload_footprints, instructions, suites=suites
    )
    for suite, specs, rows in sweep:
        static: Dict[CodeSection, List[float]] = {}
        dynamic: Dict[CodeSection, List[float]] = {}
        for spec, footprints in zip(specs, rows):
            for section, footprint in footprints.items():
                static.setdefault(section, []).append(footprint.static_kb)
                dynamic.setdefault(section, []).append(footprint.dynamic_footprint_kb)
                if section is CodeSection.TOTAL:
                    workload_rows.append(
                        (spec.name, footprint.static_kb, footprint.dynamic_footprint_kb)
                    )
        for section in static:
            section_rows.append(
                (suite, section, mean(static[section]), mean(dynamic[section]))
            )
    return Fig03Result(
        instructions=instructions,
        frames={
            "sections": ResultFrame.from_rows(
                ["suite", "section", "static_kb", "dynamic99_kb"], section_rows
            ),
            "workloads": ResultFrame.from_rows(
                ["workload", "static_kb", "dynamic99_kb"], workload_rows
            ),
        },
    )


SPEC = ExperimentSpec(
    name="fig3",
    title="Figure 3: static and 99%-dynamic instruction footprints per suite",
    runner=run_fig03,
    workloads=default_workload_names,
)
