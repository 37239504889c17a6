"""Figure 8: I-cache MPKI for different sizes and associativities (64B lines)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.frame import ResultFrame
from repro.api.session import current_session
from repro.experiments.common import (
    FrameResult,
    PayloadField,
    PivotView,
    experiment_instructions,
    default_workload_names,
    fixed,
    mean,
    suite_cell,
)
from repro.frontend.simulation import simulate_icache
from repro.results.spec import ExperimentSpec
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import workload_trace


def _workload_mpki(args) -> Dict[Tuple[int, int], float]:
    """Per-workload worker: every I-cache geometry on one trace."""
    spec, instructions, geometries = args
    trace = workload_trace(spec, instructions)
    return {
        (size_kb, associativity): simulate_icache(
            trace,
            size_bytes=size_kb * 1024,
            line_bytes=LINE_BYTES,
            associativity=associativity,
        ).mpki
        for size_kb, associativity in geometries
    }

#: The nine I-cache geometries of Figure 8: size (KB) x associativity,
#: with the paper's fixed 64-byte lines.
ICACHE_GEOMETRIES: Tuple[Tuple[int, int], ...] = tuple(
    (size_kb, associativity)
    for size_kb in (8, 16, 32)
    for associativity in (2, 4, 8)
)

LINE_BYTES = 64


@dataclass
class Fig08Result(FrameResult):
    """I-cache MPKI per (suite, geometry).

    Frames:

    ``suites`` (primary)
        One row per (suite, size KB, ways): suite-average MPKI.
    ``workloads``
        One row per (workload, size KB, ways): MPKI.
    """

    instructions: int
    geometries: List[Tuple[int, int]] = field(
        default_factory=lambda: list(ICACHE_GEOMETRIES)
    )
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "suites"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.scalar("geometries"),
        PayloadField.pivot(
            "mpki", "suites", [["suite"], ["size_kb", "ways"]], value="mpki"
        ),
        PayloadField.pivot(
            "per_workload",
            "workloads",
            [["workload"], ["size_kb", "ways"]],
            value="mpki",
        ),
    )
    VIEWS = (
        PivotView(
            frame="suites",
            index=(("suite", "suite", suite_cell),),
            key=("size_kb", "ways"),
            value="mpki",
            header=lambda key: f"{key[0]}KB/{key[1]}w",
            cell=fixed(2),
        ),
    )


def run_fig08(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
    geometries: Optional[Sequence[Tuple[int, int]]] = None,
) -> Fig08Result:
    """Regenerate the Figure 8 data."""
    instructions = experiment_instructions(instructions)
    geometries = list(geometries or ICACHE_GEOMETRIES)
    suite_rows: List[tuple] = []
    workload_rows: List[tuple] = []
    sweep = current_session().suite_sweep(
        _workload_mpki, (instructions, geometries), suites
    )
    for suite, specs, rows in sweep:
        per_geometry: Dict[Tuple[int, int], List[float]] = {g: [] for g in geometries}
        for spec, row in zip(specs, rows):
            for geometry, mpki in row.items():
                workload_rows.append((spec.name, *geometry, mpki))
                per_geometry[geometry].append(mpki)
        for geometry in geometries:
            suite_rows.append((suite, *geometry, mean(per_geometry[geometry])))
    return Fig08Result(
        instructions=instructions,
        geometries=geometries,
        frames={
            "suites": ResultFrame.from_rows(
                ["suite", "size_kb", "ways", "mpki"], suite_rows
            ),
            "workloads": ResultFrame.from_rows(
                ["workload", "size_kb", "ways", "mpki"], workload_rows
            ),
        },
    )


def _constants() -> Dict[str, object]:
    """Key material: the I-cache geometry grid Figure 8 sweeps."""
    return {
        "geometries": [list(geometry) for geometry in ICACHE_GEOMETRIES],
        "line_bytes": LINE_BYTES,
    }


SPEC = ExperimentSpec(
    name="fig8",
    title="Figure 8: I-cache MPKI for different sizes and associativities",
    runner=run_fig08,
    workloads=default_workload_names,
    constants=_constants,
)
