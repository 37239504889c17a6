"""Figure 7: BTB MPKI for different entry counts and associativities."""

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
from repro.frontend.simulation import simulate_btb
from repro.results.spec import ExperimentSpec
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import workload_trace


def _workload_mpki(args) -> Dict[Tuple[int, int], float]:
    """Per-workload worker: every BTB geometry on one trace."""
    spec, instructions, geometries = args
    trace = workload_trace(spec, instructions)
    return {
        (entries, associativity): simulate_btb(
            trace, entries=entries, associativity=associativity
        ).mpki
        for entries, associativity in geometries
    }

#: The nine BTB geometries of Figure 7.
BTB_GEOMETRIES: Tuple[Tuple[int, int], ...] = tuple(
    (entries, associativity)
    for entries in (256, 512, 1024)
    for associativity in (2, 4, 8)
)


@dataclass
class Fig07Result(FrameResult):
    """BTB MPKI per (suite, geometry).

    Frames:

    ``suites`` (primary)
        One row per (suite, entries, ways): suite-average MPKI.
    ``workloads``
        One row per (workload, entries, ways): MPKI.
    """

    instructions: int
    geometries: List[Tuple[int, int]] = field(
        default_factory=lambda: list(BTB_GEOMETRIES)
    )
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "suites"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.scalar("geometries"),
        PayloadField.pivot(
            "mpki", "suites", [["suite"], ["entries", "ways"]], value="mpki"
        ),
        PayloadField.pivot(
            "per_workload",
            "workloads",
            [["workload"], ["entries", "ways"]],
            value="mpki",
        ),
    )
    VIEWS = (
        PivotView(
            frame="suites",
            index=(("suite", "suite", suite_cell),),
            key=("entries", "ways"),
            value="mpki",
            header=lambda key: f"{key[0]}e/{key[1]}w",
            cell=fixed(2),
        ),
    )


def run_fig07(
    instructions: Optional[int] = None,
    suites: Optional[Sequence[Suite]] = None,
    geometries: Optional[Sequence[Tuple[int, int]]] = None,
) -> Fig07Result:
    """Regenerate the Figure 7 data."""
    instructions = experiment_instructions(instructions)
    geometries = list(geometries or BTB_GEOMETRIES)
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
    return Fig07Result(
        instructions=instructions,
        geometries=geometries,
        frames={
            "suites": ResultFrame.from_rows(
                ["suite", "entries", "ways", "mpki"], suite_rows
            ),
            "workloads": ResultFrame.from_rows(
                ["workload", "entries", "ways", "mpki"], workload_rows
            ),
        },
    )


def _constants() -> Dict[str, object]:
    """Key material: the BTB geometry grid Figure 7 sweeps."""
    return {"geometries": [list(geometry) for geometry in BTB_GEOMETRIES]}


SPEC = ExperimentSpec(
    name="fig7",
    title="Figure 7: BTB MPKI for different entry counts and associativities",
    runner=run_fig07,
    workloads=default_workload_names,
    constants=_constants,
)
