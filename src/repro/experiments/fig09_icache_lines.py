"""Figure 9: I-cache MPKI versus line width for specific benchmarks (16KB)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.line_usefulness import analyze_line_usefulness
from repro.api.frame import ResultFrame
from repro.api.session import current_session
from repro.experiments.common import (
    FrameResult,
    PayloadField,
    PivotView,
    experiment_instructions,
    fixed,
    percent,
)
from repro.frontend.simulation import simulate_icache
from repro.results.spec import ExperimentSpec
from repro.workloads.trace_cache import workload_trace

#: The benchmarks shown in Figure 9 of the paper.
FIGURE9_WORKLOADS = ("CoEVP", "CoGL", "fma3d", "xalancbmk", "omnetpp")

#: Line width (bytes) x associativity combinations of Figure 9.
LINE_GEOMETRIES: Tuple[Tuple[int, int], ...] = tuple(
    (line_bytes, associativity)
    for line_bytes in (32, 64, 128)
    for associativity in (2, 4, 8)
)

CACHE_SIZE_BYTES = 16 * 1024


@dataclass
class Fig09Result(FrameResult):
    """I-cache MPKI per (workload, line geometry) plus line usefulness.

    Frames:

    ``lines`` (primary)
        One row per (workload, line bytes, ways): MPKI.
    ``usefulness``
        One row per workload: 128B line usefulness (fraction).
    """

    instructions: int
    workloads: List[str] = field(default_factory=list)
    geometries: List[Tuple[int, int]] = field(
        default_factory=lambda: list(LINE_GEOMETRIES)
    )
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "lines"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.scalar("workloads"),
        PayloadField.scalar("geometries"),
        PayloadField.pivot(
            "mpki", "lines", [["workload"], ["line_bytes", "ways"]], value="mpki"
        ),
        PayloadField.pivot(
            "usefulness_128", "usefulness", [["workload"]], value="usefulness_128"
        ),
    )
    VIEWS = (
        PivotView(
            frame="lines",
            index=(("workload", "workload", str),),
            key=("line_bytes", "ways"),
            value="mpki",
            header=lambda key: f"{key[0]}B/{key[1]}w",
            cell=fixed(2),
            extra=(
                ("usefulness", "usefulness_128", "128B usefulness", percent(0, "%")),
            ),
        ),
    )


def _workload_lines(args) -> Tuple[Dict[Tuple[int, int], float], float]:
    """Per-workload worker: every line geometry plus 128B usefulness."""
    spec, instructions, seed, geometries = args
    trace = workload_trace(spec, instructions, seed=seed)
    mpki = {
        (line_bytes, associativity): simulate_icache(
            trace,
            size_bytes=CACHE_SIZE_BYTES,
            line_bytes=line_bytes,
            associativity=associativity,
        ).mpki
        for line_bytes, associativity in geometries
    }
    usefulness = analyze_line_usefulness(trace, line_bytes=128).average_usefulness
    return mpki, usefulness


def run_fig09(
    instructions: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Fig09Result:
    """Regenerate the Figure 9 data.

    The per-workload simulation runs through the current session's
    sweep engine.
    """
    instructions = experiment_instructions(instructions)
    names = list(workloads or FIGURE9_WORKLOADS)
    geometries = list(LINE_GEOMETRIES)
    line_rows: List[tuple] = []
    usefulness_rows: List[tuple] = []
    specs, rows = current_session().workload_sweep(
        _workload_lines, instructions, (tuple(geometries),), names=names
    )
    for spec, (mpki, usefulness) in zip(specs, rows):
        for geometry, value in mpki.items():
            line_rows.append((spec.name, *geometry, value))
        usefulness_rows.append((spec.name, usefulness))
    return Fig09Result(
        instructions=instructions,
        workloads=names,
        geometries=geometries,
        frames={
            "lines": ResultFrame.from_rows(
                ["workload", "line_bytes", "ways", "mpki"], line_rows
            ),
            "usefulness": ResultFrame.from_rows(
                ["workload", "usefulness_128"], usefulness_rows
            ),
        },
    )


def _constants() -> Dict[str, object]:
    """Key material: the line geometry grid and fixed cache size."""
    return {
        "geometries": [list(geometry) for geometry in LINE_GEOMETRIES],
        "cache_size_bytes": CACHE_SIZE_BYTES,
    }


SPEC = ExperimentSpec(
    name="fig9",
    title="Figure 9: I-cache MPKI versus line width for specific benchmarks",
    runner=run_fig09,
    workloads=lambda: tuple(FIGURE9_WORKLOADS),
    constants=_constants,
)
