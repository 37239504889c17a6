"""Figure 11: per-benchmark execution time normalized to the Baseline CMP.

A per-benchmark slice of Figure 10's execution time: the same
:func:`~repro.power.cmp_power.cmp_rows` worker over six workloads.
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
    normalize_to_reference,
)
from repro.power.cmp_power import cmp_rows
from repro.results.spec import ExperimentSpec
from repro.uarch.cmp import STANDARD_CMP_CONFIGS, CmpConfig

#: The benchmarks shown in Figure 11 of the paper.
FIGURE11_WORKLOADS = ("CoEVP", "CoMD", "fma3d", "FT", "h264ref", "gobmk")


@dataclass
class Fig11Result(FrameResult):
    """Normalized execution time per (workload, CMP configuration).

    Frames:

    ``workloads`` (primary)
        One row per workload: execution time per CMP, normalized to
        the Baseline CMP.
    """

    instructions: int
    cmp_names: List[str] = field(default_factory=list)
    workloads: List[str] = field(default_factory=list)
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "workloads"
    PAYLOAD = (
        PayloadField.scalar("instructions"),
        PayloadField.scalar("cmp_names"),
        PayloadField.scalar("workloads"),
        PayloadField.pivot("normalized_time", "workloads", [["workload"]]),
    )

    def views(self) -> Sequence[RowView]:
        return (
            RowView(
                "workloads",
                (("workload", "workload", str),)
                + tuple((name, name, fixed(3)) for name in self.cmp_names),
            ),
        )


def run_fig11(
    instructions: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    cmps: Sequence[CmpConfig] = STANDARD_CMP_CONFIGS,
) -> Fig11Result:
    """Regenerate the Figure 11 data.

    One sweep of Figure 10's worker,
    :func:`~repro.power.cmp_power.cmp_rows`, over the Figure 11
    workloads, through the current session's sweep engine; each row's
    execution seconds are normalized to its first chip.  It shares the
    trace and profile caches with Figure 10, so running fig11 after
    fig10 (or twice) re-simulates nothing in-process.
    """
    instructions = experiment_instructions(instructions)
    cmps = tuple(cmps)
    cmp_names = [cmp.name for cmp in cmps]
    names = list(workloads or FIGURE11_WORKLOADS)
    specs, rows = current_session().workload_sweep(
        cmp_rows, instructions, (cmps,), names=names
    )
    workload_rows = []
    for spec, chip_rows in zip(specs, rows):
        times = normalize_to_reference(
            {row[0]: row[1] for row in chip_rows}, cmp_names[0]
        )
        workload_rows.append((spec.name,) + tuple(times[name] for name in cmp_names))
    return Fig11Result(
        instructions=instructions,
        cmp_names=cmp_names,
        workloads=names,
        frames={
            "workloads": ResultFrame.from_rows(
                ["workload", *cmp_names], workload_rows
            ),
        },
    )


def _constants() -> Dict[str, object]:
    """Key material: the four Section V chips Figure 11 compares."""
    return {"cmp_names": [cmp.name for cmp in STANDARD_CMP_CONFIGS]}


SPEC = ExperimentSpec(
    name="fig11",
    title="Figure 11: per-benchmark execution time normalized to the Baseline CMP",
    runner=run_fig11,
    workloads=lambda: tuple(FIGURE11_WORKLOADS),
    constants=_constants,
)
