"""Figure 11: per-benchmark execution time normalized to the Baseline CMP."""

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
from repro.results.spec import ExperimentSpec
from repro.uarch.cmp import STANDARD_CMP_CONFIGS, CmpConfig
from repro.uarch.simulator import profile_workload_frontend, run_on_cmp

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


def _evaluate_workload_time(args) -> Dict[str, float]:
    """Per-workload worker: normalized execution time per CMP.

    Shares the trace/profile caches with Figure 10, so running fig11
    after fig10 (or twice) re-simulates nothing in-process.
    """
    spec, instructions, cmps = args
    profile = profile_workload_frontend(spec, instructions)
    times = {cmp.name: run_on_cmp(profile, cmp).execution_seconds for cmp in cmps}
    return normalize_to_reference(times, cmps[0].name)


def run_fig11(
    instructions: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    cmps: Sequence[CmpConfig] = STANDARD_CMP_CONFIGS,
) -> Fig11Result:
    """Regenerate the Figure 11 data.

    The per-workload evaluation runs through the current session's
    sweep engine.
    """
    instructions = experiment_instructions(instructions)
    cmps = tuple(cmps)
    cmp_names = [cmp.name for cmp in cmps]
    names = list(workloads or FIGURE11_WORKLOADS)
    specs, rows = current_session().workload_sweep(
        _evaluate_workload_time,
        (instructions, cmps),
        names=names,
    )
    workload_rows = [
        (spec.name,) + tuple(normalized[name] for name in cmp_names)
        for spec, normalized in zip(specs, rows)
    ]
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


def _derive_from_fig10(dependencies, config) -> Optional[Fig11Result]:
    """Build the Figure 11 result from a Figure 10 artifact.

    Figure 11 is a per-benchmark slice of Figure 10's normalized
    execution-time metric, so when a compatible Figure 10 artifact is
    available (same instruction budget, the standard chips, and
    coverage of every Figure 11 benchmark) the result can be assembled
    without simulating anything.  Since the frame-native artifacts the
    slice reads Figure 10's stored ``workloads`` frame directly: the
    sliced cells are the very floats Figure 10 computed, so the derived
    artifact is bit-identical to a directly computed one.
    """
    fig10 = dependencies.get("fig10")
    if fig10 is None:
        return None
    scalars = {
        entry.get("name"): entry.get("value")
        for entry in fig10.get("payload") or []
        if isinstance(entry, dict) and entry.get("frame") is None
    }
    if scalars.get("instructions") != config.get("instructions"):
        return None
    cmp_names = list(scalars.get("cmp_names") or [])
    if cmp_names != [cmp.name for cmp in STANDARD_CMP_CONFIGS]:
        return None
    try:
        frame = ResultFrame.from_payload((fig10.get("frames") or {}).get("workloads"))
    except ValueError:
        return None
    times = frame.select(metric="execution time")
    by_workload = {record.get("workload"): record for record in times.records()}
    names = list(FIGURE11_WORKLOADS)
    rows: List[tuple] = []
    for name in names:
        record = by_workload.get(name)
        if record is None or any(cmp not in record for cmp in cmp_names):
            return None
        rows.append((name,) + tuple(float(record[cmp]) for cmp in cmp_names))
    return Fig11Result(
        instructions=int(config["instructions"]),
        cmp_names=cmp_names,
        workloads=names,
        frames={"workloads": ResultFrame.from_rows(["workload", *cmp_names], rows)},
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
    dependencies=("fig10",),
    derive=_derive_from_fig10,
)
