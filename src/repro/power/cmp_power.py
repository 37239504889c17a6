"""CMP-level power, energy, and energy-delay evaluation (Figure 10).

Following the paper, only the private resources (cores and their L2
slices) are accounted because the shared last-level cache and
interconnect are identical across configurations.  Power combines each
core's active power weighted by its busy time with its idle power for
the remainder of the run, plus the L2 slices.  :func:`cmp_rows` is the
per-workload worker that Figures 10 and 11, ``cmpsweep`` and a CMP
exploration share; its items are ``(spec, instructions, seed, chips)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.power.core_power import (
    CoreAreaPower,
    core_area_power,
    l2_area_mm2,
    l2_power_w,
)
from repro.uarch.cmp import CmpConfig
from repro.uarch.simulator import (
    CmpRunResult,
    profile_workload_frontend,
    run_on_cmp,
)


@dataclass(frozen=True)
class CmpEnergyResult:
    """Execution time, power, energy, and ED product of one CMP run."""

    workload_name: str
    cmp_name: str
    execution_seconds: float
    average_power_w: float
    area_mm2: float

    @property
    def energy_j(self) -> float:
        """Total energy of the run."""
        return self.average_power_w * self.execution_seconds

    @property
    def energy_delay(self) -> float:
        """Energy-delay product."""
        return self.energy_j * self.execution_seconds


def cmp_area_mm2(cmp: CmpConfig, include_l2: bool = True) -> float:
    """Total private area of a CMP configuration.

    ``include_l2`` adds the per-core private L2 slices (the budget the
    power analysis accounts); the paper's "same area budget" argument
    for Asymmetric++ is made on core area alone, which is what
    ``include_l2=False`` returns.
    """
    area = 0.0
    l2_area = l2_area_mm2(cmp.l2_kb_per_core) if include_l2 else 0.0
    for core, count in cmp.worker_cores:
        core_budget = core_area_power(core)
        area += count * (core_budget.total_area_mm2 + l2_area)
    return area


def evaluate_cmp_energy(run: CmpRunResult) -> CmpEnergyResult:
    """Compute average power, energy, and ED product for one CMP run."""
    execution = run.execution_seconds
    if execution <= 0:
        raise ValueError("execution time must be positive")

    total_energy = 0.0
    l2_slice_power = l2_power_w(run.cmp.l2_kb_per_core)
    for activity in run.activities:
        budget: CoreAreaPower = core_area_power(activity.core)
        busy = min(activity.busy_seconds_per_core, execution)
        idle = execution - busy
        per_core_energy = budget.active_power_w * busy + budget.idle_power_w * idle
        l2_energy = l2_slice_power * execution
        total_energy += activity.count * (per_core_energy + l2_energy)

    return CmpEnergyResult(
        workload_name=run.workload_name,
        cmp_name=run.cmp.name,
        execution_seconds=execution,
        average_power_w=total_energy / execution,
        area_mm2=cmp_area_mm2(run.cmp),
    )


def cmp_rows(args) -> List[List[Any]]:
    """Per-workload worker: every chip over one cached Section V profile.

    Takes ``(spec, instructions, seed, chips)``, profiles the trace
    ``(spec, instructions, seed)`` and returns one ``[chip name,
    execution seconds, average power W, energy J]`` row per chip, in
    chip order, so callers read the rows by position, never by name: a
    ``cmpsweep`` item carries the chips of every selected scenario, and
    two scenarios may name different chips alike.  Figures 10 and 11 run
    it over the paper's chips, a CMP exploration chunk over its grid
    points at the plan's seed.
    """
    spec, instructions, seed, chips = args
    profile = profile_workload_frontend(spec, instructions, seed=seed)
    rows: List[List[Any]] = []
    for cmp in chips:
        run = run_on_cmp(profile, cmp)
        energy = evaluate_cmp_energy(run)
        rows.append(
            [cmp.name, run.execution_seconds, energy.average_power_w, energy.energy_j]
        )
    return rows
