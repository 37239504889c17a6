#!/usr/bin/env python3
"""Asymmetric CMP design-space study (the Section V evaluation).

Evaluates the four chip configurations of the paper -- Baseline,
Tailored, Asymmetric, and Asymmetric++ -- on a mix of HPC and desktop
workloads, reporting execution time, power, energy, and energy-delay,
plus the area budgets that justify adding the ninth core.

Run with::

    python examples/asymmetric_cmp_study.py
"""

from repro.experiments.common import format_table
from repro.power import core_area_power, evaluate_cmp_energy
from repro.power.cmp_power import cmp_area_mm2
from repro.uarch import (
    BASELINE_CORE,
    STANDARD_CMP_CONFIGS,
    TAILORED_CORE,
    profile_workload_frontend,
    run_on_cmp,
)
from repro.workloads import get_workload

TRACE_INSTRUCTIONS = 150_000
WORKLOADS = ("FT", "LU", "CoMD", "CoEVP", "fma3d", "gobmk")


def area_report() -> str:
    rows = []
    for core in (BASELINE_CORE, TAILORED_CORE):
        budget = core_area_power(core)
        rows.append([
            core.name,
            f"{budget.total_area_mm2:.2f}",
            f"{budget.active_power_w:.2f}",
        ])
    for cmp in STANDARD_CMP_CONFIGS:
        rows.append([
            cmp.describe(),
            f"{cmp_area_mm2(cmp, include_l2=False):.1f}",
            "-",
        ])
    return format_table(["core / CMP", "area [mm2]", "power [W]"], rows)


def workload_report(name: str) -> str:
    profile = profile_workload_frontend(get_workload(name), TRACE_INSTRUCTIONS)
    rows = []
    reference = None
    for cmp in STANDARD_CMP_CONFIGS:
        run = run_on_cmp(profile, cmp)
        energy = evaluate_cmp_energy(run)
        if reference is None:
            reference = (run.execution_seconds, energy.average_power_w,
                         energy.energy_j, energy.energy_delay)
        rows.append([
            cmp.name,
            f"{run.execution_seconds / reference[0]:.3f}",
            f"{energy.average_power_w / reference[1]:.3f}",
            f"{energy.energy_j / reference[2]:.3f}",
            f"{energy.energy_delay / reference[3]:.3f}",
        ])
    return format_table(
        ["configuration", "time", "power", "energy", "energy-delay"], rows
    )


def main() -> None:
    print("Core and chip area/power budgets")
    print(area_report())
    for name in WORKLOADS:
        print(f"\n{name}: normalized to the Baseline CMP")
        print(workload_report(name))
    print("\nFor parallel HPC workloads the Asymmetric++ CMP (1 baseline + 8")
    print("tailored cores, same core-area budget) is the fastest and has the")
    print("best energy-delay; sequential desktop code sees no benefit, which")
    print("is why the baseline core is kept for the master thread.")


if __name__ == "__main__":
    main()
