"""Core and CMP performance models (the paper's Sniper substitute).

Section V of the paper runs the workloads on an eight-core CMP of
Cortex-A9-like lean cores in the Sniper simulator.  Here the same
evaluation is carried out with an interval-style analytical model: a
core's CPI is a stack of a base component plus penalties proportional
to the front-end miss rates measured on the workload's trace, and a
CMP's execution time follows from scheduling the serial sections on the
master core and dividing the parallel sections over the worker cores.
"""

from repro.uarch.core import (
    BASELINE_CORE,
    TAILORED_CORE,
    CoreModel,
)
from repro.uarch.cpi import CpiStack, cpi_for_section
from repro.uarch.cmp import (
    ASYMMETRIC_CMP,
    ASYMMETRIC_PLUS_CMP,
    BASELINE_CMP,
    STANDARD_CMP_CONFIGS,
    TAILORED_CMP,
    CmpConfig,
)
from repro.uarch.simulator import (
    CmpRunResult,
    CoreActivity,
    WorkloadFrontendProfile,
    clear_profile_cache,
    profile_cache_info,
    profile_workload_frontend,
    run_on_cmp,
)
from repro.uarch.sweep import (
    SweepScenario,
    core_scaling_scenario,
    get_scenario,
    l2_scaling_scenario,
    mix_config,
    paper_scenario,
    standard_scenarios,
)

__all__ = [
    "CoreModel",
    "BASELINE_CORE",
    "TAILORED_CORE",
    "CpiStack",
    "cpi_for_section",
    "CmpConfig",
    "BASELINE_CMP",
    "TAILORED_CMP",
    "ASYMMETRIC_CMP",
    "ASYMMETRIC_PLUS_CMP",
    "STANDARD_CMP_CONFIGS",
    "WorkloadFrontendProfile",
    "profile_workload_frontend",
    "CoreActivity",
    "CmpRunResult",
    "run_on_cmp",
    "clear_profile_cache",
    "profile_cache_info",
    "SweepScenario",
    "mix_config",
    "paper_scenario",
    "core_scaling_scenario",
    "l2_scaling_scenario",
    "standard_scenarios",
    "get_scenario",
]
