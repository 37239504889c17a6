"""Workload catalog and synthesis.

The paper characterizes 41 applications: 29 HPC workloads from the
ExMatEx, SPEC OMP 2012, and NPB suites plus 12 desktop workloads from
SPEC CPU INT 2006.  The original study instruments the real binaries
with Pin; those binaries (and their reference inputs) are not available
here, so each application is represented by a :class:`WorkloadSpec`
whose structural parameters are calibrated to the characteristics the
paper reports for it (branch density and mix, branch bias, loop
regularity, instruction footprints, basic-block lengths, and the
serial/parallel instruction split).  The synthesis layer turns a spec
into a synthetic program and execution schedule whose dynamic trace is
then measured by exactly the same analysis and hardware-simulation code
that a real trace would flow through.
"""

from repro.workloads.suites import Suite
from repro.workloads.spec import SectionProfile, WorkloadSpec
from repro.workloads.synthesis import SyntheticWorkload, build_workload
from repro.workloads.catalog import (
    WORKLOADS,
    desktop_workloads,
    get_workload,
    hpc_workloads,
    workload_names,
    workloads_in_suite,
)
from repro.workloads.trace_cache import (
    clear_trace_cache,
    resolved_cache_dir,
    trace_cache_info,
    workload_trace,
)

__all__ = [
    "Suite",
    "SectionProfile",
    "WorkloadSpec",
    "SyntheticWorkload",
    "build_workload",
    "WORKLOADS",
    "get_workload",
    "workload_names",
    "workloads_in_suite",
    "hpc_workloads",
    "desktop_workloads",
    "workload_trace",
    "clear_trace_cache",
    "trace_cache_info",
    "resolved_cache_dir",
]
