"""Workload execution on a CMP (the Sniper-substitute driver).

``profile_workload_frontend`` measures, once per core flavour and code
section, the front-end miss rates of a workload's trace (pulled from
the shared :mod:`repro.workloads.trace_cache` at ``(spec, instructions,
seed)``, the budget defaulting to the current config's, simulated with
the batched multi-configuration engine, and memoized weakly per trace --
see the function docstring for the cache-routing contract);
``run_on_cmp`` then schedules the workload on a CMP configuration: the
serial sections run on the master core, the parallel sections are
divided evenly over all cores (static scheduling with one thread per
core), and the execution time is the serial time plus the slowest
parallel share.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import runtime_config
from repro.counters import Counters
from repro.frontend.simulation import FrontEndResult, simulate_frontend_many
from repro.trace.events import Trace
from repro.trace.instruction import CodeSection
from repro.uarch.cmp import CmpConfig
from repro.uarch.core import BASELINE_CORE, TAILORED_CORE, CoreModel
from repro.uarch.cpi import CpiStack, cpi_for_section
from repro.workloads.spec import WorkloadSpec
from repro.workloads.trace_cache import workload_trace

#: Nominal dynamic instruction count used to convert per-instruction
#: times into seconds.  All Figure 10/11 results are normalized to the
#: Baseline CMP, so the absolute value only sets the reporting scale.
NOMINAL_INSTRUCTIONS = 1_000_000_000


@dataclass
class WorkloadFrontendProfile:
    """Front-end behaviour of one workload on each core flavour."""

    workload_name: str
    serial_fraction: float
    threads: int
    is_sequential: bool
    results: Dict[Tuple[str, CodeSection], FrontEndResult] = field(default_factory=dict)

    def result_for(self, core: CoreModel, section: CodeSection) -> FrontEndResult:
        """Front-end result of a core flavour on a code section."""
        key = (core.frontend.name, section)
        if key not in self.results:
            raise KeyError(
                f"no front-end profile for core {core.name!r} and section {section.name}"
            )
        return self.results[key]

    def cpi(self, core: CoreModel, section: CodeSection) -> CpiStack:
        """CPI stack of a core flavour on a code section."""
        return cpi_for_section(core, self.result_for(core, section))


@dataclass
class CoreActivity:
    """Busy time of one core flavour within a CMP run."""

    core: CoreModel
    count: int
    busy_seconds_per_core: float


@dataclass
class CmpRunResult:
    """Execution-time result of one workload on one CMP configuration."""

    workload_name: str
    cmp: CmpConfig
    serial_seconds: float
    parallel_seconds: float
    activities: List[CoreActivity]

    @property
    def execution_seconds(self) -> float:
        """End-to-end execution time."""
        return self.serial_seconds + self.parallel_seconds


#: trace -> cores -> its :class:`WorkloadFrontendProfile`.  Weakly keyed
#: by the trace, like the section streams the profiles are built from
#: (:data:`repro.frontend.simulation._STREAMS`), so a profile lives
#: exactly as long as its trace.
_PROFILES: "weakref.WeakKeyDictionary[Trace, Dict[tuple, WorkloadFrontendProfile]]" = (
    weakref.WeakKeyDictionary()
)

_COUNTERS = Counters(
    "profiles",
    ("hits", "misses"),
    {"entries": lambda: sum(map(len, list(_PROFILES.values())))},
)


def clear_profile_cache() -> None:
    """Drop every memoized front-end profile (tests and memory pressure)."""
    _PROFILES.clear()
    _COUNTERS.reset()


def profile_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the front-end profile memo."""
    return _COUNTERS.snapshot()


def profile_workload_frontend(
    spec: WorkloadSpec,
    instructions: Optional[int] = None,
    seed: int = 0,
    cores: Tuple[CoreModel, ...] = (BASELINE_CORE, TAILORED_CORE),
) -> WorkloadFrontendProfile:
    """Measure front-end miss rates per core flavour and code section.

    Cache-routing contract
    ----------------------
    The trace ``(spec, instructions, seed)`` is obtained through the
    shared :func:`repro.workloads.trace_cache.workload_trace` cache --
    never by building the workload directly -- so the Section V stack
    (Figures 10/11) reuses the very same trace objects the Section IV
    sweeps generated, in process and on disk (parallel sweeps default
    ``REPRO_TRACE_CACHE_DIR`` to the per-user shared directory; cold
    traces themselves come from the compiled segment engine).  When
    ``instructions`` is omitted it is the current config's budget
    (:func:`repro.api.runtime_config.current_config`: the active
    session's, else ``REPRO_INSTRUCTIONS``, else
    :data:`~repro.api.runtime_config.DEFAULT_INSTRUCTIONS`).  The resulting
    profile is itself memoized per ``(trace, cores)``, weakly keyed by
    the trace; repeated calls return the *same* object, which callers
    must treat as read-only.  A profile lives as long as its trace, so
    clearing the trace cache drops it too.

    All core flavours are simulated through the batched
    :func:`repro.frontend.simulation.simulate_frontend_many` engine,
    which decodes each section's branch/line streams once and runs
    every front-end configuration over the shared columnar views.
    """
    if instructions is None:
        instructions = runtime_config.current_config().instructions
    # The trace is the memo's key: on a warm run this is a dictionary
    # lookup, and it keeps the shared trace cache the single source of
    # truth (its hit counters account every profiling pass, cached or
    # not).
    trace = workload_trace(spec, instructions, seed=seed)
    cores = tuple(cores)
    profiles = _PROFILES.setdefault(trace, {})
    cached = profiles.get(cores)
    if cached is not None:
        _COUNTERS.add("hits")
        return cached
    _COUNTERS.add("misses")
    profile = WorkloadFrontendProfile(
        workload_name=spec.name,
        serial_fraction=spec.serial_fraction,
        threads=spec.threads,
        is_sequential=spec.is_sequential,
    )
    if spec.is_sequential:
        sections = [CodeSection.TOTAL]
    else:
        sections = [CodeSection.SERIAL, CodeSection.PARALLEL]
    batched = simulate_frontend_many(
        trace, [core.frontend for core in cores], sections
    )
    for core in cores:
        for section in sections:
            profile.results[(core.frontend.name, section)] = batched[
                (core.frontend.name, section)
            ]
    profiles[cores] = profile
    return profile


def run_on_cmp(
    profile: WorkloadFrontendProfile,
    cmp: CmpConfig,
    instructions: int = NOMINAL_INSTRUCTIONS,
) -> CmpRunResult:
    """Schedule a profiled workload on a CMP and compute execution time."""
    master = cmp.master_core

    if profile.is_sequential:
        cpi = profile.cpi(master, CodeSection.TOTAL).total
        serial_seconds = instructions * cpi / master.cycles_per_second()
        activities = _activities(cmp, master_busy=serial_seconds, parallel_share=0.0)
        return CmpRunResult(
            workload_name=profile.workload_name,
            cmp=cmp,
            serial_seconds=serial_seconds,
            parallel_seconds=0.0,
            activities=activities,
        )

    serial_instructions = instructions * profile.serial_fraction
    parallel_instructions = instructions - serial_instructions

    serial_cpi = profile.cpi(master, CodeSection.SERIAL).total
    serial_seconds = serial_instructions * serial_cpi / master.cycles_per_second()

    # Parallel sections: one thread per core, static partitioning, so
    # every core receives an equal instruction share and the section
    # finishes when the slowest flavour finishes.
    share = parallel_instructions / cmp.total_cores
    parallel_seconds = 0.0
    per_flavour_busy: Dict[str, float] = {}
    for core, count in cmp.worker_cores:
        cpi = profile.cpi(core, CodeSection.PARALLEL).total
        busy = share * cpi / core.cycles_per_second()
        per_flavour_busy[core.name] = busy
        parallel_seconds = max(parallel_seconds, busy)

    activities = []
    for core, count in cmp.worker_cores:
        busy = per_flavour_busy[core.name]
        if core.name == master.name:
            # One of these cores is the master and also runs the serial
            # sections; spread the serial time over the flavour's
            # per-core average for power accounting.
            busy = busy + serial_seconds / count
        activities.append(
            CoreActivity(core=core, count=count, busy_seconds_per_core=busy)
        )

    return CmpRunResult(
        workload_name=profile.workload_name,
        cmp=cmp,
        serial_seconds=serial_seconds,
        parallel_seconds=parallel_seconds,
        activities=activities,
    )


def _activities(
    cmp: CmpConfig, master_busy: float, parallel_share: float
) -> List[CoreActivity]:
    """Core activities for a sequential run (only the master is busy)."""
    activities: List[CoreActivity] = []
    master = cmp.master_core
    for core, count in cmp.worker_cores:
        if core.name == master.name:
            busy = (master_busy + parallel_share * (count - 1)) / count
        else:
            busy = parallel_share
        activities.append(
            CoreActivity(core=core, count=count, busy_seconds_per_core=busy)
        )
    return activities
