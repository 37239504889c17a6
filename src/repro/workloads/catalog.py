"""Catalog of the 41 applications characterized in the paper.

29 HPC workloads (ExMatEx, SPEC OMP 2012, NPB) and 12 desktop workloads
(SPEC CPU INT 2006).  The structural parameters of each entry are
calibrated to the characteristics the paper reports -- suite-level
branch densities and bias (Figures 1 and 2, Table I), instruction
footprints (Figure 3), basic-block lengths (Figure 4), serial-section
shares (Section III-D), and the per-benchmark call-outs scattered
through the text (e.g. CoEVP's 35% serial share and 2.5% indirect
branches, BT's 312-byte basic blocks, VPFFT's 800KB static footprint,
fma3d's I-cache sensitivity, gcc/gobmk/sjeng's BTB pressure).

The catalog intentionally lives in one module so a reader can audit
every number used to stand in for the unavailable real binaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.workloads.spec import SectionProfile, WorkloadSpec
from repro.workloads.suites import SUITE_ORDER, Suite

# ----------------------------------------------------------------------
# Suite-level default profiles
# ----------------------------------------------------------------------

_EXMATEX_PARALLEL = SectionProfile(
    branch_fraction=0.11,
    call_fraction=0.045,
    indirect_call_fraction=0.001,
    indirect_branch_fraction=0.001,
    unconditional_fraction=0.06,
    syscall_fraction=0.0004,
    loop_share=0.58,
    avg_trip_count=20.0,
    loop_regularity=0.72,
    balanced_if_share=0.15,
    moderate_if_share=0.25,
    if_taken_dominant_share=0.20,
    hot_code_kb=12.0,
    bytes_per_instruction=5.0,
)

_EXMATEX_SERIAL = SectionProfile(
    branch_fraction=0.20,
    call_fraction=0.07,
    indirect_call_fraction=0.002,
    indirect_branch_fraction=0.002,
    unconditional_fraction=0.08,
    syscall_fraction=0.001,
    loop_share=0.52,
    avg_trip_count=10.0,
    loop_regularity=0.50,
    balanced_if_share=0.22,
    moderate_if_share=0.30,
    if_taken_dominant_share=0.30,
    hot_code_kb=20.0,
    bytes_per_instruction=4.0,
)

_SPEC_OMP_PARALLEL = SectionProfile(
    branch_fraction=0.07,
    call_fraction=0.04,
    indirect_call_fraction=0.0005,
    indirect_branch_fraction=0.0005,
    unconditional_fraction=0.05,
    syscall_fraction=0.0003,
    loop_share=0.62,
    avg_trip_count=26.0,
    loop_regularity=0.85,
    balanced_if_share=0.08,
    moderate_if_share=0.15,
    if_taken_dominant_share=0.15,
    hot_code_kb=6.0,
    bytes_per_instruction=5.0,
)

_SPEC_OMP_SERIAL = SectionProfile(
    branch_fraction=0.18,
    call_fraction=0.06,
    indirect_call_fraction=0.001,
    indirect_branch_fraction=0.001,
    unconditional_fraction=0.07,
    syscall_fraction=0.001,
    loop_share=0.55,
    avg_trip_count=11.0,
    loop_regularity=0.55,
    balanced_if_share=0.20,
    moderate_if_share=0.28,
    if_taken_dominant_share=0.30,
    hot_code_kb=10.0,
    bytes_per_instruction=4.0,
)

_NPB_PARALLEL = SectionProfile(
    branch_fraction=0.07,
    call_fraction=0.03,
    indirect_call_fraction=0.0003,
    indirect_branch_fraction=0.0003,
    unconditional_fraction=0.05,
    syscall_fraction=0.0003,
    loop_share=0.65,
    avg_trip_count=28.0,
    loop_regularity=0.88,
    balanced_if_share=0.06,
    moderate_if_share=0.12,
    if_taken_dominant_share=0.15,
    hot_code_kb=5.0,
    bytes_per_instruction=5.0,
)

_NPB_SERIAL = SectionProfile(
    branch_fraction=0.18,
    call_fraction=0.055,
    indirect_call_fraction=0.001,
    indirect_branch_fraction=0.001,
    unconditional_fraction=0.07,
    syscall_fraction=0.001,
    loop_share=0.56,
    avg_trip_count=12.0,
    loop_regularity=0.60,
    balanced_if_share=0.18,
    moderate_if_share=0.28,
    if_taken_dominant_share=0.30,
    hot_code_kb=6.0,
    bytes_per_instruction=4.0,
)

_SPEC_INT = SectionProfile(
    branch_fraction=0.19,
    call_fraction=0.085,
    indirect_call_fraction=0.004,
    indirect_branch_fraction=0.006,
    unconditional_fraction=0.11,
    syscall_fraction=0.001,
    loop_share=0.50,
    avg_trip_count=9.0,
    loop_regularity=0.38,
    balanced_if_share=0.30,
    moderate_if_share=0.35,
    if_taken_dominant_share=0.30,
    hot_code_kb=120.0,
    bytes_per_instruction=4.0,
)


def _hpc(
    name: str,
    suite: Suite,
    base_parallel: SectionProfile,
    base_serial: SectionProfile,
    serial_fraction: float,
    static_code_kb: float,
    description: str,
    parallel: Optional[Dict[str, float]] = None,
    serial: Optional[Dict[str, float]] = None,
) -> WorkloadSpec:
    """Build one HPC workload spec from suite defaults plus overrides."""
    parallel_profile = base_parallel.scaled(**(parallel or {}))
    serial_profile = base_serial.scaled(**(serial or {}))
    return WorkloadSpec(
        name=name,
        suite=suite,
        parallel=parallel_profile,
        serial=serial_profile,
        serial_fraction=serial_fraction,
        static_code_kb=static_code_kb,
        threads=8,
        description=description,
    )


def _desktop(
    name: str,
    static_code_kb: float,
    description: str,
    profile: Optional[Dict[str, float]] = None,
) -> WorkloadSpec:
    """Build one SPEC CPU INT workload spec."""
    serial_profile = _SPEC_INT.scaled(**(profile or {}))
    return WorkloadSpec(
        name=name,
        suite=Suite.SPEC_CPU_INT,
        parallel=serial_profile,
        serial=serial_profile,
        serial_fraction=1.0,
        static_code_kb=static_code_kb,
        threads=1,
        description=description,
    )


def _build_exmatex() -> List[WorkloadSpec]:
    """The eight ExMatEx co-design proxy applications."""
    return [
        _hpc(
            "CoMD", Suite.EXMATEX, _EXMATEX_PARALLEL, _EXMATEX_SERIAL,
            serial_fraction=0.08, static_code_kb=180.0,
            description="Classical molecular dynamics proxy (Lennard-Jones/EAM force kernels).",
            parallel=dict(hot_code_kb=6.0, branch_fraction=0.10, avg_trip_count=22.0),
            serial=dict(hot_code_kb=16.0),
        ),
        _hpc(
            "LULESH", Suite.EXMATEX, _EXMATEX_PARALLEL, _EXMATEX_SERIAL,
            serial_fraction=0.11, static_code_kb=160.0,
            description="Unstructured Lagrangian shock hydrodynamics proxy.",
            parallel=dict(hot_code_kb=24.0, branch_fraction=0.04, avg_trip_count=24.0,
                          loop_share=0.70, balanced_if_share=0.10),
            serial=dict(hot_code_kb=18.0),
        ),
        _hpc(
            "CoEVP", Suite.EXMATEX, _EXMATEX_PARALLEL, _EXMATEX_SERIAL,
            serial_fraction=0.35, static_code_kb=420.0,
            description="Embedded viscoplasticity proxy with adaptive fine-scale models.",
            parallel=dict(hot_code_kb=30.0, branch_fraction=0.13, loop_share=0.58,
                          indirect_branch_fraction=0.012, indirect_call_fraction=0.012,
                          loop_regularity=0.60, balanced_if_share=0.18, moderate_if_share=0.28),
            serial=dict(hot_code_kb=40.0, branch_fraction=0.21,
                        indirect_branch_fraction=0.008, indirect_call_fraction=0.008),
        ),
        _hpc(
            "CoHMM", Suite.EXMATEX, _EXMATEX_PARALLEL, _EXMATEX_SERIAL,
            serial_fraction=0.05, static_code_kb=140.0,
            description="Heterogeneous multiscale method proxy with short basic blocks.",
            parallel=dict(hot_code_kb=2.0, branch_fraction=0.15, avg_trip_count=14.0),
            serial=dict(hot_code_kb=10.0),
        ),
        _hpc(
            "CoSP", Suite.EXMATEX, _EXMATEX_PARALLEL, _EXMATEX_SERIAL,
            serial_fraction=0.09, static_code_kb=150.0,
            description="Sparse linear-algebra proxy (CoSP2 electronic structure).",
            parallel=dict(hot_code_kb=2.0, branch_fraction=0.15, avg_trip_count=12.0,
                          loop_share=0.62),
            serial=dict(hot_code_kb=12.0),
        ),
        _hpc(
            "CoGL", Suite.EXMATEX, _EXMATEX_PARALLEL, _EXMATEX_SERIAL,
            serial_fraction=0.04, static_code_kb=200.0,
            description="Ginzburg-Landau phase-field proxy with a wide hot region.",
            parallel=dict(hot_code_kb=28.0, branch_fraction=0.09, avg_trip_count=20.0),
            serial=dict(hot_code_kb=14.0),
        ),
        _hpc(
            "VPFFT", Suite.EXMATEX, _EXMATEX_PARALLEL, _EXMATEX_SERIAL,
            serial_fraction=0.03, static_code_kb=800.0,
            description="Crystal viscoplasticity proxy linked against FFTW/BLAS/LAPACK.",
            parallel=dict(hot_code_kb=40.0, branch_fraction=0.08, avg_trip_count=18.0),
            serial=dict(hot_code_kb=22.0),
        ),
        _hpc(
            "ASPA", Suite.EXMATEX, _EXMATEX_PARALLEL, _EXMATEX_SERIAL,
            serial_fraction=0.02, static_code_kb=170.0,
            description="Adaptive sampling proxy application.",
            parallel=dict(hot_code_kb=8.0, branch_fraction=0.11, avg_trip_count=16.0),
            serial=dict(hot_code_kb=12.0),
        ),
    ]


def _build_spec_omp() -> List[WorkloadSpec]:
    """The eleven distinct SPEC OMP 2012 applications."""
    return [
        _hpc(
            "md", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.006, static_code_kb=95.0,
            description="Molecular dynamics of dense nuclear matter (Fortran).",
            parallel=dict(hot_code_kb=2.0, indirect_branch_fraction=0.006,
                          indirect_call_fraction=0.004, avg_trip_count=30.0),
        ),
        _hpc(
            "bwaves", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.005, static_code_kb=100.0,
            description="Blast-wave computational fluid dynamics solver.",
            parallel=dict(hot_code_kb=3.0, branch_fraction=0.05, avg_trip_count=32.0),
        ),
        _hpc(
            "nab", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.04, static_code_kb=130.0,
            description="Nucleic-acid builder molecular modelling.",
            parallel=dict(hot_code_kb=4.0, branch_fraction=0.09, loop_share=0.70),
            serial=dict(hot_code_kb=12.0),
        ),
        _hpc(
            "botsalgn", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.008, static_code_kb=85.0,
            description="Protein alignment with OpenMP tasks.",
            parallel=dict(hot_code_kb=2.0, branch_fraction=0.10, loop_share=0.70,
                          avg_trip_count=18.0),
        ),
        _hpc(
            "botsspar", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.008, static_code_kb=90.0,
            description="Sparse LU factorization with OpenMP tasks; short, loopy blocks.",
            parallel=dict(hot_code_kb=2.0, branch_fraction=0.15, loop_share=0.78,
                          avg_trip_count=16.0, loop_regularity=0.92),
        ),
        _hpc(
            "ilbdc", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.006, static_code_kb=80.0,
            description="Lattice-Boltzmann flow solver.",
            parallel=dict(hot_code_kb=3.0, branch_fraction=0.05, avg_trip_count=34.0),
        ),
        _hpc(
            "fma3d", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.04, static_code_kb=250.0,
            description="Crash-simulation finite element code; largest SPEC OMP I-cache footprint.",
            parallel=dict(hot_code_kb=30.0, branch_fraction=0.08, loop_share=0.68,
                          loop_regularity=0.70, balanced_if_share=0.14, moderate_if_share=0.22),
            serial=dict(hot_code_kb=16.0),
        ),
        _hpc(
            "swim", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.005, static_code_kb=75.0,
            description="Shallow-water weather prediction stencil; very long basic blocks.",
            parallel=dict(hot_code_kb=2.0, branch_fraction=0.033, avg_trip_count=36.0),
        ),
        _hpc(
            "imagick", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.01, static_code_kb=200.0,
            description="ImageMagick image manipulation; loop predictor friendly.",
            parallel=dict(hot_code_kb=8.0, branch_fraction=0.12, loop_share=0.80,
                          loop_regularity=0.94, avg_trip_count=20.0),
            serial=dict(hot_code_kb=12.0),
        ),
        _hpc(
            "smithwa", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.007, static_code_kb=70.0,
            description="Smith-Waterman sequence alignment.",
            parallel=dict(hot_code_kb=2.0, branch_fraction=0.11, avg_trip_count=22.0),
        ),
        _hpc(
            "kdtree", Suite.SPEC_OMP, _SPEC_OMP_PARALLEL, _SPEC_OMP_SERIAL,
            serial_fraction=0.01, static_code_kb=95.0,
            description="k-d tree construction and search; recursive with indirect jumps.",
            parallel=dict(hot_code_kb=6.0, branch_fraction=0.13, loop_share=0.62,
                          indirect_branch_fraction=0.006, indirect_call_fraction=0.004,
                          loop_regularity=0.55, avg_trip_count=12.0,
                          balanced_if_share=0.18, moderate_if_share=0.26),
        ),
    ]


def _build_npb() -> List[WorkloadSpec]:
    """The ten NAS Parallel Benchmarks (class C inputs)."""
    return [
        _hpc(
            "BT", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.006, static_code_kb=180.0,
            description="Block tri-diagonal CFD solver; very long basic blocks.",
            parallel=dict(hot_code_kb=20.0, branch_fraction=0.016, avg_trip_count=30.0),
        ),
        _hpc(
            "CG", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.005, static_code_kb=85.0,
            description="Conjugate gradient with irregular memory access; short loopy blocks.",
            parallel=dict(hot_code_kb=1.5, branch_fraction=0.13, avg_trip_count=20.0,
                          loop_regularity=0.80),
        ),
        _hpc(
            "DC", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.01, static_code_kb=120.0,
            description="Data-cube operator benchmark; more control flow than the CFD kernels.",
            parallel=dict(hot_code_kb=8.0, branch_fraction=0.12, loop_share=0.68,
                          loop_regularity=0.65, balanced_if_share=0.12, moderate_if_share=0.22),
        ),
        _hpc(
            "EP", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.004, static_code_kb=70.0,
            description="Embarrassingly parallel random-number kernel with indirect jumps.",
            parallel=dict(hot_code_kb=1.5, branch_fraction=0.09,
                          indirect_branch_fraction=0.008, loop_regularity=0.75),
        ),
        _hpc(
            "FT", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.005, static_code_kb=110.0,
            description="3-D fast Fourier transform kernel.",
            parallel=dict(hot_code_kb=3.0, branch_fraction=0.05, avg_trip_count=32.0),
        ),
        _hpc(
            "IS", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.008, static_code_kb=65.0,
            description="Integer bucket sort; short basic blocks with short reuse distance.",
            parallel=dict(hot_code_kb=1.5, branch_fraction=0.14, avg_trip_count=18.0,
                          loop_regularity=0.80),
        ),
        _hpc(
            "LU", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.005, static_code_kb=140.0,
            description="Lower-upper Gauss-Seidel CFD solver.",
            parallel=dict(hot_code_kb=6.0, branch_fraction=0.05, avg_trip_count=30.0),
        ),
        _hpc(
            "MG", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.006, static_code_kb=100.0,
            description="Multi-grid Poisson solver.",
            parallel=dict(hot_code_kb=3.0, branch_fraction=0.045, avg_trip_count=26.0),
        ),
        _hpc(
            "SP", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.006, static_code_kb=150.0,
            description="Scalar penta-diagonal CFD solver.",
            parallel=dict(hot_code_kb=8.0, branch_fraction=0.03, avg_trip_count=28.0),
        ),
        _hpc(
            "UA", Suite.NPB, _NPB_PARALLEL, _NPB_SERIAL,
            serial_fraction=0.008, static_code_kb=252.0,
            description="Unstructured adaptive mesh benchmark with indirect jumps.",
            parallel=dict(hot_code_kb=14.0, branch_fraction=0.09,
                          indirect_branch_fraction=0.006, indirect_call_fraction=0.003,
                          loop_share=0.72, loop_regularity=0.70),
            serial=dict(hot_code_kb=10.0),
        ),
    ]


def _build_spec_cpu_int() -> List[WorkloadSpec]:
    """The twelve SPEC CPU2006 integer benchmarks (reference inputs)."""
    return [
        _desktop(
            "perlbench", 400.0,
            "Perl interpreter running mail-processing scripts; large code, many indirect calls.",
            dict(hot_code_kb=180.0, indirect_call_fraction=0.010, indirect_branch_fraction=0.012,
                 loop_share=0.44, loop_regularity=0.30),
        ),
        _desktop(
            "bzip2", 180.0,
            "Block-sorting compression; loopier and more biased than most integer codes.",
            dict(hot_code_kb=60.0, branch_fraction=0.17, loop_share=0.58,
                 loop_regularity=0.50, balanced_if_share=0.24),
        ),
        _desktop(
            "gcc", 600.0,
            "C compiler; very large instruction footprint and branch-site count.",
            dict(hot_code_kb=280.0, loop_share=0.42, balanced_if_share=0.32,
                 indirect_call_fraction=0.008, indirect_branch_fraction=0.010),
        ),
        _desktop(
            "mcf", 120.0,
            "Vehicle-scheduling network simplex; small code, data-bound, balanced branches.",
            dict(hot_code_kb=40.0, branch_fraction=0.20, loop_share=0.52,
                 balanced_if_share=0.34),
        ),
        _desktop(
            "gobmk", 350.0,
            "Go-playing AI; hard-to-predict branches and a large BTB working set.",
            dict(hot_code_kb=220.0, branch_fraction=0.21, loop_share=0.40,
                 balanced_if_share=0.36, moderate_if_share=0.36, loop_regularity=0.28),
        ),
        _desktop(
            "hmmer", 160.0,
            "Hidden-Markov-model protein search; dominated by one regular loop nest.",
            dict(hot_code_kb=50.0, branch_fraction=0.16, loop_share=0.62,
                 loop_regularity=0.62, balanced_if_share=0.18, avg_trip_count=14.0),
        ),
        _desktop(
            "sjeng", 280.0,
            "Chess engine; deep recursion and balanced branches.",
            dict(hot_code_kb=120.0, branch_fraction=0.21, loop_share=0.40,
                 balanced_if_share=0.34, call_fraction=0.10, loop_regularity=0.28),
        ),
        _desktop(
            "libquantum", 90.0,
            "Quantum computer simulation; small hot loops over large arrays.",
            dict(hot_code_kb=30.0, branch_fraction=0.24, loop_share=0.66,
                 loop_regularity=0.70, balanced_if_share=0.12, avg_trip_count=18.0),
        ),
        _desktop(
            "h264ref", 300.0,
            "H.264 video encoder; biased branches and loop-friendly kernels.",
            dict(hot_code_kb=90.0, branch_fraction=0.17, loop_share=0.58,
                 loop_regularity=0.60, balanced_if_share=0.16, avg_trip_count=14.0),
        ),
        _desktop(
            "omnetpp", 380.0,
            "Discrete-event network simulator; heavy virtual dispatch and large footprint.",
            dict(hot_code_kb=160.0, indirect_call_fraction=0.014, indirect_branch_fraction=0.008,
                 loop_share=0.42, balanced_if_share=0.30),
        ),
        _desktop(
            "astar", 200.0,
            "Path-finding library; pointer chasing with balanced branches.",
            dict(hot_code_kb=70.0, branch_fraction=0.20, loop_share=0.48,
                 balanced_if_share=0.32, loop_regularity=0.34),
        ),
        _desktop(
            "xalancbmk", 480.0,
            "XSLT processor; very large code with many indirect calls.",
            dict(hot_code_kb=240.0, indirect_call_fraction=0.016, indirect_branch_fraction=0.010,
                 loop_share=0.42, balanced_if_share=0.28, call_fraction=0.10),
        ),
    ]


def _build_catalog() -> Dict[str, WorkloadSpec]:
    specs: List[WorkloadSpec] = []
    specs.extend(_build_exmatex())
    specs.extend(_build_spec_omp())
    specs.extend(_build_npb())
    specs.extend(_build_spec_cpu_int())
    catalog: Dict[str, WorkloadSpec] = {}
    for spec in specs:
        if spec.name in catalog:
            raise ValueError(f"duplicate workload name {spec.name!r}")
        catalog[spec.name] = spec
    return catalog


#: All 41 workloads, keyed by benchmark name, in suite order.
WORKLOADS: Dict[str, WorkloadSpec] = _build_catalog()


def workload_names() -> List[str]:
    """Names of all catalogued workloads, in suite order."""
    return list(WORKLOADS.keys())


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload by its benchmark name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; known workloads: {known}") from None


def workloads_in_suite(suite: Suite) -> List[WorkloadSpec]:
    """All workloads belonging to one suite."""
    return [spec for spec in WORKLOADS.values() if spec.suite is suite]


def select_workloads(
    suites: Optional[List[Suite]] = None,
    names: Optional[List[str]] = None,
) -> List[WorkloadSpec]:
    """Select workloads: the whole catalog by default, or by suite/name.

    ``names`` beats ``suites``; with neither, all 41 catalogued
    workloads are returned in suite order.  The single selection helper
    behind :meth:`repro.api.Session.workloads` and the experiments'
    default workload sets.
    """
    if names is not None:
        return [get_workload(name) for name in names]
    selected: List[WorkloadSpec] = []
    for suite in suites if suites is not None else SUITE_ORDER:
        selected.extend(workloads_in_suite(suite))
    return selected


def hpc_workloads() -> List[WorkloadSpec]:
    """The 29 HPC workloads (ExMatEx, SPEC OMP, NPB)."""
    return [spec for spec in WORKLOADS.values() if spec.suite.is_hpc]


def desktop_workloads() -> List[WorkloadSpec]:
    """The 12 SPEC CPU INT desktop workloads."""
    return [spec for spec in WORKLOADS.values() if spec.suite.is_desktop]
