"""Workload specifications.

A :class:`WorkloadSpec` captures everything the synthesis layer needs to
build a synthetic program whose dynamic trace exhibits the
characteristics the paper measured for the corresponding real
application.  Parameters are split per code section because the paper's
central observation is that serial and parallel sections behave
differently inside the same HPC application.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from repro.workloads.suites import Suite


@dataclass(frozen=True)
class SectionProfile:
    """Structural parameters of one code section (serial or parallel).

    Attributes
    ----------
    branch_fraction:
        Fraction of dynamic instructions that are branch instructions of
        any kind (Figure 1's y-axis).
    call_fraction, indirect_call_fraction, indirect_branch_fraction,
    unconditional_fraction, syscall_fraction:
        Fractions *of branch instructions* in each non-conditional
        category.  Returns are generated implicitly, one per call, so
        the conditional share is
        ``1 - 2*(calls + indirect calls) - indirect branches -
        unconditional - syscalls``.
    loop_share:
        Of dynamically executed conditional branches, the fraction that
        are loop back-edges (latches).  Loop-dominated scientific code
        has a high share; control-heavy integer code a low one.
    avg_trip_count:
        Mean iteration count of the innermost loops.
    loop_regularity:
        Fraction of loops whose trip count is identical on every
        invocation (the loops a loop branch predictor captures).
    balanced_if_share, moderate_if_share:
        Of non-loop conditional branch sites, the fractions that are
        roughly 50/50 and roughly 75/25 biased; the remainder are
        strongly (about 95/5) biased.
    if_taken_dominant_share:
        Fraction of non-loop conditional sites whose *dominant*
        direction is taken (a forward taken branch) rather than
        not-taken.
    hot_code_kb:
        Static size of the steady-state (hot) code of the section.
    bytes_per_instruction:
        Average instruction length in bytes (at least 1) used when
        sizing blocks.

    Construction raises ``ValueError`` for a value synthesis cannot
    build: a fraction or share outside its range, a trip count below 1,
    or instructions shorter than a byte.
    """

    branch_fraction: float
    call_fraction: float = 0.05
    indirect_call_fraction: float = 0.0
    indirect_branch_fraction: float = 0.0
    unconditional_fraction: float = 0.06
    syscall_fraction: float = 0.0005
    loop_share: float = 0.7
    avg_trip_count: float = 24.0
    loop_regularity: float = 0.8
    balanced_if_share: float = 0.1
    moderate_if_share: float = 0.2
    if_taken_dominant_share: float = 0.25
    hot_code_kb: float = 12.0
    bytes_per_instruction: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.branch_fraction < 1.0:
            raise ValueError("branch_fraction must be in (0, 1)")
        for name in (
            "call_fraction",
            "indirect_call_fraction",
            "indirect_branch_fraction",
            "unconditional_fraction",
            "syscall_fraction",
            "balanced_if_share",
            "moderate_if_share",
        ):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.conditional_fraction <= 0.0:
            raise ValueError(
                "branch mix leaves no room for conditional branches "
                f"(conditional fraction {self.conditional_fraction:.3f})"
            )
        if not 0.0 < self.loop_share <= 1.0:
            raise ValueError("loop_share must be in (0, 1]")
        if self.avg_trip_count < 1.0:
            raise ValueError("avg_trip_count must be at least 1")
        if not 0.0 <= self.loop_regularity <= 1.0:
            raise ValueError("loop_regularity must be in [0, 1]")
        if self.balanced_if_share + self.moderate_if_share > 1.0 + 1e-9:
            raise ValueError("balanced and moderate if shares exceed 1")
        if not 0.0 <= self.if_taken_dominant_share <= 1.0:
            raise ValueError("if_taken_dominant_share must be in [0, 1]")
        if self.hot_code_kb <= 0.0:
            raise ValueError("hot_code_kb must be positive")
        # No instruction is shorter than a byte, and a shorter mean would
        # size the hot code in more instructions than it has bytes.
        if not self.bytes_per_instruction >= 1.0:
            raise ValueError("bytes_per_instruction must be at least 1")

    @property
    def return_fraction(self) -> float:
        """Returns mirror calls one-for-one."""
        return self.call_fraction + self.indirect_call_fraction

    @property
    def conditional_fraction(self) -> float:
        """Fraction of branch instructions that are conditional."""
        return 1.0 - (
            self.call_fraction
            + self.indirect_call_fraction
            + self.return_fraction
            + self.indirect_branch_fraction
            + self.unconditional_fraction
            + self.syscall_fraction
        )

    @property
    def strong_if_share(self) -> float:
        """Fraction of if sites that are strongly biased."""
        return max(0.0, 1.0 - self.balanced_if_share - self.moderate_if_share)

    @property
    def mean_block_instructions(self) -> float:
        """Expected dynamic basic-block length in instructions."""
        return 1.0 / self.branch_fraction

    @property
    def mean_block_bytes(self) -> float:
        """Expected dynamic basic-block length in bytes."""
        return self.mean_block_instructions * self.bytes_per_instruction

    def scaled(self, **changes) -> "SectionProfile":
        """Return a copy of the profile with selected fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class WorkloadSpec:
    """Full specification of one benchmark application.

    Attributes
    ----------
    name:
        Benchmark name as used in the paper (e.g. ``"LULESH"``,
        ``"fma3d"``, ``"gobmk"``).
    suite:
        The benchmark suite the application belongs to.
    parallel:
        Profile of the parallel (worker) code sections.
    serial:
        Profile of the serial (master-only) code sections.  For the
        sequential SPEC CPU INT workloads this profile describes the
        whole application.
    serial_fraction:
        Fraction of the first processing element's dynamic instructions
        executed in serial sections (1.0 for sequential workloads).
    static_code_kb:
        Total static instruction footprint of the binary, including
        cold library and initialisation code that the steady state never
        touches.
    threads:
        Number of threads/processes the application is run with in the
        CMP evaluation (Section V); SPEC CPU INT runs with one.
    description:
        Short human-readable description for reports.
    """

    name: str
    suite: Suite
    parallel: SectionProfile
    serial: SectionProfile
    serial_fraction: float
    static_code_kb: float
    threads: int = 8
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be in [0, 1]")
        if self.static_code_kb <= 0.0:
            raise ValueError("static_code_kb must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        min_hot = self.parallel.hot_code_kb + self.serial.hot_code_kb
        if self.is_sequential:
            min_hot = self.serial.hot_code_kb
        if self.static_code_kb < min_hot:
            raise ValueError(
                f"{self.name}: static_code_kb ({self.static_code_kb}) smaller "
                f"than the combined hot code ({min_hot})"
            )

    @property
    def is_sequential(self) -> bool:
        """Whether the workload runs as a single sequential program."""
        return self.serial_fraction >= 1.0 or self.threads == 1

    @property
    def parallel_fraction(self) -> float:
        """Fraction of instructions executed in parallel sections."""
        return 1.0 - self.serial_fraction

    @property
    def cold_code_kb(self) -> float:
        """Static code never touched in steady state (libraries, init)."""
        hot = self.serial.hot_code_kb
        if not self.is_sequential:
            hot += self.parallel.hot_code_kb
        return max(0.0, self.static_code_kb - hot)

    @property
    def seed(self) -> int:
        """Deterministic per-workload seed derived from the name."""
        digest = hashlib.sha256(self.name.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "little")

    def __str__(self) -> str:
        return f"{self.name} ({self.suite.label})"
