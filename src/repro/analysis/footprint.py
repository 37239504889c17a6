"""Instruction footprint analysis (Figure 3).

The pintool this replaces records the size of every executed basic
block and its execution count; from that it derives the static
instruction footprint and the amount of memory needed to hold 99% of
the dynamically executed instructions.

Because the synthetic binary is fully known, the static footprint here
is the whole text segment (hot code plus the cold library/startup code
that a real run would touch once); the dynamic footprint is computed
from the trace exactly as the pintool does.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.trace.events import Trace
from repro.trace.instruction import CodeSection

#: Fraction of dynamic instructions the "dynamic footprint" must cover.
DYNAMIC_COVERAGE = 0.99


@dataclass
class FootprintResult:
    """Static and dynamic instruction footprints of one section."""

    section: CodeSection
    static_bytes: int
    executed_static_bytes: int
    dynamic_footprint_bytes: int
    coverage: float = DYNAMIC_COVERAGE

    @property
    def static_kb(self) -> float:
        """Static text footprint in KB."""
        return self.static_bytes / 1024.0

    @property
    def dynamic_footprint_kb(self) -> float:
        """Memory needed to hold ``coverage`` of dynamic instructions, in KB."""
        return self.dynamic_footprint_bytes / 1024.0


def analyze_footprint(
    trace: Trace,
    section: CodeSection = CodeSection.TOTAL,
    coverage: float = DYNAMIC_COVERAGE,
) -> FootprintResult:
    """Compute static and 99%-dynamic instruction footprints."""
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")

    static = trace.static
    sizes = static.size_bytes.tolist()
    execution_counts = trace.block_execution_counts(section)

    executed_static_bytes = 0
    weighted: list = []
    total_dynamic_bytes = 0
    for block_id, count in execution_counts.items():
        size = sizes[block_id]
        executed_static_bytes += size
        dynamic_bytes = size * count
        total_dynamic_bytes += dynamic_bytes
        weighted.append((count, size, dynamic_bytes))

    # Greedily keep the most frequently executed blocks until the
    # requested share of dynamic instruction bytes is covered; the
    # memory needed is the static size of the kept blocks.
    weighted.sort(key=lambda item: item[0], reverse=True)
    needed = coverage * total_dynamic_bytes
    covered = 0
    footprint_bytes = 0
    for count, size, dynamic_bytes in weighted:
        if covered >= needed:
            break
        covered += dynamic_bytes
        footprint_bytes += size

    return FootprintResult(
        section=section,
        static_bytes=int(static.size_bytes.sum()),
        executed_static_bytes=executed_static_bytes,
        dynamic_footprint_bytes=footprint_bytes,
        coverage=coverage,
    )
