"""Dynamic basic-block statistics (Figure 4).

A *dynamic basic block* is the run of instructions between two
consecutive branch instructions in the dynamic stream; the *distance
between taken branches* is the run of instructions between two
consecutive **taken** branches.  Both are reported in bytes, exactly as
in Figure 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.events import Trace
from repro.trace.instruction import CodeSection


@dataclass
class BasicBlockStats:
    """Average dynamic basic-block length and taken-branch distance."""

    section: CodeSection
    dynamic_block_count: int
    taken_run_count: int
    average_block_bytes: float
    average_block_instructions: float
    average_taken_distance_bytes: float

    @property
    def taken_branch_fraction(self) -> float:
        """Share of dynamic basic blocks that end in a taken branch."""
        if self.dynamic_block_count == 0:
            return 0.0
        return self.taken_run_count / self.dynamic_block_count


def analyze_basic_blocks(
    trace: Trace, section: CodeSection = CodeSection.TOTAL
) -> BasicBlockStats:
    """Compute Figure 4's basic-block length and taken-distance averages.

    Each dynamic basic block ends at a branch event and each taken run
    ends at a taken branch, so the per-run totals telescope: the sum of
    all completed runs is the cumulative sum up to the last terminating
    event.  That turns the event walk into two ``cumsum`` lookups.
    """
    block_ids, taken, _, _ = trace.event_columns(section)
    static = trace.static

    sizes = static.size_bytes[block_ids]
    is_branch = static.is_branch[block_ids]
    branch_positions = np.flatnonzero(is_branch)

    block_count = int(branch_positions.shape[0])
    taken_count = 0
    total_bytes = 0
    total_instructions = 0
    taken_run_total = 0
    if block_count:
        cumulative_bytes = np.cumsum(sizes)
        last_branch = int(branch_positions[-1])
        total_bytes = int(cumulative_bytes[last_branch])
        total_instructions = int(
            np.cumsum(static.num_instructions[block_ids])[last_branch]
        )
        taken_positions = branch_positions[taken[branch_positions]]
        taken_count = int(taken_positions.shape[0])
        if taken_count:
            taken_run_total = int(cumulative_bytes[int(taken_positions[-1])])

    average_block_bytes = total_bytes / block_count if block_count else 0.0
    average_block_instructions = (
        total_instructions / block_count if block_count else 0.0
    )
    average_taken_distance = taken_run_total / taken_count if taken_count else 0.0
    return BasicBlockStats(
        section=section,
        dynamic_block_count=block_count,
        taken_run_count=taken_count,
        average_block_bytes=average_block_bytes,
        average_block_instructions=average_block_instructions,
        average_taken_distance_bytes=average_taken_distance,
    )
