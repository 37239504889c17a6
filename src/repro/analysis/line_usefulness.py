"""I-cache line usefulness (Section IV-C).

The paper defines usefulness as the number of distinct bytes accessed
in a fetched cache line divided by the line size.  Long basic blocks
and long distances between taken branches make wide lines useful for
HPC codes (71% for 128-byte lines) while short, branchy desktop code
leaves most of a wide line unused (33%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

import numpy as np

from repro.trace.events import Trace
from repro.trace.instruction import CodeSection


@dataclass
class LineUsefulness:
    """Average fraction of each fetched line that is actually consumed."""

    section: CodeSection
    line_bytes: int
    lines_touched: int
    average_usefulness: float
    fetches: int

    @property
    def average_useful_bytes(self) -> float:
        """Average number of distinct bytes consumed per touched line."""
        return self.average_usefulness * self.line_bytes


def analyze_line_usefulness(
    trace: Trace,
    line_bytes: int = 128,
    section: CodeSection = CodeSection.TOTAL,
) -> LineUsefulness:
    """Compute average line usefulness for a given line width.

    Fetch behaviour follows the paper's model: instructions are
    extracted sequentially from a fetched line until the end of the line
    or a taken branch, so the bytes consumed from each line are exactly
    the executed bytes that fall inside it.
    """
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise ValueError("line_bytes must be a positive power of two")

    # The byte sets depend only on *which* static blocks executed, so
    # they are computed once per distinct block; the fetch count (one
    # per line a dynamic block touches) is a vectorized reduction.
    block_ids, _, _, _ = trace.event_columns(section)
    static = trace.static
    start_addresses = static.addresses[block_ids]
    end_addresses = start_addresses + static.size_bytes[block_ids]
    first_lines = start_addresses // line_bytes
    last_lines = (end_addresses - 1) // line_bytes
    fetches = int((last_lines - first_lines + 1).sum())

    executed = np.unique(block_ids)
    touched: Dict[int, Set[int]] = {}
    for start, end in zip(
        static.addresses[executed].tolist(), static.end_addresses[executed].tolist()
    ):
        first_line = start // line_bytes
        last_line = (end - 1) // line_bytes
        for line_index in range(first_line, last_line + 1):
            line_start = line_index * line_bytes
            line_end = line_start + line_bytes
            lo = max(start, line_start)
            hi = min(end, line_end)
            byte_set = touched.setdefault(line_index, set())
            byte_set.update(range(lo - line_start, hi - line_start))

    if not touched:
        return LineUsefulness(section, line_bytes, 0, 0.0, 0)

    usefulness = sum(len(bytes_used) for bytes_used in touched.values())
    average = usefulness / (len(touched) * line_bytes)
    return LineUsefulness(
        section=section,
        line_bytes=line_bytes,
        lines_touched=len(touched),
        average_usefulness=average,
        fetches=fetches,
    )
