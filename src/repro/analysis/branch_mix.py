"""Dynamic branch instruction breakdown (Figure 1).

The pintool this replaces inspects every dynamic branch instruction and
counts its frequency per category; the result is reported as a
percentage of all dynamic instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.trace.events import Trace
from repro.trace.instruction import FIGURE1_CATEGORIES, BranchKind, CodeSection


@dataclass
class BranchMix:
    """Branch breakdown of one code section of one workload.

    ``category_fractions`` maps each Figure 1 category to its share of
    *all dynamic instructions* (not of branches), so the values can be
    stacked exactly like the paper's bars.
    """

    section: CodeSection
    instruction_count: int
    branch_count: int
    category_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def branch_fraction(self) -> float:
        """Fraction of dynamic instructions that are branches."""
        if self.instruction_count == 0:
            return 0.0
        return self.branch_count / self.instruction_count

    @property
    def category_fractions(self) -> Dict[str, float]:
        """Per-category share of all dynamic instructions."""
        if self.instruction_count == 0:
            return {category: 0.0 for category in FIGURE1_CATEGORIES}
        return {
            category: self.category_counts.get(category, 0) / self.instruction_count
            for category in FIGURE1_CATEGORIES
        }

    def fraction_of(self, category: str) -> float:
        """Share of dynamic instructions in one branch category."""
        if category not in FIGURE1_CATEGORIES:
            raise ValueError(f"unknown branch category {category!r}")
        return self.category_fractions[category]


def analyze_branch_mix(
    trace: Trace, section: CodeSection = CodeSection.TOTAL
) -> BranchMix:
    """Compute the Figure 1 branch breakdown for one trace section.

    One ``bincount`` over the branch-kind column replaces the
    per-record walk.
    """
    counts: Dict[str, int] = {category: 0 for category in FIGURE1_CATEGORIES}
    kind_counts = np.bincount(
        trace.branch_columns(section).kinds, minlength=len(BranchKind)
    )
    branch_count = int(kind_counts.sum())
    for kind_value, kind_count in enumerate(kind_counts.tolist()):
        if kind_count and kind_value != int(BranchKind.NONE):
            counts[BranchKind(kind_value).figure1_category] += kind_count
    return BranchMix(
        section=section,
        instruction_count=trace.instruction_count(section),
        branch_count=branch_count,
        category_counts=counts,
    )
