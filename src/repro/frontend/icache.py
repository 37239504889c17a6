"""Instruction cache simulator (Section IV-C).

A set-associative cache with LRU replacement.  Fetch follows the
paper's model: once a line is fetched, instructions are extracted
sequentially until the end of the line or a taken branch, so the cache
is accessed once per line that a dynamic basic block touches.

Two paths give the same miss counts:

* :class:`InstructionCache` is the reference: one cache object walking
  the line stream through per-set dictionaries, with state that
  persists across calls (warm caches).
* :func:`line_stack_histogram` is the batch path for fresh caches.  A
  line's set and tag identify it, so each set is a plain LRU stack of
  line numbers; by the inclusion property of LRU
  (:mod:`repro.frontend.stack_distance`) a line misses in an ``A``-way
  cache exactly when it is cold or at stack distance ``>= A``.  One pass
  per (line size, set count) thus serves every associativity.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.frontend.predictors.base import index_bits
from repro.frontend.stack_distance import StackHistogram, lru_stack_distances


def line_stream(start_addresses, sizes, line_bytes: int) -> Tuple[np.ndarray, int]:
    """The line accesses of fetched byte ranges, run-length compressed.

    A range of ``size <= 0`` bytes touches no line, as under
    :meth:`InstructionCache.fetch_range`.  Consecutive accesses to the
    same line are guaranteed hits (the line is already most-recently-used),
    so only line *changes* are returned, together with the total number of
    line accesses.

    The lines of one range always differ from each other, so an access
    repeats its predecessor only where a range's first line is the last
    line of the previous non-empty range.  Those first lines are dropped
    and the rest expanded directly, in one vectorized pass.
    """
    line_shift = index_bits(line_bytes)
    touching = sizes > 0
    if not touching.all():
        start_addresses, sizes = start_addresses[touching], sizes[touching]
    if sizes.shape[0] == 0:
        return np.empty(0, dtype=np.int64), 0
    first_lines = start_addresses >> line_shift
    last_lines = (start_addresses + sizes - 1) >> line_shift
    total_accesses = int((last_lines - first_lines).sum()) + sizes.shape[0]
    repeats = np.empty(first_lines.shape[0], dtype=bool)
    repeats[0] = False
    np.equal(first_lines[1:], last_lines[:-1], out=repeats[1:])
    first_lines = first_lines + repeats
    changes_per_range = last_lines - first_lines + 1
    changes = total_accesses - int(repeats.sum())
    run_starts = np.cumsum(changes_per_range) - changes_per_range
    lines = np.repeat(first_lines - run_starts, changes_per_range) + np.arange(
        changes, dtype=np.int64
    )
    return lines, total_accesses


def line_stack_histogram(
    start_addresses, sizes, line_bytes: int, num_sets: int, depth: int
) -> StackHistogram:
    """Stack-distance histogram of fetched byte ranges at one geometry.

    ``misses(A)`` of the result equals the misses of a fresh
    ``A``-way :class:`InstructionCache` with ``num_sets`` sets of
    ``line_bytes`` lines after :meth:`InstructionCache.fetch_ranges`
    over the same ranges; the compressed repeats count at distance 0.
    """
    lines, total_accesses = line_stream(start_addresses, sizes, line_bytes)
    counts = np.bincount(
        lru_stack_distances(lines, num_sets, depth), minlength=depth + 1
    )
    counts[0] += total_accesses - lines.shape[0]
    return StackHistogram(depth, counts)


class InstructionCache:
    """Set-associative instruction cache with LRU replacement."""

    def __init__(self, size_bytes: int = 32 * 1024, line_bytes: int = 64, associativity: int = 4) -> None:
        self.num_sets = self.set_count(size_bytes, line_bytes, associativity)
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_lines = size_bytes // line_bytes
        self._sets: List[Dict[int, None]] = [dict() for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0

    @staticmethod
    def set_count(size_bytes: int, line_bytes: int, associativity: int) -> int:
        """The number of sets of a geometry (raises ValueError if invalid)."""
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("cache and line sizes must be positive")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        if size_bytes % (line_bytes * associativity):
            raise ValueError("size must be a multiple of line_bytes * associativity")
        num_sets = size_bytes // line_bytes // associativity
        if num_sets & (num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        return num_sets

    def _set_index(self, line_address: int) -> int:
        if self.num_sets == 1:
            return 0
        return line_address & (self.num_sets - 1)

    def access_line(self, line_address: int) -> bool:
        """Access one cache line (by line-granular address); True on hit."""
        self.accesses += 1
        set_index = self._set_index(line_address)
        tag = line_address >> max(0, index_bits(self.num_sets))
        entry_set = self._sets[set_index]
        if tag in entry_set:
            del entry_set[tag]
            entry_set[tag] = None
            return True
        self.misses += 1
        if len(entry_set) >= self.associativity:
            oldest = next(iter(entry_set))
            del entry_set[oldest]
        entry_set[tag] = None
        return False

    def fetch_range(self, start_address: int, size_bytes: int) -> int:
        """Fetch a sequential byte range; returns the number of misses."""
        if size_bytes <= 0:
            return 0
        first_line = start_address // self.line_bytes
        last_line = (start_address + size_bytes - 1) // self.line_bytes
        misses = 0
        for line in range(first_line, last_line + 1):
            if not self.access_line(line):
                misses += 1
        return misses

    def fetch_ranges(self, start_addresses, sizes) -> int:
        """Batch :meth:`fetch_range` over byte ranges; returns misses.

        Only the line changes of :func:`line_stream` walk the LRU state,
        in a tight loop with the set dictionaries held in locals.
        Counters and replacement state evolve exactly as under
        per-range :meth:`fetch_range`.
        """
        distinct_lines, total_accesses = line_stream(
            start_addresses, sizes, self.line_bytes
        )
        sets = self._sets
        num_sets = self.num_sets
        associativity_limit = self.associativity
        set_mask = num_sets - 1
        tag_shift = max(0, index_bits(num_sets))
        multi_set = num_sets > 1
        misses = 0
        for line in distinct_lines.tolist():
            entry_set = sets[line & set_mask] if multi_set else sets[0]
            tag = line >> tag_shift
            if tag in entry_set:
                del entry_set[tag]
                entry_set[tag] = None
            else:
                misses += 1
                if len(entry_set) >= associativity_limit:
                    del entry_set[next(iter(entry_set))]
                entry_set[tag] = None
        self.accesses += total_accesses
        self.misses += misses
        return misses

    @property
    def miss_rate(self) -> float:
        """Fraction of line accesses that missed."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def storage_bits(self) -> int:
        """Approximate storage: data plus tag array."""
        tag_bits = 32 - index_bits(self.line_bytes) - index_bits(self.num_sets)
        return self.num_lines * (self.line_bytes * 8 + tag_bits + 1)

    def reset_statistics(self) -> None:
        """Clear access/miss counters (contents are kept)."""
        self.accesses = 0
        self.misses = 0
