"""Branch target buffer (Section IV-B).

A set-associative cache of taken-branch target addresses, indexed by
the branch instruction address (simple modulo indexing, as in the
paper).  Only branches predicted/observed taken are inserted; a miss is
counted whenever a taken branch looks up the BTB and its entry (with
the correct target) is absent.

Two paths give the same miss counts:

* :class:`BranchTargetBuffer` is the reference: one BTB object walking
  the taken-branch stream through per-set dictionaries, with state
  that persists across calls.
* :func:`btb_stack_histogram` is the batch path for fresh BTBs.  Every
  lookup, hit or miss, leaves its branch most recently used with the
  branch's current target, and a set and tag identify the PC, so each
  set is a plain LRU stack of PCs.  By the inclusion property of LRU
  (:mod:`repro.frontend.stack_distance`) a branch is present in an
  ``A``-way BTB exactly when its stack distance is below ``A``, and a
  present entry holds the target of the branch's previous execution.
  A lookup therefore misses iff it is cold or at distance ``>= A``, or
  at distance ``< A`` with a target that differs from last time.  One
  pass per set count serves every associativity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.frontend.predictors.base import index_bits
from repro.frontend.stack_distance import StackHistogram, lru_stack_distances


def retargeted_lookups(addresses: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Whether each lookup's branch went to another target last time.

    A stable sort by PC groups each branch's executions in stream order;
    a lookup is retargeted when its predecessor in that order is the same
    branch with a different target.  The mask does not depend on the
    BTB's geometry.
    """
    pcs = addresses >> 2
    order = np.argsort(pcs, kind="stable")
    by_pc, by_pc_targets = pcs[order], targets[order]
    retargeted = np.zeros(pcs.shape[0], dtype=bool)
    retargeted[order[1:]] = (by_pc[1:] == by_pc[:-1]) & (
        by_pc_targets[1:] != by_pc_targets[:-1]
    )
    return retargeted


def btb_stack_histogram(
    addresses: np.ndarray, retargeted: np.ndarray, num_sets: int, depth: int
) -> StackHistogram:
    """Stack-distance histogram of a taken-branch stream at one set count.

    ``retargeted`` is :func:`retargeted_lookups` of the stream's
    addresses and targets.  ``misses(A)`` of the result equals the
    misses of a fresh ``A``-way :class:`BranchTargetBuffer` with
    ``num_sets`` sets after :meth:`BranchTargetBuffer.access_sequence`
    over the same stream.
    """
    distances = lru_stack_distances(addresses >> 2, num_sets, depth)
    return StackHistogram(
        depth,
        np.bincount(distances, minlength=depth + 1),
        np.bincount(distances[retargeted], minlength=depth + 1)[:depth],
    )


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement."""

    def __init__(self, entries: int = 2048, associativity: int = 4, tag_bits: int = 20, target_bits: int = 32) -> None:
        self.sets = self.set_count(entries, associativity)
        self.entries = entries
        self.associativity = associativity
        self.tag_bits = tag_bits
        self.target_bits = target_bits
        # Each set maps tag -> target, with insertion order giving LRU.
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.sets)]
        self.lookups = 0
        self.misses = 0

    @staticmethod
    def set_count(entries: int, associativity: int) -> int:
        """The number of sets of a geometry (raises ValueError if invalid)."""
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if associativity <= 0 or entries % associativity:
            raise ValueError("associativity must divide the entry count")
        return entries // associativity

    def _locate(self, address: int) -> Tuple[int, int]:
        pc = address >> 2
        set_index = pc & (self.sets - 1) if self.sets > 1 else 0
        tag = pc >> max(0, index_bits(self.sets)) if self.sets > 1 else pc
        return set_index, tag

    def lookup(self, address: int) -> Optional[int]:
        """Return the stored target for a branch, or None on a miss."""
        self.lookups += 1
        set_index, tag = self._locate(address)
        entry_set = self._sets[set_index]
        target = entry_set.get(tag)
        if target is None:
            self.misses += 1
            return None
        # Refresh LRU position.
        del entry_set[tag]
        entry_set[tag] = target
        return target

    def insert(self, address: int, target: int) -> None:
        """Insert or update the target of a taken branch."""
        set_index, tag = self._locate(address)
        entry_set = self._sets[set_index]
        if tag in entry_set:
            del entry_set[tag]
        elif len(entry_set) >= self.associativity:
            oldest = next(iter(entry_set))
            del entry_set[oldest]
        entry_set[tag] = target

    def access(self, address: int, target: int) -> bool:
        """Look up a taken branch and install it on a miss.

        Returns True on a hit with the correct target.
        """
        stored = self.lookup(address)
        hit = stored is not None and stored == target
        if not hit:
            self.insert(address, target)
        return hit

    def access_sequence(self, addresses, targets) -> int:
        """Batch :meth:`access` over a taken-branch stream; returns misses.

        A tight loop over plain ints with the set dictionaries held in
        locals; lookup/miss counters and replacement state evolve
        exactly as under per-call :meth:`access`.
        """
        sets = self._sets
        num_sets = self.sets
        associativity_limit = self.associativity
        set_mask = num_sets - 1
        tag_shift = index_bits(num_sets) if num_sets > 1 else 0
        multi_set = num_sets > 1
        lookups = 0
        lookup_misses = 0
        misses = 0
        for address, target in zip(addresses.tolist(), targets.tolist()):
            pc = address >> 2
            if multi_set:
                entry_set = sets[pc & set_mask]
                tag = pc >> tag_shift
            else:
                entry_set = sets[0]
                tag = pc
            lookups += 1
            stored = entry_set.get(tag)
            if stored is None:
                lookup_misses += 1
                misses += 1
                if len(entry_set) >= associativity_limit:
                    del entry_set[next(iter(entry_set))]
                entry_set[tag] = target
            else:
                # Refresh LRU position (and the target, when it changed).
                del entry_set[tag]
                entry_set[tag] = target
                if stored != target:
                    misses += 1
        self.lookups += lookups
        self.misses += lookup_misses
        return misses

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed."""
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups

    def storage_bits(self) -> int:
        """Approximate storage cost (tag + target per entry)."""
        return self.entries * (self.tag_bits + self.target_bits)

    def reset_statistics(self) -> None:
        """Clear the lookup/miss counters (contents are kept)."""
        self.lookups = 0
        self.misses = 0
