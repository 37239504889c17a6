"""LRU stack distances: every associativity of a cache from one pass.

Under LRU replacement a set-associative cache keeps, in each set, the
``A`` most recently used keys of that set (Mattson et al., "Evaluation
Techniques for Storage Hierarchies", IBM Systems Journal 1970).  So with
the set count fixed, an access hits at associativity ``A`` exactly when
its *stack distance* -- the number of distinct keys of the same set used
since this key's previous access -- is below ``A``; the cache's contents
at ``A`` ways are always a subset of its contents at ``A + 1`` ways
(the inclusion property; Hill & Smith, "Evaluating Associativity in CPU
Caches", IEEE TC 1989).  One pass that records each access's distance
therefore yields the miss count of every associativity at that set
count.

The pass keeps each set's stack only down to ``depth`` entries: an
access deeper than that misses at every associativity the histogram can
answer, so it is counted together with the cold (first-use) accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: The shallowest stack a pass keeps.  Deeper than every associativity
#: the paper's figures and the exploration presets use, so geometries
#: requested by different calls (explore chunks, figure workers) at one
#: set count are all answered by a single pass.
MIN_STACK_DEPTH = 16


def lru_stack_distances(keys: np.ndarray, num_sets: int, depth: int) -> np.ndarray:
    """Per-access LRU stack distance of ``keys``, capped at ``depth``.

    ``keys`` are the cache's full block identifiers (line numbers, branch
    PCs); a key's set is ``key & (num_sets - 1)``.  Element ``i`` of the
    result is the distance of access ``i`` within its set, or ``depth``
    when the key is cold or was pushed deeper than ``depth``.
    """
    stacks = [[] for _ in range(num_sets)]
    set_mask = num_sets - 1
    distances = []
    record = distances.append
    for key in keys.tolist():
        stack = stacks[key & set_mask]  # Most recently used first.
        if key in stack:
            distance = stack.index(key)
            if distance:
                del stack[distance]
                stack.insert(0, key)
        else:
            distance = depth
            stack.insert(0, key)
            if len(stack) > depth:
                stack.pop()
        record(distance)
    return np.array(distances, dtype=np.int64)


@dataclass(frozen=True)
class StackHistogram:
    """Access counts by stack distance at one set count.

    ``counts[d]`` for ``d < depth`` counts accesses at distance ``d``;
    ``counts[depth]`` counts the cold ones and those deeper than
    ``depth``.  ``retargeted[d]`` (BTB only) counts the accesses at
    distance ``d`` whose branch went to a different target than on its
    previous execution: they find their entry but with a stale target.
    """

    depth: int
    counts: np.ndarray
    retargeted: Optional[np.ndarray] = None

    @property
    def accesses(self) -> int:
        """Every access of the stream."""
        return int(self.counts.sum())

    def misses(self, associativity: int) -> int:
        """Misses of an ``associativity``-way LRU cache at this set count."""
        if not 0 < associativity <= self.depth:
            raise ValueError(
                f"associativity {associativity} outside 1..{self.depth}"
            )
        misses = int(self.counts[associativity:].sum())
        if self.retargeted is not None:
            misses += int(self.retargeted[:associativity].sum())
        return misses
