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

Front-end streams re-touch their set's most recently used key almost
every time (loops), so the pass reaches its Python loop only for the
rest, in three exact steps:

1. *Sort by set.*  An access's distance depends only on the earlier
   accesses to its own set, so the sets can be walked one after another
   as long as each keeps its own order: a stable argsort of the set
   indices (a radix sort on their small unsigned type) gives that order.
2. *Drop the distance-0 accesses.*  An access is at distance 0 exactly
   when the previous access to its set had the same key, and such an
   access moves the top of its stack to the top: it changes no stack,
   so removing it changes no other access's distance.  In set order the
   previous access to an access's set is its predecessor, unless the
   access is its set's first; equal keys imply the same set, so "equal
   to its predecessor's key" marks exactly the distance-0 accesses.
3. *Walk one set at a time.*  The remaining accesses of a set run
   through one list stack, started afresh at the set's first access
   (cold, so at ``depth``); sets share no state, so one live list does.
   After step 2 no walked access finds its key on top of its stack.
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
    distances = np.zeros(keys.shape[0], dtype=np.int64)
    if not keys.shape[0]:
        return distances
    sets = (keys & (num_sets - 1)).astype(np.min_scalar_type(num_sets - 1))
    order = np.argsort(sets, kind="stable")
    by_set = keys[order]
    # Only accesses whose key differs from their predecessor's are walked.
    walked = np.empty(by_set.shape[0], dtype=bool)
    walked[0] = True
    np.not_equal(by_set[1:], by_set[:-1], out=walked[1:])
    positions = order[walked]
    walked_sets = sets[positions]
    set_starts = np.flatnonzero(walked_sets[1:] != walked_sets[:-1]) + 1
    bounds = [0, *set_starts.tolist(), walked_sets.shape[0]]
    walked_keys = by_set[walked].tolist()
    recorded = []
    record = recorded.append
    for start, stop in zip(bounds[:-1], bounds[1:]):
        stack = [walked_keys[start]]  # Most recently used first.
        record(depth)
        for key in walked_keys[start + 1 : stop]:
            if key in stack:
                distance = stack.index(key)
                del stack[distance]
                stack.insert(0, key)
            else:
                distance = depth
                stack.insert(0, key)
                if len(stack) > depth:
                    stack.pop()
            record(distance)
    distances[positions] = recorded
    return distances


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
