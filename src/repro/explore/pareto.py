"""Pareto-frontier extraction over exploration result frames.

A grid point *dominates* another when it is no worse on every objective
and strictly better on at least one; the Pareto frontier is the set of
non-dominated points.  All objectives are minimized -- area, power,
MPKI, and execution time all read "smaller is better"; negate a column
first to maximize it.

:func:`pareto_mask` is a presorted sweep (Kung, Luccio & Preparata,
"On finding the maxima of a set of vectors", JACM 1975; Chomicki et
al., "Skyline with Presorting", ICDE 2003).  Sorted lexicographically,
a dominator always precedes every point it dominates, so the first
remaining point is always on the frontier; one vectorized step then
drops every remaining point it covers.  The loop runs once per distinct
frontier point, not once per pair.  The test suite keeps the O(n^2)
pure-Python double loop as the reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.api.frame import ResultFrame


def pareto_mask(values: Any) -> np.ndarray:
    """Boolean mask of the non-dominated rows of a point matrix.

    ``values`` is an ``(n, objectives)`` array-like; every objective is
    minimized.  Duplicate points do not dominate each other, so every
    copy of a frontier point stays on the frontier, and a row holding a
    NaN neither dominates nor is dominated (both match the brute-force
    reference asserted in the tests).
    """
    points = np.asarray(values, dtype=float)
    if points.ndim != 2:
        raise ValueError(
            f"expected an (n, objectives) matrix, got shape {points.shape}"
        )
    if points.shape[1] == 0:
        return np.ones(len(points), dtype=bool)  # No objective to lose on.
    # NaN compares false both ways, so its rows stay and drop nothing.
    mask = np.isnan(points).any(axis=1)
    rows = np.flatnonzero(~mask)
    # Lexicographic order: a dominator sorts before every row it
    # dominates, so the first remaining row is never dominated.
    rows = rows[np.lexsort(points[rows].T[::-1])]
    remaining = points[rows]
    while rows.size:
        head = remaining[0]
        covered = (remaining >= head).all(axis=1)
        mask[rows[(remaining == head).all(axis=1)]] = True
        left = ~covered
        rows, remaining = rows[left], remaining[left]
    return mask


def _one_group(row: Tuple[Any, ...]) -> Tuple[()]:
    return ()


@dataclass(frozen=True)
class ParetoFrontier:
    """The non-dominated subset of a result frame.

    ``frame`` holds the surviving rows (source row order preserved);
    ``mask`` flags every source row.  With ``group_by`` the frontier is
    computed independently per group (e.g. per workload), so one
    workload's cheap points never shadow another's.
    """

    objectives: Tuple[str, ...]
    group_by: Tuple[str, ...]
    frame: ResultFrame
    mask: Tuple[bool, ...]

    @classmethod
    def from_frame(
        cls,
        frame: ResultFrame,
        objectives: Sequence[str],
        group_by: Sequence[str] = (),
    ) -> "ParetoFrontier":
        """Extract the frontier of ``frame`` over the objective columns."""
        objectives = tuple(objectives)
        group_by = tuple(group_by)
        if not objectives:
            raise ValueError("pareto extraction needs at least one objective")
        objective_of = itemgetter(*(frame._position(name) for name in objectives))
        group_positions = [frame._position(name) for name in group_by]
        group_of = itemgetter(*group_positions) if group_positions else _one_group
        cells = [objective_of(row) for row in frame.data]
        values = np.array(cells, dtype=float).reshape(len(cells), len(objectives))
        groups: Dict[Tuple[Any, ...], List[int]] = {}
        for index, row in enumerate(frame.data):
            groups.setdefault(group_of(row), []).append(index)
        mask = np.zeros(len(frame.data), dtype=bool)
        for indices in groups.values():
            mask[indices] = pareto_mask(values[indices])
        kept = tuple(row for row, keep in zip(frame.data, mask) if keep)
        return cls(
            objectives=objectives,
            group_by=group_by,
            frame=ResultFrame(columns=frame.columns, data=kept, title=frame.title),
            mask=tuple(mask.tolist()),
        )

    def __len__(self) -> int:
        return len(self.frame)


def pareto_frontier(
    frame: ResultFrame,
    objectives: Sequence[str],
    group_by: Sequence[str] = (),
) -> ParetoFrontier:
    """Convenience alias of :meth:`ParetoFrontier.from_frame`."""
    return ParetoFrontier.from_frame(frame, objectives, group_by)
