"""Columnar (structure-of-arrays) views of static program metadata.

The trace layer stores dynamic events as NumPy columns; to turn those
into per-branch or per-instruction quantities it needs the static
properties of every basic block as lookup arrays indexed by block id.
:class:`ProgramColumns` precomputes those arrays once per
:class:`~repro.trace.program.Program` so every downstream accessor is a
vectorized gather instead of a per-event Python loop.  Five of them
(:data:`STATIC_ARRAYS`) determine the rest, so a trace loaded from the
disk cache rebuilds its columns from the stored five without the
program.

The arrays mirror the scalar :class:`~repro.trace.basic_block.BasicBlock`
properties exactly (including the ``branch_address`` approximation), so
columnar results are bit-identical to walking the block objects.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trace.instruction import BranchKind

#: Sentinel used in target columns for "no statically-known target".
NO_TARGET = -1


#: The static per-block arrays a trace's consumers read; every other
#: column of :class:`ProgramColumns` is derived from these five.  The
#: disk trace cache stores them next to the event columns.
STATIC_ARRAYS = (
    "num_instructions",
    "size_bytes",
    "addresses",
    "terminators",
    "taken_targets",
)


class ProgramColumns:
    """Static per-block metadata of a program as dense NumPy arrays.

    All arrays are indexed by ``block_id`` (the dense identifiers a
    :class:`Program` assigns), so gathering per-event values is
    ``array[trace_block_ids]``.

    Built either from a laid-out program (``ProgramColumns(program)``)
    or, without one, from the five :data:`STATIC_ARRAYS`
    (:meth:`from_arrays`) -- which is how a trace loaded from the disk
    cache answers column queries without synthesizing its program.
    Both paths derive the remaining columns with the same code.
    """

    __slots__ = (
        "num_blocks",
        "num_instructions",
        "size_bytes",
        "addresses",
        "end_addresses",
        "fallthrough_addresses",
        "branch_addresses",
        "terminators",
        "taken_targets",
        "is_branch",
        "is_conditional",
    )

    def __init__(self, program) -> None:
        blocks = program.blocks
        self._derive(
            [b.num_instructions for b in blocks],
            [b.size_bytes for b in blocks],
            [b.address for b in blocks],
            [int(b.terminator) for b in blocks],
            [NO_TARGET if b.taken_target is None else b.taken_target for b in blocks],
        )

    @classmethod
    def from_arrays(
        cls, num_instructions, size_bytes, addresses, terminators, taken_targets
    ) -> "ProgramColumns":
        """Columns of a program known only by its five static arrays."""
        columns = cls.__new__(cls)
        columns._derive(
            num_instructions, size_bytes, addresses, terminators, taken_targets
        )
        return columns

    def _derive(
        self, num_instructions, size_bytes, addresses, terminators, taken_targets
    ) -> None:
        self.num_instructions = np.asarray(num_instructions, dtype=np.int64)
        self.size_bytes = np.asarray(size_bytes, dtype=np.int64)
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.terminators = np.asarray(terminators, dtype=np.uint8)
        self.taken_targets = np.asarray(taken_targets, dtype=np.int64)
        self.num_blocks = int(self.num_instructions.shape[0])
        self.end_addresses = self.addresses + self.size_bytes
        self.fallthrough_addresses = self.end_addresses
        # Mirrors BasicBlock.branch_address: the terminator occupies the
        # final average-sized instruction slot of the block.
        average_size = np.maximum(1, self.size_bytes // self.num_instructions)
        self.branch_addresses = self.end_addresses - average_size
        self.is_branch = self.terminators != int(BranchKind.NONE)
        self.is_conditional = self.terminators == int(BranchKind.CONDITIONAL_DIRECT)


def program_columns(program) -> ProgramColumns:
    """Return (building lazily) the cached static columns of a program."""
    cached: Optional[ProgramColumns] = getattr(program, "_repro_columns", None)
    if cached is None:
        cached = ProgramColumns(program)
        program._repro_columns = cached
    return cached


def invalidate_program_columns(program) -> None:
    """Drop cached columns (call after mutating block addresses/targets)."""
    if getattr(program, "_repro_columns", None) is not None:
        program._repro_columns = None
