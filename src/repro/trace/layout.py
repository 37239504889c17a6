"""Code layout: assign text-segment addresses and static branch targets.

The layout pass mimics what a compiler and linker do to the text
segment: functions are placed one after another (16-byte aligned) and
the blocks inside a function are laid out in the order the region tree
yields them.  A second pass resolves the statically-known branch
targets so that loop back-edges become *backward* branches and
conditional branches that skip over code become *forward* branches,
exactly the property the paper's backward/forward taken analysis
(Table I) measures.
"""

from __future__ import annotations

from repro.trace.columns import invalidate_program_columns
from repro.trace.instruction import TEXT_BASE_ADDRESS
from repro.trace.program import Program


def layout_program(
    program: Program,
    base_address: int = TEXT_BASE_ADDRESS,
    function_alignment: int = 16,
) -> Program:
    """Assign addresses to every block and resolve static branch targets.

    Returns the same program object for call chaining.
    """
    _assign_addresses(program, base_address, function_alignment)
    for function in program.functions:
        function.body.resolve_targets()
    invalidate_program_columns(program)
    return program


def _assign_addresses(
    program: Program, base_address: int, function_alignment: int
) -> None:
    """Place functions back to back and blocks contiguously inside them.

    Walks the block list the program enumerated at construction, one
    function's slice at a time.
    """
    cursor = base_address
    blocks = program.blocks
    offsets = program.function_offsets
    for start, end in zip(offsets, offsets[1:]):
        cursor = _align(cursor, function_alignment)
        for block in blocks[start:end]:
            block.address = cursor
            cursor += block.size_bytes


def _align(address: int, alignment: int) -> int:
    """Round an address up to the requested alignment."""
    if alignment <= 1:
        return address
    remainder = address % alignment
    if remainder == 0:
        return address
    return address + (alignment - remainder)
