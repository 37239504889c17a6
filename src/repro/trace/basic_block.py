"""Static basic blocks of the synthetic program model."""

from __future__ import annotations

from typing import Optional

from repro.trace.instruction import BranchKind


class BasicBlock:
    """A static basic block in a synthetic program.

    A block is a run of ``num_instructions`` straight-line instructions
    followed (optionally) by a single control-flow instruction whose
    kind is ``terminator``.  The terminator instruction is *included* in
    ``num_instructions`` and in ``size_bytes`` when it exists.

    Attributes
    ----------
    block_id:
        Dense integer identifier, assigned by the :class:`Program` the
        block belongs to.
    num_instructions:
        Number of instructions in the block, including its terminator.
    size_bytes:
        Total code size of the block in bytes.
    terminator:
        The control-flow kind ending the block (``BranchKind.NONE`` for
        a pure fall-through block).
    address:
        Starting byte address, filled in by the layout pass.
    taken_target:
        Statically-known taken-target address for direct branches and
        calls, filled in by the layout pass.  Indirect branches and
        returns resolve their target dynamically and keep ``None``.
    function_name:
        Name of the function the block belongs to (for reports).
    """

    __slots__ = (
        "num_instructions",
        "size_bytes",
        "terminator",
        "block_id",
        "address",
        "taken_target",
        "function_name",
    )

    def __init__(
        self,
        num_instructions: int,
        size_bytes: int,
        terminator: BranchKind = BranchKind.NONE,
        block_id: int = -1,
        address: int = 0,
        taken_target: Optional[int] = None,
        function_name: str = "",
    ) -> None:
        if num_instructions < 1:
            raise ValueError("a basic block must contain at least one instruction")
        if size_bytes < num_instructions:
            raise ValueError(
                "size_bytes must be at least one byte per instruction "
                f"(got {size_bytes} bytes for {num_instructions} instructions)"
            )
        self.num_instructions = num_instructions
        self.size_bytes = size_bytes
        self.terminator = terminator
        self.block_id = block_id
        self.address = address
        self.taken_target = taken_target
        self.function_name = function_name

    @property
    def end_address(self) -> int:
        """Address of the first byte after the block."""
        return self.address + self.size_bytes

    @property
    def branch_address(self) -> int:
        """Address of the terminating branch instruction.

        The terminator is modelled as the last instruction of the block;
        its address is approximated as the start of the final
        average-sized instruction slot.  Only meaningful when the block
        has a branch terminator.
        """
        if not self.terminator.is_branch:
            raise ValueError("fall-through blocks have no branch instruction")
        avg_size = max(1, self.size_bytes // self.num_instructions)
        return self.address + self.size_bytes - avg_size

    @property
    def fallthrough_address(self) -> int:
        """Address executed when the terminator is not taken."""
        return self.end_address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BasicBlock(id={self.block_id}, addr=0x{self.address:x}, "
            f"instrs={self.num_instructions}, bytes={self.size_bytes}, "
            f"term={self.terminator.name})"
        )
