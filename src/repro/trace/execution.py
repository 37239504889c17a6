"""Program execution: turn a static program into a dynamic trace.

The :class:`TraceGenerator` plays the role Pin plays in the paper: it
"runs" the workload and observes every executed basic block and branch.
Execution is driven by an :class:`ExecutionSchedule`, a list of phases
(setup phases run once, steady-state phases repeat) each tagged with the
code section it belongs to, which reproduces the serial / parallel
structure of an OpenMP or MPI+OpenMP application as seen from the first
processing element.

Events are recorded directly into growable preallocated NumPy column
buffers (:class:`~repro.trace.buffers.ColumnBuffer`) the columnar
:class:`~repro.trace.events.Trace` consumes; the event-object view
(``ctx.events``) is synthesized on demand for tests and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.trace.buffers import ColumnBuffer
from repro.trace.columns import NO_TARGET
from repro.trace.events import BlockEvent, Trace
from repro.trace.instruction import CodeSection
from repro.trace.basic_block import BasicBlock
from repro.trace.program import Function, Program, Region, static_size


@dataclass
class Phase:
    """One scheduled phase of execution.

    Attributes
    ----------
    function:
        Function invoked for this phase.
    section:
        Code section the phase's instructions are attributed to.
    repeat:
        Number of back-to-back invocations per schedule pass.
    """

    function: Function
    section: CodeSection
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ValueError("a phase must be invoked at least once per pass")
        if self.section is CodeSection.TOTAL:
            raise ValueError("phases must be tagged SERIAL or PARALLEL")


@dataclass
class ExecutionSchedule:
    """Setup phases (run once) followed by repeating steady-state phases."""

    setup: List[Phase] = field(default_factory=list)
    steady: List[Phase] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.setup and not self.steady:
            raise ValueError("a schedule needs at least one phase")


class ExecutionContext:
    """Mutable state threaded through region execution."""

    def __init__(self, rng: np.random.Generator, max_instructions: int, max_call_depth: int = 64) -> None:
        self.rng = rng
        self.max_instructions = max_instructions
        self.max_call_depth = max_call_depth
        self.instructions_emitted = 0
        self._buffer = self._event_buffer(max_instructions)
        self._call_depth = 0
        # Pattern state keyed by the owning region object itself.  The
        # dictionary holds a strong reference to each owner, so owners
        # cannot be garbage-collected mid-run and the keying is stable
        # (unlike id(), whose values can be reused after collection).
        self._pattern_positions: dict = {}
        self._section = CodeSection.SERIAL
        self._section_code = int(CodeSection.SERIAL)

    @staticmethod
    def _event_buffer(max_instructions: int) -> Optional[ColumnBuffer]:
        # Events land in preallocated NumPy columns; an average block
        # carries several instructions, so the instruction budget over 8
        # is a conservative initial event capacity.
        return ColumnBuffer(capacity_hint=max_instructions // 8)

    @property
    def section(self) -> CodeSection:
        """Code section newly emitted events are attributed to."""
        return self._section

    @section.setter
    def section(self, value: CodeSection) -> None:
        self._section = value
        self._section_code = int(value)

    def next_pattern_index(self, owner: object, length: int) -> int:
        """Advance and return the pattern position of a patterned region."""
        position = self._pattern_positions.get(owner, 0)
        self._pattern_positions[owner] = (position + 1) % length
        return position

    @property
    def exhausted(self) -> bool:
        """Whether the instruction budget has been consumed."""
        return self.instructions_emitted >= self.max_instructions

    @property
    def events(self) -> List[BlockEvent]:
        """Event-object view of what has been emitted so far."""
        block_ids, taken, targets, sections = self._buffer.columns()
        return [
            BlockEvent(b, t, None if g == NO_TARGET else g, CodeSection(s))
            for b, t, g, s in zip(
                block_ids.tolist(), taken.tolist(), targets.tolist(), sections.tolist()
            )
        ]

    def emit(self, block: BasicBlock, taken: bool, target: Optional[int] = None) -> None:
        """Record one dynamic execution of a block."""
        self._buffer.append(
            block.block_id,
            taken,
            NO_TARGET if target is None else target,
            self._section_code,
        )
        self.instructions_emitted += block.num_instructions

    def call(self, callee: Function, return_to: int) -> None:
        """Execute a callee function and its return instruction."""
        if self._call_depth >= self.max_call_depth:
            # Refuse to recurse deeper; emit just the return so the
            # call/return counts stay paired.
            self.emit(callee.return_block, taken=True, target=return_to)
            return
        self._call_depth += 1
        try:
            callee.body.execute(self)
        finally:
            self._call_depth -= 1
        self.emit(callee.return_block, taken=True, target=return_to)

    def build_trace(self, program: Program, name: str = "") -> Trace:
        """Wrap the emitted columns into a :class:`Trace`."""
        return Trace.from_columns(program, *self._buffer.columns(), name=name)


class CountingContext:
    """Counts the instructions one execution of a region tree runs.

    It walks the tree as the regions execute against
    :class:`ExecutionContext` -- the same RNG draws in the same order,
    the same pattern positions, the same call-depth limit -- but emits
    nothing: a subtree that draws nothing adds its instruction count in
    one step (:func:`~repro.trace.program.static_size`), and every other
    region counts itself (``Region.count``).  There is no instruction
    budget.  Synthesis sizes its schedule with it.
    """

    def __init__(self, rng: np.random.Generator, max_call_depth: int = 64) -> None:
        self.rng = rng
        self.max_call_depth = max_call_depth
        self._call_depth = 0
        self._pattern_positions: dict = {}
        self._sizes: dict = {}

    def next_pattern_index(self, owner: object, length: int) -> int:
        """Advance and return the pattern position of a patterned region."""
        position = self._pattern_positions.get(owner, 0)
        self._pattern_positions[owner] = (position + 1) % length
        return position

    def fixed(self, region: Region) -> Optional[int]:
        """Instructions of ``region`` if it draws nothing at this depth."""
        size = static_size(region, self._sizes)
        if size is None or self._call_depth + size[2] > self.max_call_depth:
            return None
        return size[1]

    def count(self, region: Region) -> int:
        """Instructions of one execution of ``region``."""
        size = static_size(region, self._sizes)
        if size is not None and self._call_depth + size[2] <= self.max_call_depth:
            return size[1]
        return region.count(self)

    def call(self, callee: Function) -> int:
        """Instructions of a callee's body and return, as ``call`` runs them."""
        if self._call_depth >= self.max_call_depth:
            # Too deep to recurse: only the return executes.
            return callee.return_block.num_instructions
        self._call_depth += 1
        instructions = self.count(callee.body)
        self._call_depth -= 1
        return instructions + callee.return_block.num_instructions


class TraceGenerator:
    """Generates dynamic traces from a program and a schedule."""

    def __init__(
        self,
        program: Program,
        schedule: ExecutionSchedule,
        seed: int = 0,
        max_call_depth: int = 64,
    ) -> None:
        self.program = program
        self.schedule = schedule
        self.seed = seed
        self.max_call_depth = max_call_depth

    def run(self, max_instructions: int, name: str = "") -> Trace:
        """Execute the schedule until the instruction budget is reached."""
        if max_instructions < 1:
            raise ValueError("max_instructions must be positive")
        rng = np.random.default_rng(self.seed)
        ctx = ExecutionContext(rng, max_instructions, self.max_call_depth)

        for phase in self.schedule.setup:
            self._run_phase(ctx, phase)
            if ctx.exhausted:
                break

        if self.schedule.steady:
            while not ctx.exhausted:
                for phase in self.schedule.steady:
                    self._run_phase(ctx, phase)
                    if ctx.exhausted:
                        break

        return ctx.build_trace(self.program, name=name or self.program.name)

    def _run_phase(self, ctx: ExecutionContext, phase: Phase) -> None:
        ctx.section = phase.section
        for _ in range(phase.repeat):
            phase.function.body.execute(ctx)
            ctx.emit(phase.function.return_block, taken=True, target=None)
            if ctx.exhausted:
                return


def generate_trace(
    program: Program,
    schedule: ExecutionSchedule,
    max_instructions: int,
    seed: int = 0,
    name: str = "",
) -> Trace:
    """Convenience wrapper: build a generator and run it once."""
    generator = TraceGenerator(program, schedule, seed=seed)
    return generator.run(max_instructions, name=name)
