"""Instruction-trace substrate.

This subpackage replaces the paper's Pin-based instrumentation of native
benchmark binaries.  It provides:

* a static program model (:mod:`repro.trace.program`) built from
  structured regions (straight-line code, loops, conditionals, calls,
  indirect jumps) that own synthetic basic blocks,
* a code layout pass (:mod:`repro.trace.layout`) that assigns byte
  addresses to every block the way a compiler would lay the code out in
  the text segment,
* an executor (:mod:`repro.trace.execution`) that walks a program with a
  seeded random number generator and emits the dynamic block/branch
  event stream, and
* the :class:`~repro.trace.events.Trace` container consumed by every
  analysis tool and hardware-structure simulator in the package.

All downstream code (analysis, front-end simulation, timing, power)
consumes only the dynamic trace, exactly as the paper's pintools consume
the dynamic instruction stream produced by Pin.
"""

from repro.trace.instruction import BranchKind, CodeSection
from repro.trace.basic_block import BasicBlock
from repro.trace.columns import ProgramColumns, program_columns
from repro.trace.events import BlockEvent, BranchColumns, BranchRecord, Trace
from repro.trace.program import (
    CallRegion,
    CodeRegion,
    Function,
    If,
    IndirectCallRegion,
    IndirectJumpRegion,
    JumpRegion,
    Loop,
    Program,
    Region,
    Sequence,
    SyscallRegion,
    FixedTripCount,
    GeometricTripCount,
    UniformTripCount,
)
from repro.trace.layout import layout_program
from repro.trace.buffers import ColumnBuffer
from repro.trace.execution import (
    ExecutionSchedule,
    Phase,
    TraceGenerator,
    generate_trace,
)
from repro.trace.compiler import CompiledSchedule, compile_schedule

__all__ = [
    "BranchKind",
    "CodeSection",
    "BasicBlock",
    "BlockEvent",
    "BranchColumns",
    "BranchRecord",
    "Trace",
    "ProgramColumns",
    "program_columns",
    "Region",
    "CodeRegion",
    "Sequence",
    "Loop",
    "If",
    "CallRegion",
    "IndirectCallRegion",
    "IndirectJumpRegion",
    "JumpRegion",
    "SyscallRegion",
    "Function",
    "Program",
    "FixedTripCount",
    "GeometricTripCount",
    "UniformTripCount",
    "layout_program",
    "ExecutionSchedule",
    "Phase",
    "TraceGenerator",
    "generate_trace",
    "ColumnBuffer",
    "CompiledSchedule",
    "compile_schedule",
]
