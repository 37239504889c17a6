"""Hand-built tiny programs, and a recorder of workload builds, shared
by the trace-layer tests.

Kept in an unambiguously named module (not ``conftest``) so tests can
import the helpers directly: ``conftest`` is also the name of the
benchmark harness configuration, and which of the two wins the
``sys.modules`` slot depends on collection order.
"""

from __future__ import annotations

import weakref
from typing import List

from repro.trace import (
    CodeSection,
    CodeRegion,
    ExecutionSchedule,
    FixedTripCount,
    Function,
    If,
    Loop,
    Phase,
    Program,
    Sequence,
    TraceGenerator,
    layout_program,
)
from repro.workloads import trace_cache


def build_tiny_program(loop_trips: int = 5, probability_then: float = 0.8) -> Program:
    """A two-function program with one loop, one conditional, one call."""
    callee = Function(name="leaf", body=CodeRegion(6))
    body = Sequence([
        CodeRegion(4),
        If(probability_then, CodeRegion(3)),
        CodeRegion(2),
    ])
    main_body = Sequence([
        CodeRegion(5),
        Loop(body, FixedTripCount(loop_trips)),
        CodeRegion(3),
    ])
    main = Function(name="main", body=main_body)
    program = Program("tiny", [main, callee])
    return layout_program(program)


def trace_of(program: Program, instructions: int = 2_000, seed: int = 7):
    """Run a program's first function as a steady serial phase."""
    schedule = ExecutionSchedule(
        steady=[Phase(program.entry_function, CodeSection.SERIAL)]
    )
    return TraceGenerator(program, schedule, seed=seed).run(instructions)


def record_builds(patch) -> List[weakref.ref]:
    """Record every workload the trace cache builds while ``patch`` lasts.

    ``patch`` is a ``pytest.MonkeyPatch``; the list it returns gains a
    weak reference to each built program, so a test can count the
    builds and see which programs are still alive.
    """
    programs: List[weakref.ref] = []
    build = trace_cache.build_workload

    def recording_build(spec):
        workload = build(spec)
        programs.append(weakref.ref(workload.program))
        return workload

    patch.setattr(trace_cache, "build_workload", recording_build)
    return programs
