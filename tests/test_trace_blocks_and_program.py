"""Tests for basic blocks, region types, and the program container."""

import numpy as np
import pytest

from repro.trace import (
    BranchKind,
    BasicBlock,
    CallRegion,
    CodeRegion,
    FixedTripCount,
    Function,
    GeometricTripCount,
    If,
    IndirectCallRegion,
    IndirectJumpRegion,
    JumpRegion,
    Loop,
    Program,
    Sequence,
    SyscallRegion,
    UniformTripCount,
    layout_program,
)
from repro.trace.execution import ExecutionContext


def make_context(max_instructions: int = 10_000, seed: int = 3) -> ExecutionContext:
    return ExecutionContext(np.random.default_rng(seed), max_instructions)


class TestBasicBlock:
    def test_requires_at_least_one_instruction(self):
        with pytest.raises(ValueError):
            BasicBlock(num_instructions=0, size_bytes=0)

    def test_requires_at_least_one_byte_per_instruction(self):
        with pytest.raises(ValueError):
            BasicBlock(num_instructions=4, size_bytes=3)

    def test_end_and_fallthrough_addresses(self):
        block = BasicBlock(num_instructions=4, size_bytes=16)
        block.address = 0x1000
        assert block.end_address == 0x1010
        assert block.fallthrough_address == 0x1010

    def test_branch_address_is_inside_the_block(self):
        block = BasicBlock(
            num_instructions=4, size_bytes=16, terminator=BranchKind.CONDITIONAL_DIRECT
        )
        block.address = 0x2000
        assert 0x2000 <= block.branch_address < 0x2010

    def test_branch_address_requires_a_branch(self):
        block = BasicBlock(num_instructions=4, size_bytes=16)
        with pytest.raises(ValueError):
            block.branch_address


class TestTripCounts:
    def test_fixed_is_regular(self):
        model = FixedTripCount(7)
        rng = np.random.default_rng(0)
        assert model.is_regular
        assert model.mean == 7.0
        assert all(model.draw(rng) == 7 for _ in range(10))

    def test_fixed_rejects_non_positive(self):
        with pytest.raises(ValueError):
            FixedTripCount(0)

    def test_uniform_bounds(self):
        model = UniformTripCount(3, 6)
        rng = np.random.default_rng(0)
        draws = [model.draw(rng) for _ in range(200)]
        assert min(draws) >= 3 and max(draws) <= 6
        assert not model.is_regular

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformTripCount(5, 4)

    def test_geometric_mean_is_approximate(self):
        model = GeometricTripCount(12.0, minimum=2)
        rng = np.random.default_rng(0)
        draws = [model.draw(rng) for _ in range(3000)]
        assert min(draws) >= 2
        assert 10.0 <= sum(draws) / len(draws) <= 14.0

    def test_geometric_rejects_mean_below_minimum(self):
        with pytest.raises(ValueError):
            GeometricTripCount(1.0, minimum=3)


class TestRegions:
    def test_code_region_emits_one_event(self):
        region = CodeRegion(5)
        ctx = make_context()
        region.execute(ctx)
        assert len(ctx.events) == 1
        assert ctx.instructions_emitted == 5

    def test_sequence_executes_in_order(self):
        first, second = CodeRegion(2), CodeRegion(3)
        program = Program("p", [Function("f", Sequence([first, second]))])
        ctx = make_context()
        program.entry_function.body.execute(ctx)
        assert [e.block_id for e in ctx.events] == [
            first.block.block_id, second.block.block_id,
        ]

    def test_loop_executes_body_trip_times(self):
        body = CodeRegion(4)
        loop = Loop(body, FixedTripCount(6))
        Program("p", [Function("f", loop)])
        ctx = make_context()
        loop.execute(ctx)
        body_events = [e for e in ctx.events if e.block_id == body.block.block_id]
        latch_events = [e for e in ctx.events if e.block_id == loop.latch.block_id]
        assert len(body_events) == 6
        assert len(latch_events) == 6
        assert sum(e.taken for e in latch_events) == 5
        assert latch_events[-1].taken is False

    def test_if_probability_zero_never_runs_then(self):
        then = CodeRegion(3)
        conditional = If(0.0, then)
        Program("p", [Function("f", conditional)])
        ctx = make_context()
        for _ in range(20):
            conditional.execute(ctx)
        assert all(e.block_id != then.block.block_id for e in ctx.events)
        condition_events = [
            e for e in ctx.events if e.block_id == conditional.condition.block_id
        ]
        assert all(e.taken for e in condition_events)

    def test_if_pattern_cycles_deterministically(self):
        then = CodeRegion(2)
        conditional = If(0.5, then, pattern=[True, False, True])
        Program("p", [Function("f", conditional)])
        ctx = make_context()
        for _ in range(6):
            conditional.execute(ctx)
        condition_events = [
            e for e in ctx.events if e.block_id == conditional.condition.block_id
        ]
        # taken == "skip then", so the pattern [T, F, T] gives [F, T, F].
        assert [e.taken for e in condition_events] == [False, True, False] * 2

    def test_if_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            If(1.5, CodeRegion(1))

    def test_if_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            If(0.5, CodeRegion(1), pattern=[])

    def test_if_with_else_emits_skip_jump(self):
        conditional = If(1.0, CodeRegion(2), orelse=CodeRegion(2))
        Program("p", [Function("f", conditional)])
        ctx = make_context()
        conditional.execute(ctx)
        skip_events = [
            e for e in ctx.events if e.block_id == conditional.skip_else.block_id
        ]
        assert len(skip_events) == 1 and skip_events[0].taken

    def test_call_region_emits_call_and_return(self):
        callee = Function("leaf", CodeRegion(4))
        call = CallRegion(callee)
        program = Program("p", [Function("main", call), callee])
        layout_program(program)
        ctx = make_context()
        call.execute(ctx)
        kinds = [program.blocks[e.block_id].terminator for e in ctx.events]
        assert BranchKind.CALL in kinds
        assert BranchKind.RETURN in kinds

    def test_indirect_call_targets_each_callee_eventually(self):
        callees = [Function(f"leaf{i}", CodeRegion(2)) for i in range(3)]
        call = IndirectCallRegion(callees)
        program = Program("p", [Function("main", call)] + callees)
        layout_program(program)
        ctx = make_context()
        for _ in range(60):
            call.execute(ctx)
        targets = {
            e.target for e in ctx.events
            if program.blocks[e.block_id].terminator is BranchKind.INDIRECT_CALL
        }
        assert targets == {callee.entry_address for callee in callees}

    def test_indirect_call_rejects_empty_callees(self):
        with pytest.raises(ValueError):
            IndirectCallRegion([])

    def test_indirect_jump_dispatches_to_cases(self):
        cases = [CodeRegion(2), CodeRegion(3)]
        region = IndirectJumpRegion(cases, weights=[1.0, 1.0])
        program = Program("p", [Function("main", region)])
        layout_program(program)
        ctx = make_context()
        for _ in range(40):
            region.execute(ctx)
        executed = {e.block_id for e in ctx.events}
        assert cases[0].block.block_id in executed
        assert cases[1].block.block_id in executed

    def test_indirect_jump_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            IndirectJumpRegion([CodeRegion(1)], weights=[0.5, 0.5])

    def test_jump_region_is_always_taken_forward(self):
        jump = JumpRegion()
        program = Program("p", [Function("main", jump)])
        layout_program(program)
        ctx = make_context()
        jump.execute(ctx)
        assert ctx.events[0].taken
        assert jump.block.taken_target == jump.block.end_address

    def test_syscall_region_kind(self):
        syscall = SyscallRegion()
        Program("p", [Function("main", syscall)])
        ctx = make_context()
        syscall.execute(ctx)
        assert syscall.block.terminator is BranchKind.SYSCALL

    def test_region_static_size_helpers(self):
        region = Sequence([CodeRegion(4), CodeRegion(6)])
        assert region.instruction_count() == 10
        assert region.code_bytes() >= 10


class TestProgram:
    def test_blocks_get_unique_dense_ids(self, tiny_program):
        ids = [block.block_id for block in tiny_program.blocks]
        assert ids == list(range(len(ids)))

    def test_block_lookup(self, tiny_program):
        block = tiny_program.blocks[3]
        assert tiny_program.block(3) is block

    def test_function_named(self, tiny_program):
        assert tiny_program.function_named("leaf").name == "leaf"
        with pytest.raises(KeyError):
            tiny_program.function_named("missing")

    def test_requires_at_least_one_function(self):
        with pytest.raises(ValueError):
            Program("empty", [])

    def test_block_cannot_belong_to_two_programs(self):
        region = CodeRegion(4)
        Program("first", [Function("f", region)])
        with pytest.raises(ValueError):
            Program("second", [Function("g", region)])

    def test_static_sizes_are_consistent(self, tiny_program):
        assert tiny_program.static_code_bytes() == sum(
            block.size_bytes for block in tiny_program.blocks
        )
        assert tiny_program.static_instruction_count() == sum(
            block.num_instructions for block in tiny_program.blocks
        )
