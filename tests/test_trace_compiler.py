"""Compiled segment engine: equivalence, determinism, and invariants.

The compiled generator must be **bit-identical** to the reference tree
walk -- the RNG draw order is preserved exactly (batched draws consume
the bit stream like sequential scalar draws, the vectorized weighted
choice reproduces the scalar cumulative scan, and every near-budget or
near-depth-limit region falls back to literally executing the original
tree).  These tests assert that equivalence over workloads x seeds x
lengths, determinism across processes and cache layers, and the
Section III analysis invariants on compiled traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    analyze_basic_blocks,
    analyze_branch_bias,
    analyze_branch_mix,
    analyze_footprint,
)
from repro.trace import (
    CallRegion,
    CodeRegion,
    CodeSection,
    CompiledTraceGenerator,
    ExecutionSchedule,
    FixedTripCount,
    Function,
    GeometricTripCount,
    If,
    IndirectCallRegion,
    IndirectJumpRegion,
    JumpRegion,
    Loop,
    Phase,
    Program,
    Sequence,
    SyscallRegion,
    TraceGenerator,
    UniformTripCount,
    compile_schedule,
    layout_program,
)
from repro.api.runtime_config import RuntimeConfig, activated
from repro.workloads import build_workload, get_workload
from repro.workloads.trace_cache import (
    clear_trace_cache,
    trace_cache_info,
    workload_trace,
)

#: Workloads spanning every suite: HPC loop nests (FT, LULESH, md),
#: a large serial-share proxy app (CoEVP), and branchy desktop code
#: (gobmk) -- the structures that stress different compiler paths.
EQUIVALENCE_WORKLOADS = ("FT", "LULESH", "md", "CoEVP", "gobmk")
EQUIVALENCE_SEEDS = (0, 7, 1234)
EQUIVALENCE_LENGTHS = (30_000, 120_000)


def assert_traces_identical(reference, compiled):
    __tracebackhide__ = True
    assert len(reference) == len(compiled)
    assert np.array_equal(reference.block_ids, compiled.block_ids)
    assert np.array_equal(reference.taken_column, compiled.taken_column)
    assert np.array_equal(reference.target_column, compiled.target_column)
    assert np.array_equal(reference.section_column, compiled.section_column)


class TestCompiledEquivalence:
    @pytest.mark.parametrize("name", EQUIVALENCE_WORKLOADS)
    def test_bit_identical_across_seeds_and_lengths(self, name):
        workload = build_workload(get_workload(name))
        for seed in EQUIVALENCE_SEEDS:
            for instructions in EQUIVALENCE_LENGTHS:
                reference = TraceGenerator(
                    workload.program, workload.schedule, seed=seed
                ).run(instructions)
                compiled = CompiledTraceGenerator(
                    workload.program, workload.schedule, seed=seed
                ).run(instructions)
                assert_traces_identical(reference, compiled)

    def test_tiny_budget_truncation_matches(self):
        """The literal fallback reproduces mid-region truncation."""
        workload = build_workload(get_workload("FT"))
        for instructions in (1, 10, 97, 1003):
            reference = TraceGenerator(
                workload.program, workload.schedule, seed=3
            ).run(instructions)
            compiled = CompiledTraceGenerator(
                workload.program, workload.schedule, seed=3
            ).run(instructions)
            assert_traces_identical(reference, compiled)

    def test_hand_built_program_with_every_region_kind(self):
        """Dynamic loops, indirect dispatch, patterns, calls, syscalls."""
        leaf_a = Function(name="leaf_a", body=CodeRegion(5))
        leaf_b = Function(name="leaf_b", body=CodeRegion(9))
        inner = Sequence(
            [
                CodeRegion(3),
                If(0.4, CodeRegion(4), orelse=CodeRegion(2)),
                If(0.9, CodeRegion(3), pattern=[True, True, False]),
                IndirectCallRegion([leaf_a, leaf_b], weights=[2.0, 1.0]),
                IndirectJumpRegion(
                    [CodeRegion(2), CodeRegion(5), CodeRegion(3)],
                    weights=[1.0, 0.5, 2.0],
                ),
                JumpRegion(),
            ]
        )
        body = Sequence(
            [
                CodeRegion(6),
                Loop(inner, UniformTripCount(3, 9)),
                CallRegion(leaf_a),
                Loop(CodeRegion(4), GeometricTripCount(5.0)),
                SyscallRegion(),
                Loop(
                    Sequence([CodeRegion(2), If(0.5, CodeRegion(2))]),
                    FixedTripCount(4),
                ),
            ]
        )
        main = Function(name="main", body=body)
        program = layout_program(Program("handmade", [main, leaf_a, leaf_b]))
        schedule = ExecutionSchedule(
            steady=[Phase(main, CodeSection.SERIAL)]
        )
        for seed in (0, 11, 99):
            for instructions in (500, 5_000, 50_000):
                reference = TraceGenerator(program, schedule, seed=seed).run(
                    instructions
                )
                compiled = CompiledTraceGenerator(program, schedule, seed=seed).run(
                    instructions
                )
                assert_traces_identical(reference, compiled)

    def test_setup_and_multi_phase_schedules(self):
        setup_fn = Function(name="setup", body=CodeRegion(20))
        serial_fn = Function(
            name="serial",
            body=Loop(CodeRegion(5), FixedTripCount(3)),
        )
        parallel_fn = Function(
            name="parallel",
            body=Loop(
                Sequence([CodeRegion(4), If(0.7, CodeRegion(2))]),
                UniformTripCount(2, 5),
            ),
        )
        program = layout_program(
            Program("phased", [setup_fn, serial_fn, parallel_fn])
        )
        schedule = ExecutionSchedule(
            setup=[Phase(setup_fn, CodeSection.SERIAL)],
            steady=[
                Phase(serial_fn, CodeSection.SERIAL, repeat=2),
                Phase(parallel_fn, CodeSection.PARALLEL, repeat=3),
            ],
        )
        for seed in (0, 42):
            reference = TraceGenerator(program, schedule, seed=seed).run(4_000)
            compiled = CompiledTraceGenerator(program, schedule, seed=seed).run(4_000)
            assert_traces_identical(reference, compiled)
        sections = set(np.unique(compiled.section_column).tolist())
        assert sections == {int(CodeSection.SERIAL), int(CodeSection.PARALLEL)}

    def test_shared_function_across_phases_keeps_pattern_state(self):
        """A pattern site reached through two phases stays continuous.

        The same function may appear in several Phase entries; its
        pattern-If positions are global per owner in the reference
        generator, so the compiled engine must share them across the
        (independently compiled) phase bodies too.
        """
        shared_fn = Function(
            name="shared",
            body=Loop(
                Sequence(
                    [
                        CodeRegion(3),
                        If(0.5, CodeRegion(4), pattern=[True, False, False]),
                    ]
                ),
                FixedTripCount(4),
            ),
        )
        program = layout_program(Program("twophase", [shared_fn]))
        schedule = ExecutionSchedule(
            steady=[
                Phase(shared_fn, CodeSection.SERIAL),
                Phase(shared_fn, CodeSection.PARALLEL),
            ]
        )
        for seed in (0, 7):
            reference = TraceGenerator(program, schedule, seed=seed).run(5_000)
            compiled = CompiledTraceGenerator(program, schedule, seed=seed).run(5_000)
            assert_traces_identical(reference, compiled)

    def test_zero_trip_loops_match(self):
        """Loops that may draw zero iterations emit nothing, crash-free."""
        main = Function(
            name="main",
            body=Sequence(
                [
                    CodeRegion(2),
                    Loop(CodeRegion(3), GeometricTripCount(0.5, minimum=0)),
                    Loop(
                        Sequence([CodeRegion(2), If(0.6, CodeRegion(2))]),
                        GeometricTripCount(0.0, minimum=0),
                    ),
                ]
            ),
        )
        program = layout_program(Program("zerotrip", [main]))
        schedule = ExecutionSchedule(steady=[Phase(main, CodeSection.SERIAL)])
        for seed in (3, 21):
            reference = TraceGenerator(program, schedule, seed=seed).run(3_000)
            compiled = CompiledTraceGenerator(program, schedule, seed=seed).run(3_000)
            assert_traces_identical(reference, compiled)

    def test_compilation_is_memoized_per_program(self):
        workload = build_workload(get_workload("FT"))
        first = compile_schedule(workload.program, workload.schedule)
        second = compile_schedule(workload.program, workload.schedule)
        assert first is second
        assert workload.compiled is first


class TestCompiledDeterminism:
    def test_same_seed_same_trace_across_generator_instances(self):
        workload = build_workload(get_workload("CoMD"))
        first = CompiledTraceGenerator(
            workload.program, workload.schedule, seed=5
        ).run(40_000)
        fresh = CompiledTraceGenerator(
            workload.program, workload.schedule, seed=5
        ).run(40_000)
        assert_traces_identical(first, fresh)

    def test_identical_across_cache_layers(self, tmp_path):
        """In-process vs .npz reload vs freshly compiled agree exactly."""
        spec = get_workload("SP")
        clear_trace_cache()
        with activated(RuntimeConfig(trace_cache_dir=str(tmp_path))):
            generated = workload_trace(spec, 25_000)
            assert trace_cache_info()["disk_stores"] == 1

            in_process = workload_trace(spec, 25_000)
            assert in_process is generated  # memory layer returns the object

            clear_trace_cache()
            reloaded = workload_trace(spec, 25_000)  # comes back from .npz
            assert trace_cache_info()["disk_hits"] == 1
            assert_traces_identical(generated, reloaded)

        clear_trace_cache()
        with activated(RuntimeConfig(trace_cache_dir=None)):
            recompiled = workload_trace(spec, 25_000)  # freshly compiled
        assert trace_cache_info()["disk_hits"] == 0
        assert_traces_identical(generated, recompiled)
        clear_trace_cache()


class TestCompiledAnalysisInvariants:
    """Section III analyses hold on compiled traces.

    The compiled engine is bit-identical to the reference, so these are
    belt-and-braces: they pin the analysis-facing properties the rest
    of the package relies on, independent of the equivalence assertion.
    """

    @pytest.fixture(scope="class")
    def compiled_trace(self):
        workload = build_workload(get_workload("FT"))
        return workload.compiled.run(60_000, seed=0, name="FT")

    def test_instruction_budget_reached(self, compiled_trace):
        assert compiled_trace.instruction_count() >= 60_000
        serial = compiled_trace.instruction_count(CodeSection.SERIAL)
        parallel = compiled_trace.instruction_count(CodeSection.PARALLEL)
        assert serial + parallel == compiled_trace.instruction_count()

    def test_branch_mix_is_consistent(self, compiled_trace):
        mix = analyze_branch_mix(compiled_trace)
        assert 0 < mix.branch_fraction < 1
        fractions = mix.category_fractions
        assert abs(sum(fractions.values()) - mix.branch_fraction) < 1e-9

    def test_branch_bias_covers_all_conditionals(self, compiled_trace):
        bias = analyze_branch_bias(compiled_trace)
        assert bias.dynamic_conditional_count == sum(
            1 for r in compiled_trace.branch_records() if r.kind.is_conditional
        )
        assert abs(sum(bias.bucket_fractions.values()) - 1.0) < 1e-9

    def test_footprint_and_blocks_are_positive(self, compiled_trace):
        footprint = analyze_footprint(compiled_trace)
        assert 0 < footprint.dynamic_footprint_bytes <= footprint.static_bytes
        assert footprint.executed_static_bytes <= footprint.static_bytes
        blocks = analyze_basic_blocks(compiled_trace)
        assert blocks.average_block_instructions > 1
