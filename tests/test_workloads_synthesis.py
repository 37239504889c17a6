"""Tests for workload synthesis (spec -> program -> trace)."""

import pytest

from repro.trace import CodeSection
from repro.workloads import SectionProfile, Suite, WorkloadSpec, build_workload, get_workload
from repro.workloads.synthesis import _Diffuser, _SectionPlan
from repro.workloads.trace_cache import workload_trace

SMALL = 50_000


def _toy_spec(serial_fraction: float = 0.1, threads: int = 8) -> WorkloadSpec:
    profile = SectionProfile(branch_fraction=0.1, hot_code_kb=3.0)
    serial = SectionProfile(branch_fraction=0.18, hot_code_kb=3.0, loop_share=0.55)
    return WorkloadSpec(
        name="toy-synthesis",
        suite=Suite.NPB,
        parallel=profile,
        serial=serial,
        serial_fraction=serial_fraction,
        static_code_kb=32.0,
        threads=threads,
    )


class TestDiffuser:
    def test_integer_expectations_pass_through(self):
        diffuser = _Diffuser(0.0)
        assert [diffuser.take(2.0) for _ in range(5)] == [2] * 5

    def test_fractional_expectations_average_out(self):
        diffuser = _Diffuser(0.0)
        draws = [diffuser.take(0.3) for _ in range(1000)]
        assert sum(draws) == pytest.approx(300, abs=1)

    def test_rejects_negative_expectation(self):
        with pytest.raises(ValueError):
            _Diffuser().take(-0.1)


class TestSectionPlan:
    def test_budgets_follow_the_profile(self):
        profile = SectionProfile(branch_fraction=0.1, loop_share=0.5)
        plan = _SectionPlan(profile)
        assert plan.conditionals_per_iteration == pytest.approx(2.0)
        assert plan.branches_per_iteration == pytest.approx(
            2.0 / profile.conditional_fraction
        )
        assert plan.instructions_per_iteration == pytest.approx(
            plan.branches_per_iteration / 0.1
        )


class TestBuildWorkload:
    def test_build_is_cached(self):
        spec = get_workload("IS")
        assert build_workload(spec) is build_workload(spec)

    def test_a_direct_trace_takes_an_explicit_budget(self):
        # The one budget default lives in the runtime config and reaches
        # a trace through workload_trace; a built workload has none.
        workload = build_workload(get_workload("IS"))
        with pytest.raises(TypeError):
            workload.trace()
        assert workload.trace(SMALL).instruction_count() >= SMALL

    def test_trace_is_cached_per_length(self):
        spec = get_workload("IS")
        assert workload_trace(spec, SMALL) is workload_trace(spec, SMALL)
        assert workload_trace(spec, SMALL) is not workload_trace(spec, SMALL // 2)

    def test_trace_is_deterministic_across_builds(self):
        spec = _toy_spec()
        build_workload.cache_clear()
        first = build_workload(spec).trace(SMALL).events
        build_workload.cache_clear()
        second = build_workload(spec).trace(SMALL).events
        assert first == second

    def test_branch_fraction_close_to_spec(self):
        workload = build_workload(_toy_spec(serial_fraction=0.0))
        trace = workload.trace(SMALL)
        fraction = trace.branch_count() / trace.instruction_count()
        assert fraction == pytest.approx(0.1, rel=0.3)

    def test_serial_fraction_roughly_respected(self):
        # Short traces overweight the serial phase (it is scheduled
        # first); the fraction converges towards the spec for traces
        # covering several steady-state passes.
        workload = build_workload(_toy_spec(serial_fraction=0.2))
        trace = workload.trace(300_000)
        assert 0.08 <= trace.section_fraction(CodeSection.SERIAL) <= 0.45

    def test_sequential_workload_has_only_serial_code(self):
        workload = build_workload(get_workload("mcf"))
        trace = workload.trace(SMALL)
        assert trace.instruction_count(CodeSection.PARALLEL) == 0
        assert trace.instruction_count(CodeSection.SERIAL) == trace.instruction_count()

    def test_parallel_workload_has_both_sections(self):
        workload = build_workload(get_workload("IS"))
        trace = workload.trace(SMALL)
        assert trace.instruction_count(CodeSection.PARALLEL) > 0
        assert trace.instruction_count(CodeSection.SERIAL) > 0

    def test_static_footprint_tracks_spec(self):
        spec = get_workload("VPFFT")
        workload = build_workload(spec)
        static_kb = workload.static_code_bytes() / 1024.0
        assert static_kb == pytest.approx(spec.static_code_kb, rel=0.25)

    def test_zero_serial_fraction_supported(self):
        workload = build_workload(_toy_spec(serial_fraction=0.0))
        trace = workload.trace(SMALL)
        assert trace.instruction_count(CodeSection.SERIAL) == 0

    def test_workload_metadata(self):
        workload = build_workload(get_workload("IS"))
        assert workload.name == "IS"
        assert workload.suite is Suite.NPB

    def test_backward_bias_of_hpc_parallel_code(self):
        workload = build_workload(get_workload("IS"))
        trace = workload.trace(SMALL)
        taken = [
            r for r in trace.branch_records(CodeSection.PARALLEL)
            if r.taken and r.target is not None
        ]
        backward = sum(1 for r in taken if r.is_backward)
        assert backward / len(taken) > 0.6
