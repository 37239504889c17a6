"""Property tests over drawn workload specs (Hypothesis).

The catalog's 41 hand-calibrated specs are not the only ones synthesis
must handle.  These properties draw ``SectionProfile`` and
``WorkloadSpec`` fields from the ranges their ``__post_init__`` accepts
and hold synthesis, the compiled engine and section-pass counting to
their references:

* a valid draw builds, and an out-of-range field raises ``ValueError``
  at construction;
* the compiled trace equals ``TraceGenerator``'s for drawn seeds and
  budgets of 2k-20k instructions (a budget almost always ends inside a
  segment, where the engine falls back to the literal walk);
* ``_measure_pass_instructions`` equals an ``ExecutionContext``
  recording of the same pass.

Fields the validation leaves unbounded are drawn from bounds that keep
each example in milliseconds, all wider than the catalog's: hot code of
at most 8 KB per section, up to 64 KB of cold code, mean trip counts up
to 64, a loop share of at least 0.1 (at most ten conditionals per loop
iteration), branch fractions in [0.01, 0.99] and 1-8 bytes per
instruction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace import TraceGenerator
from repro.trace.execution import ExecutionContext
from repro.workloads import SectionProfile, Suite, WorkloadSpec
from repro.workloads import synthesis

#: Recording a whole section pass as the reference costs the most, so
#: that property draws fewer examples.
EXAMPLES = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
PASS_EXAMPLES = settings(EXAMPLES, max_examples=15)

#: A category's share of the branch mix; six of them at most this much
#: leave room for conditionals in almost every draw.
category_fractions = st.floats(min_value=0.0, max_value=0.15)
unit_fractions = st.floats(min_value=0.0, max_value=1.0)

#: The non-conditional branch categories, as fractions of all branches.
CATEGORY_FIELDS = (
    "call_fraction",
    "indirect_call_fraction",
    "indirect_branch_fraction",
    "unconditional_fraction",
    "syscall_fraction",
)


@st.composite
def profile_fields(draw) -> dict:
    balanced = draw(unit_fractions)
    return dict(
        branch_fraction=draw(st.floats(min_value=0.01, max_value=0.99)),
        call_fraction=draw(category_fractions),
        indirect_call_fraction=draw(category_fractions),
        indirect_branch_fraction=draw(category_fractions),
        unconditional_fraction=draw(category_fractions),
        syscall_fraction=draw(category_fractions),
        loop_share=draw(st.floats(min_value=0.1, max_value=1.0)),
        avg_trip_count=draw(st.floats(min_value=1.0, max_value=64.0)),
        loop_regularity=draw(unit_fractions),
        balanced_if_share=balanced,
        moderate_if_share=draw(st.floats(min_value=0.0, max_value=1.0 - balanced)),
        if_taken_dominant_share=draw(unit_fractions),
        hot_code_kb=draw(
            st.floats(min_value=0.0, max_value=8.0, exclude_min=True)
        ),
        bytes_per_instruction=draw(st.floats(min_value=1.0, max_value=8.0)),
    )


@st.composite
def workload_specs(draw) -> WorkloadSpec:
    parallel = draw(profile_fields().filter(_has_conditionals))
    serial = draw(profile_fields().filter(_has_conditionals))
    serial_fraction = draw(unit_fractions)
    threads = draw(st.integers(min_value=1, max_value=16))
    hot = serial["hot_code_kb"]
    if serial_fraction < 1.0 and threads > 1:
        hot += parallel["hot_code_kb"]
    return WorkloadSpec(
        name=draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)),
        suite=draw(st.sampled_from(list(Suite))),
        parallel=SectionProfile(**parallel),
        serial=SectionProfile(**serial),
        serial_fraction=serial_fraction,
        static_code_kb=hot + draw(st.floats(min_value=0.0, max_value=64.0)),
        threads=threads,
    )


def _has_conditionals(fields: dict) -> bool:
    calls = fields["call_fraction"] + fields["indirect_call_fraction"]
    others = (
        fields["indirect_branch_fraction"]
        + fields["unconditional_fraction"]
        + fields["syscall_fraction"]
    )
    return 1.0 - (2.0 * calls + others) > 0.0


def test_a_vanishing_serial_share_builds():
    """Hypothesis's minimal spec for an overflowing parallel repeat."""
    profile = SectionProfile(
        branch_fraction=0.5,
        call_fraction=0.0,
        unconditional_fraction=0.0,
        syscall_fraction=0.0,
        loop_share=1.0,
        avg_trip_count=1.0,
        loop_regularity=0.0,
        balanced_if_share=0.0,
        moderate_if_share=0.0,
        if_taken_dominant_share=0.0,
        hot_code_kb=1.0,
        bytes_per_instruction=1.0,
    )
    spec = WorkloadSpec(
        name="a",
        suite=Suite.EXMATEX,
        parallel=profile,
        serial=profile,
        serial_fraction=5e-324,
        static_code_kb=2.0,
        threads=2,
    )
    serial, parallel = synthesis.build_workload(spec).schedule.steady
    assert (serial.repeat, parallel.repeat) == (1, synthesis._MAX_PARALLEL_REPEAT)


@EXAMPLES
@given(workload_specs())
def test_a_drawn_spec_builds_and_runs(spec):
    workload = synthesis.build_workload(spec)
    assert workload.program.blocks
    assert workload.schedule.steady
    assert all(phase.repeat >= 1 for phase in workload.schedule.steady)
    assert len(workload.trace(2_000)) > 0


@EXAMPLES
@given(
    workload_specs(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2_000, max_value=20_000),
)
def test_compiled_trace_equals_the_reference(spec, seed, instructions):
    workload = synthesis.build_workload(spec)
    reference = TraceGenerator(workload.program, workload.schedule, seed=seed).run(
        instructions
    )
    compiled = workload.compiled.run(instructions, seed=seed)
    assert np.array_equal(reference.block_ids, compiled.block_ids)
    assert np.array_equal(reference.taken_column, compiled.taken_column)
    assert np.array_equal(reference.target_column, compiled.target_column)
    assert np.array_equal(reference.section_column, compiled.section_column)


@PASS_EXAMPLES
@given(workload_specs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_counting_a_pass_equals_recording_it(spec, seed):
    for phase in synthesis.build_workload(spec).schedule.steady:
        function = phase.function
        ctx = ExecutionContext(np.random.default_rng(seed), max_instructions=10**12)
        function.body.execute(ctx)
        ctx.emit(function.return_block, taken=True)
        recorded = max(1, ctx.instructions_emitted)
        assert synthesis._measure_pass_instructions(function, seed) == recorded


#: One out-of-range value per validated ``SectionProfile`` field (or
#: pair of fields).
PROFILE_BREAKERS = {
    "branch_fraction": st.one_of(
        st.floats(max_value=0.0, min_value=-1.0), st.floats(min_value=1.0, max_value=2.0)
    ).map(lambda value: {"branch_fraction": value}),
    "loop_share": st.one_of(
        st.floats(max_value=0.0, min_value=-1.0),
        st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
    ).map(lambda value: {"loop_share": value}),
    "avg_trip_count": st.floats(min_value=-8.0, max_value=1.0, exclude_max=True).map(
        lambda value: {"avg_trip_count": value}
    ),
    "loop_regularity": st.one_of(
        st.floats(min_value=-1.0, max_value=0.0, exclude_max=True),
        st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
    ).map(lambda value: {"loop_regularity": value}),
    "hot_code_kb": st.floats(min_value=-8.0, max_value=0.0).map(
        lambda value: {"hot_code_kb": value}
    ),
    "if_shares": st.floats(min_value=0.0, max_value=1.0).map(
        lambda balanced: {
            "balanced_if_share": balanced,
            "moderate_if_share": 1.0 - balanced + 1e-6,
        }
    ),
    "branch_mix": st.floats(min_value=0.5, max_value=1.0).map(
        lambda calls: {"call_fraction": calls}
    ),
    "category_fraction": st.tuples(
        st.sampled_from(CATEGORY_FIELDS),
        st.floats(min_value=-1.0, max_value=0.0, exclude_max=True),
    ).map(lambda pair: dict([pair])),
    "if_share_sign": st.tuples(
        st.sampled_from(["balanced_if_share", "moderate_if_share"]),
        st.floats(min_value=-1.0, max_value=0.0, exclude_max=True),
    ).map(lambda pair: dict([pair])),
    "if_taken_dominant_share": st.one_of(
        st.floats(min_value=-1.0, max_value=0.0, exclude_max=True),
        st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
    ).map(lambda value: {"if_taken_dominant_share": value}),
    # Constructed only: a sub-byte instruction size must never reach the
    # builder, which would size its hot code in ~10^12 instructions.
    "bytes_per_instruction": st.floats(
        min_value=-8.0, max_value=1.0, exclude_max=True
    ).map(lambda value: {"bytes_per_instruction": value}),
}


@settings(max_examples=60, deadline=None)
@given(profile_fields(), st.sampled_from(sorted(PROFILE_BREAKERS)), st.data())
def test_an_out_of_range_profile_field_is_refused(fields, name, data):
    fields.update(data.draw(PROFILE_BREAKERS[name]))
    with pytest.raises(ValueError):
        SectionProfile(**fields)


@pytest.mark.parametrize(
    "field, value",
    [
        ("call_fraction", -0.05),
        ("syscall_fraction", -0.01),
        ("bytes_per_instruction", 0.0),
        ("bytes_per_instruction", -4.0),
        ("if_taken_dominant_share", 1.5),
        ("balanced_if_share", -0.2),
    ],
)
def test_a_profile_synthesis_cannot_build_is_refused(field, value):
    """Values that once passed construction and then failed in (or slipped
    through) synthesis: a negative fraction raised in the error diffuser,
    a zero instruction size divided by zero, the rest built silently."""
    with pytest.raises(ValueError, match=field):
        SectionProfile(branch_fraction=0.1, hot_code_kb=2.0, **{field: value})


@settings(max_examples=40, deadline=None)
@given(workload_specs(), st.sampled_from(["serial_fraction", "static_code_kb", "threads"]), st.data())
def test_an_out_of_range_spec_field_is_refused(spec, name, data):
    fields = dict(
        name=spec.name,
        suite=spec.suite,
        parallel=spec.parallel,
        serial=spec.serial,
        serial_fraction=spec.serial_fraction,
        static_code_kb=spec.static_code_kb,
        threads=spec.threads,
    )
    if name == "serial_fraction":
        fields[name] = data.draw(
            st.one_of(
                st.floats(min_value=-1.0, max_value=0.0, exclude_max=True),
                st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
            )
        )
    elif name == "static_code_kb":
        # Below the hot code the spec's sections need (never positive
        # enough to hold it).
        fields[name] = data.draw(
            st.floats(
                min_value=-8.0,
                max_value=spec.serial.hot_code_kb,
                exclude_max=True,
            )
        )
    else:
        fields[name] = data.draw(st.integers(min_value=-4, max_value=0))
    with pytest.raises(ValueError):
        WorkloadSpec(**fields)
