"""Turn workload specifications into synthetic programs and traces.

The builder constructs, for each code section of a workload, a set of
hot loop-nest kernels whose structure realises the section's profile:

* the innermost loop's latch supplies the backward-taken loop branch,
* ``If`` regions supply the forward conditional branches with the
  profile's bias mix (strongly biased, moderately biased, balanced,
  optionally history-patterned),
* call, indirect-call, indirect-jump, unconditional-jump and syscall
  regions supply the non-conditional branch categories of Figure 1, and
* straight-line fill code sets the instructions-per-branch ratio and
  therefore the dynamic basic-block length.

Fractional per-iteration expectations (e.g. 0.3 calls per iteration)
are realised across kernels with error-diffusion rounding so the
aggregate dynamic mix converges to the profile without any kernel
looking artificial.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

import numpy as np

from repro.trace.compiler import CompiledSchedule, compile_schedule
from repro.trace.events import Trace
from repro.trace.execution import CountingContext, ExecutionSchedule, Phase
from repro.trace.instruction import CodeSection
from repro.trace.layout import layout_program
from repro.trace.program import (
    CallRegion,
    CodeRegion,
    FixedTripCount,
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
    TripCountModel,
    UniformTripCount,
)
from repro.workloads.spec import SectionProfile, WorkloadSpec

#: Minimum serial hot code, even for workloads with a tiny serial share.
_MIN_SERIAL_HOT_KB = 0.5

#: Upper bound on how many parallel passes are scheduled per serial pass
#: when a workload's serial share is very small.
_MAX_PARALLEL_REPEAT = 400

#: Share of conditional sites whose outcomes are genuinely data-random
#: (independent draws every execution).  Real control flow correlates
#: strongly with recent history or at least with the branch's own past;
#: only a small minority of branches are effectively coin flips.
_RANDOM_IF_SHARE = 0.06

#: Among patterned middle-bucket sites, the share that follows a short
#: periodic pattern tied to the enclosing loop (history-predictable)
#: versus a long bursty pattern (counter-predictable except at run
#: boundaries).
_PERIODIC_IF_SHARE = 0.55

#: Share of strongly biased sites that never deviate from their
#: dominant direction (e.g. error-handling checks).
_DETERMINISTIC_STRONG_SHARE = 0.8

#: Code chunk used for cold (never executed) library and startup code.
_COLD_CHUNK_BYTES = 4096

#: Bounds on the static code size of one execution region (a group of
#: kernels the program stays inside for a while before moving on).  The
#: region size scales with the section's hot code so large desktop
#: codes have phase working sets of a few tens of KB while small HPC
#: kernels stay within a few KB, giving the synthetic workloads the
#: temporal locality real programs have -- which is what small BTBs and
#: I-caches exploit.
_REGION_KB_MIN = 5.0
_REGION_KB_MAX = 26.0
_REGION_SHARE_OF_HOT = 0.2

#: How many regions are revisited together before execution moves on.
_REGIONS_PER_GROUP = 2

#: Trip-count range of the loop that revisits a region group.
_GROUP_REPEAT_RANGE = (4, 8)


class _Diffuser:
    """Error-diffusion rounding of fractional per-kernel expectations."""

    def __init__(self, initial_credit: float = 0.5) -> None:
        self._credit = initial_credit

    def take(self, expectation: float) -> int:
        """Consume an expectation and return the integer count to realise."""
        if expectation < 0:
            raise ValueError("expectation must be non-negative")
        self._credit += expectation
        count = int(self._credit)
        self._credit -= count
        return count


class _SectionPlan:
    """Per-iteration budgets derived from a section profile."""

    def __init__(self, profile: SectionProfile) -> None:
        self.profile = profile
        self.conditionals_per_iteration = 1.0 / profile.loop_share
        self.branches_per_iteration = (
            self.conditionals_per_iteration / profile.conditional_fraction
        )
        self.instructions_per_iteration = (
            self.branches_per_iteration / profile.branch_fraction
        )

    def expected_kernel_static_instructions(self) -> float:
        """Rough static size of one kernel, used to pick the kernel count."""
        return self.instructions_per_iteration * 1.45 + 16.0


class _SectionBuilder:
    """Builds the hot code of one section (serial or parallel)."""

    def __init__(self, name: str, profile: SectionProfile, rng: np.random.Generator) -> None:
        self.name = name
        self.profile = profile
        self.rng = rng
        self.plan = _SectionPlan(profile)
        self.leaf_functions: List[Function] = []
        self._if_diffuser = _Diffuser()
        self._call_diffuser = _Diffuser()
        self._indirect_call_diffuser = _Diffuser()
        self._indirect_jump_diffuser = _Diffuser()
        self._jump_diffuser = _Diffuser()
        self._syscall_diffuser = _Diffuser(0.0)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def build(self, hot_code_kb: float) -> Tuple[Function, List[Function]]:
        """Build the section function sized to roughly ``hot_code_kb``.

        Kernels are grouped into *regions* of a few KB of code, and
        consecutive regions are revisited a few times before execution
        moves on.  This reproduces the temporal locality of real
        programs: the instruction and branch working set over any short
        window is a region group, not the whole hot code.
        """
        bytes_per_instruction = self.profile.bytes_per_instruction
        hot_instructions = hot_code_kb * 1024.0 / bytes_per_instruction
        kernel_instructions = self.plan.expected_kernel_static_instructions()
        kernel_count = max(1, int(round(hot_instructions / kernel_instructions)))
        self._make_leaf_functions(kernel_count)
        kernels = [self._build_kernel(index) for index in range(kernel_count)]

        region_kb = min(
            _REGION_KB_MAX,
            max(_REGION_KB_MIN, hot_code_kb * _REGION_SHARE_OF_HOT),
        ) * float(self.rng.uniform(0.85, 1.15))
        kernels_per_region = max(
            1, int(round(region_kb * 1024.0 / (kernel_instructions * bytes_per_instruction)))
        )
        regions = [
            Sequence(kernels[start : start + kernels_per_region])
            for start in range(0, len(kernels), kernels_per_region)
        ]

        groups: List[Region] = []
        for start in range(0, len(regions), _REGIONS_PER_GROUP):
            group_members = regions[start : start + _REGIONS_PER_GROUP]
            trip = UniformTripCount(*_GROUP_REPEAT_RANGE)
            groups.append(
                Loop(
                    Sequence(group_members),
                    trip,
                    latch_instructions=3,
                    bytes_per_instruction=bytes_per_instruction,
                )
            )

        function = Function(name=self.name, body=Sequence(groups))
        return function, self.leaf_functions

    # ------------------------------------------------------------------
    # Leaf functions (call targets)
    # ------------------------------------------------------------------
    def _make_leaf_functions(self, kernel_count: int) -> None:
        leaf_count = max(2, kernel_count // 6)
        leaf_count = min(leaf_count, 24)
        for index in range(leaf_count):
            instructions = int(self.rng.integers(6, 20))
            body = CodeRegion(
                instructions, bytes_per_instruction=self.profile.bytes_per_instruction
            )
            self.leaf_functions.append(
                Function(name=f"{self.name}_leaf{index}", body=body)
            )

    def _pick_leaf(self) -> Function:
        index = int(self.rng.integers(0, len(self.leaf_functions)))
        return self.leaf_functions[index]

    # ------------------------------------------------------------------
    # Kernel construction
    # ------------------------------------------------------------------
    def _build_kernel(self, index: int) -> Region:
        profile = self.profile
        plan = self.plan
        bpi = profile.bytes_per_instruction

        trip_model = self._draw_trip_model()
        trip_mean = trip_model.mean

        # Every branch category is realised *inside* the inner loop so
        # each site enjoys the loop's reuse, exactly as in compiled
        # code.  Fractional per-iteration expectations (e.g. 0.3 calls
        # per iteration) become "30% of kernels carry a call in their
        # loop body" through error-diffusion rounding.
        if_count = self._if_diffuser.take(
            max(0.0, plan.conditionals_per_iteration - 1.0)
        )
        call_count = self._call_diffuser.take(
            plan.branches_per_iteration * profile.call_fraction
        )
        indirect_call_count = self._indirect_call_diffuser.take(
            plan.branches_per_iteration * profile.indirect_call_fraction
        )
        indirect_jump_count = self._indirect_jump_diffuser.take(
            plan.branches_per_iteration * profile.indirect_branch_fraction
        )
        jump_count = self._jump_diffuser.take(
            plan.branches_per_iteration * profile.unconditional_fraction
        )
        syscall_count = self._syscall_diffuser.take(
            plan.branches_per_iteration * profile.syscall_fraction * trip_mean
        )

        # A little straight-line code around the loop (loop setup and
        # result write-back); it dilutes branch density slightly, so the
        # iteration budget is deflated by its per-iteration share.
        outer_code = int(self.rng.integers(2, 7))
        outer_extra = float(outer_code) + syscall_count * 2.0

        inner_body = self._build_iteration_body(
            if_count,
            call_count,
            indirect_call_count,
            indirect_jump_count,
            jump_count,
            budget_deflation=outer_extra / max(1.0, trip_mean),
            trip_count=max(2, int(round(trip_mean))),
            regular_loop=trip_model.is_regular,
        )
        inner_loop = Loop(inner_body, trip_model, latch_instructions=3, bytes_per_instruction=bpi)

        outer_regions: List[Region] = [
            CodeRegion(outer_code, bytes_per_instruction=bpi),
            inner_loop,
        ]
        for _ in range(syscall_count):
            outer_regions.append(SyscallRegion(bytes_per_instruction=bpi))
        return Sequence(outer_regions)

    def _build_iteration_body(
        self,
        if_count: int,
        call_count: int,
        indirect_call_count: int,
        indirect_jump_count: int,
        jump_count: int,
        budget_deflation: float = 0.0,
        trip_count: int = 8,
        regular_loop: bool = True,
    ) -> Region:
        profile = self.profile
        plan = self.plan
        bpi = profile.bytes_per_instruction

        leaf_cost = 14.0  # call block + average leaf body + return
        budget = max(4.0, plan.instructions_per_iteration - budget_deflation)
        fixed_cost = (
            3.0  # latch
            + jump_count
            + call_count * leaf_cost
            + indirect_call_count * leaf_cost
            + indirect_jump_count * 10.0
        )
        available = max(float(if_count + 1), budget - fixed_cost)

        if_regions: List[Region] = []
        if_body_cost = 0.0
        if if_count > 0:
            per_if_budget = max(2, int(round(available * 0.35 / if_count)))
            for _ in range(if_count):
                region, expected = self._make_if(per_if_budget, trip_count, regular_loop)
                if_regions.append(region)
                if_body_cost += expected
        fill = max(float(if_count + 1), available - if_body_cost)

        segments = if_count + 1
        fill_sizes = self._spread_fill(fill, segments)

        regions: List[Region] = []
        for position in range(segments):
            regions.append(CodeRegion(fill_sizes[position], bytes_per_instruction=bpi))
            if position < if_count:
                regions.append(if_regions[position])
        for _ in range(call_count):
            regions.append(CallRegion(self._pick_leaf(), bytes_per_instruction=bpi))
        for _ in range(indirect_call_count):
            regions.append(self._make_indirect_call())
        for _ in range(indirect_jump_count):
            regions.append(self._make_indirect_jump())
        for _ in range(jump_count):
            regions.append(JumpRegion(bytes_per_instruction=bpi))
        return Sequence(regions)

    def _spread_fill(self, fill: float, segments: int) -> List[int]:
        """Split the fill budget into jittered per-segment block sizes."""
        base = fill / segments
        sizes: List[int] = []
        remaining = fill
        for position in range(segments):
            if position == segments - 1:
                size = remaining
            else:
                size = base * float(self.rng.uniform(0.7, 1.3))
                size = min(size, remaining - (segments - position - 1))
            size = max(1, int(round(size)))
            sizes.append(size)
            remaining -= size
        return sizes

    def _make_if(
        self, body_budget: int, trip_count: int = 8, regular_loop: bool = True
    ) -> Tuple[If, float]:
        """Create one conditional site with the profile's bias mix.

        The bias class (balanced / moderate / strong) sets how often the
        site goes its dominant way; the outcome *style* sets how
        predictable the sequence is: deterministic, periodic with a
        period tied to the enclosing loop, long bursty runs, or (rarely)
        independent random draws.
        """
        profile = self.profile
        bpi = profile.bytes_per_instruction
        draw = self.rng.random()
        if draw < profile.balanced_if_share:
            dominant_probability = float(self.rng.uniform(0.50, 0.62))
            strong = False
        elif draw < profile.balanced_if_share + profile.moderate_if_share:
            dominant_probability = float(self.rng.uniform(0.70, 0.88))
            strong = False
        else:
            dominant_probability = float(self.rng.uniform(0.93, 0.99))
            strong = True

        dominant_taken = self.rng.random() < profile.if_taken_dominant_share
        probability_then = (
            1.0 - dominant_probability if dominant_taken else dominant_probability
        )

        pattern = self._draw_outcome_pattern(
            probability_then, strong, trip_count, regular_loop
        )

        then_size = max(2, int(round(body_budget)))
        has_else = self.rng.random() < 0.15
        orelse: Optional[Region] = None
        else_size = 0
        if has_else:
            else_size = max(1, then_size // 2)
            orelse = CodeRegion(else_size, bytes_per_instruction=bpi)
        then_region = CodeRegion(then_size, bytes_per_instruction=bpi)
        region = If(
            probability_then,
            then_region,
            orelse=orelse,
            condition_instructions=2,
            bytes_per_instruction=bpi,
            pattern=pattern,
        )
        expected = 2.0 + probability_then * then_size
        if orelse is not None:
            expected += (1.0 - probability_then) * else_size + probability_then * 1.0
        return region, expected

    def _draw_outcome_pattern(
        self,
        probability_then: float,
        strong: bool,
        trip_count: int,
        regular_loop: bool,
    ) -> Optional[List[bool]]:
        """Draw the deterministic outcome sequence of a conditional site.

        Returns ``None`` for the small share of sites that stay
        independently random (truly data-dependent branches).  Periodic
        sites use a period that divides the enclosing loop's trip count,
        modelling conditions on the loop index (boundary handling,
        stride checks) whose outcome repeats at the same loop position;
        this is what makes global history informative for them.
        """
        if self.rng.random() < _RANDOM_IF_SHARE:
            return None
        if strong:
            if self.rng.random() < _DETERMINISTIC_STRONG_SHARE:
                return [probability_then >= 0.5]
            return self._bursty_pattern(probability_then)
        if self.rng.random() < _PERIODIC_IF_SHARE:
            return self._periodic_pattern(probability_then, trip_count, regular_loop)
        return self._bursty_pattern(probability_then)

    def _periodic_pattern(
        self, probability_then: float, trip_count: int, regular_loop: bool
    ) -> List[bool]:
        """Loop-index-correlated repeating pattern."""
        if regular_loop:
            divisors = [d for d in range(2, trip_count + 1) if trip_count % d == 0]
            period = int(self.rng.choice(divisors)) if divisors else max(2, trip_count)
        else:
            period = int(self.rng.integers(2, 5))
        then_executions = min(period, max(0, int(round(period * probability_then))))
        outcomes = [True] * then_executions + [False] * (period - then_executions)
        self.rng.shuffle(outcomes)
        return outcomes

    def _bursty_pattern(self, probability_then: float) -> List[bool]:
        """Long run-structured pattern (phases of mostly-then / mostly-else).

        Runs are long enough that the outcome is stable within one loop
        visit and usually across a few visits, so simple counters only
        mispredict at run boundaries.
        """
        probability_then = min(0.98, max(0.02, probability_then))
        mean_then_run = min(48.0, max(2.0, 30.0 * probability_then))
        mean_else_run = min(48.0, max(2.0, 30.0 * (1.0 - probability_then)))
        length = int(self.rng.integers(80, 200))
        outcomes: List[bool] = []
        value = self.rng.random() < probability_then
        while len(outcomes) < length:
            mean_run = mean_then_run if value else mean_else_run
            run = 1 + int(self.rng.geometric(1.0 / mean_run))
            outcomes.extend([value] * run)
            value = not value
        return outcomes[:length]

    def _make_indirect_call(self) -> IndirectCallRegion:
        count = min(len(self.leaf_functions), int(self.rng.integers(2, 5)))
        indices = self.rng.choice(len(self.leaf_functions), size=count, replace=False)
        callees = [self.leaf_functions[int(i)] for i in indices]
        weights = [float(w) for w in self.rng.uniform(0.5, 2.0, size=count)]
        return IndirectCallRegion(
            callees, weights, bytes_per_instruction=self.profile.bytes_per_instruction
        )

    def _make_indirect_jump(self) -> IndirectJumpRegion:
        bpi = self.profile.bytes_per_instruction
        case_count = int(self.rng.integers(3, 7))
        cases = [
            CodeRegion(int(self.rng.integers(3, 9)), bytes_per_instruction=bpi)
            for _ in range(case_count)
        ]
        weights = [float(w) for w in self.rng.uniform(0.3, 2.0, size=case_count)]
        return IndirectJumpRegion(cases, weights, bytes_per_instruction=bpi)

    def _draw_trip_model(self) -> TripCountModel:
        profile = self.profile
        mean = profile.avg_trip_count
        trip = max(2, int(round(mean * float(self.rng.uniform(0.55, 1.6)))))
        if self.rng.random() < profile.loop_regularity:
            return FixedTripCount(trip)
        # Irregular loops vary around their typical count (problem sizes
        # change slightly between invocations) rather than across the
        # whole range; that defeats a loop predictor's exact-count match
        # without turning the exit branch into pure noise.
        low = max(2, trip - max(1, trip // 8))
        high = max(low + 1, trip + max(1, trip // 8))
        return UniformTripCount(low, high)

class SyntheticWorkload:
    """A fully built workload: spec, program and schedule."""

    def __init__(self, spec: WorkloadSpec, program: Program, schedule: ExecutionSchedule) -> None:
        self.spec = spec
        self.program = program
        self.schedule = schedule

    @property
    def name(self) -> str:
        """Benchmark name."""
        return self.spec.name

    @property
    def suite(self):
        """Benchmark suite."""
        return self.spec.suite

    @property
    def compiled(self) -> CompiledSchedule:
        """The workload's program + schedule lowered to segment IR.

        Compilation is memoized alongside the built workload (the cache
        lives on the program object), so every trace generation of this
        workload -- any length, any seed -- reuses one compiled form.
        """
        return compile_schedule(self.program, self.schedule)

    def trace(self, instructions: int, seed: int = 0) -> Trace:
        """Generate a dynamic trace of ``instructions`` instructions.

        Every call generates anew; the one in-memory trace cache is
        :func:`repro.workloads.trace_cache.workload_trace`.  Generation
        runs through the compiled segment engine, which is bit-identical
        to the reference tree walk
        (:class:`~repro.trace.execution.TraceGenerator` over the same
        program, schedule and run seed).
        """
        run_seed = self.spec.seed ^ (seed * 0x9E3779B1)
        return self.compiled.run(int(instructions), seed=run_seed, name=self.spec.name)

    def static_code_bytes(self) -> int:
        """Static footprint of the synthetic binary."""
        return self.program.static_code_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyntheticWorkload({self.spec.name!r}, suite={self.spec.suite.label!r})"


def _measure_pass_instructions(function: Function, seed: int) -> int:
    """Instructions executed by one invocation of a section function."""
    ctx = CountingContext(np.random.default_rng(seed), max_instructions=10**12)
    function.body.execute(ctx)
    ctx.emit(function.return_block, taken=True)
    return max(1, ctx.instructions_emitted)


def _build_cold_code(spec: WorkloadSpec, rng: np.random.Generator) -> List[Function]:
    """Library/startup code that contributes only to the static footprint."""
    cold_bytes = spec.cold_code_kb * 1024.0
    functions: List[Function] = []
    chunk_index = 0
    while cold_bytes > 0:
        chunk = min(_COLD_CHUNK_BYTES, cold_bytes)
        bpi = spec.serial.bytes_per_instruction
        instructions = max(4, int(round(chunk / bpi)))
        body = CodeRegion(instructions, bytes_per_instruction=bpi)
        functions.append(Function(name=f"{spec.name}_cold{chunk_index}", body=body))
        cold_bytes -= chunk
        chunk_index += 1
    return functions


@functools.lru_cache(maxsize=None)
def build_workload(spec: WorkloadSpec) -> SyntheticWorkload:
    """Build the synthetic program and execution schedule for a workload.

    The result is cached so repeated experiments share one program per
    workload, whatever trace length they ask of it.
    """
    rng = np.random.default_rng(spec.seed)
    hot_functions: List[Function] = []
    leaf_functions: List[Function] = []

    if spec.is_sequential:
        builder = _SectionBuilder(f"{spec.name}_main", spec.serial, rng)
        main_function, leaves = builder.build(spec.serial.hot_code_kb)
        hot_functions.append(main_function)
        leaf_functions.extend(leaves)
        steady = [Phase(main_function, CodeSection.SERIAL)]
    else:
        parallel_builder = _SectionBuilder(f"{spec.name}_parallel", spec.parallel, rng)
        parallel_function, parallel_leaves = parallel_builder.build(
            spec.parallel.hot_code_kb
        )
        parallel_work = _measure_pass_instructions(
            parallel_function, seed=spec.seed ^ 0x5EED
        )
        hot_functions.append(parallel_function)
        leaf_functions.extend(parallel_leaves)

        serial_fraction = spec.serial_fraction
        if serial_fraction <= 0.0:
            steady = [Phase(parallel_function, CodeSection.PARALLEL)]
        else:
            # Instructions the serial sections should contribute for every
            # parallel pass, according to the workload's serial share.
            serial_target = parallel_work * serial_fraction / (1.0 - serial_fraction)
            # Each serial hot instruction executes roughly once per inner
            # loop trip per pass, so the serial hot region must be small
            # enough that its loops still iterate within the serial budget.
            reuse = max(2.0, spec.serial.avg_trip_count)
            reusable_kb = (
                serial_target * spec.serial.bytes_per_instruction / (1024.0 * reuse)
            )
            serial_hot_kb = min(
                spec.serial.hot_code_kb, max(reusable_kb, _MIN_SERIAL_HOT_KB)
            )
            serial_builder = _SectionBuilder(f"{spec.name}_serial", spec.serial, rng)
            serial_function, serial_leaves = serial_builder.build(serial_hot_kb)
            serial_work = _measure_pass_instructions(
                serial_function, seed=spec.seed ^ 0xC0FFEE
            )
            hot_functions.append(serial_function)
            leaf_functions.extend(serial_leaves)
            if serial_work <= serial_target:
                serial_repeat = max(1, int(round(serial_target / serial_work)))
                parallel_repeat = 1
            else:
                # The smallest useful serial pass still exceeds the target;
                # schedule several parallel passes per serial pass instead.
                serial_repeat = 1
                parallel_repeat = int(
                    round(
                        serial_work
                        * (1.0 - serial_fraction)
                        / (serial_fraction * parallel_work)
                    )
                )
                parallel_repeat = min(_MAX_PARALLEL_REPEAT, max(1, parallel_repeat))
            steady = [
                Phase(serial_function, CodeSection.SERIAL, repeat=serial_repeat),
                Phase(parallel_function, CodeSection.PARALLEL, repeat=parallel_repeat),
            ]

    cold_functions = _build_cold_code(spec, rng)
    program = Program(spec.name, hot_functions + leaf_functions + cold_functions)
    layout_program(program)
    schedule = ExecutionSchedule(steady=steady)
    return SyntheticWorkload(spec, program, schedule)
