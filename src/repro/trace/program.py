"""Structured synthetic program model.

A :class:`Program` is a collection of :class:`Function` objects, each of
which owns a tree of :class:`Region` nodes.  Regions model the control
structures a compiler emits for scientific and integer codes: straight
line code, counted and data-dependent loops, conditionals, direct and
indirect calls, indirect jumps (switch dispatch), and system calls.

Executing the tree (see :mod:`repro.trace.execution`) produces the
dynamic basic-block stream from which every workload characteristic in
the paper is measured.  Crucially, the characteristics *emerge* from the
program structure -- loop back-edges produce backward-taken biased
branches, loop-resident hot code produces small dynamic footprints, long
loop bodies produce long basic blocks -- rather than being injected into
the analysis results directly.

This is the only module that knows the region kinds.  Every walk the
trace layer makes over a tree is a method of the region classes: block
enumeration and target resolution for layout, execution for the
reference generator, counting for synthesis, and the static-emission
analysis and lowering the trace compiler dispatches through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence as Seq, Tuple

from repro.trace.basic_block import BasicBlock
from repro.trace.instruction import BranchKind

#: What a region that draws nothing emits per execution: ``(events,
#: instructions, call depth)``, the depth being the deepest nesting of
#: calls the emission makes.
StaticSize = Tuple[int, int, int]


class TripCountModel:
    """Model of how many iterations a loop executes per invocation."""

    __slots__ = ()

    def draw(self, rng) -> int:
        """Number of iterations for one invocation of the loop."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """Expected iterations per invocation."""
        raise NotImplementedError

    @property
    def is_regular(self) -> bool:
        """Whether the trip count is the same on every invocation."""
        return False


class FixedTripCount(TripCountModel):
    """Loop that always runs the same number of iterations.

    These are the loops a loop branch predictor captures exactly.
    """

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError("trip count must be at least 1")
        self.count = int(count)

    def draw(self, rng) -> int:
        return self.count

    @property
    def mean(self) -> float:
        return float(self.count)

    @property
    def is_regular(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedTripCount({self.count})"


class UniformTripCount(TripCountModel):
    """Loop whose trip count is drawn uniformly per invocation."""

    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int) -> None:
        if low < 1 or high < low:
            raise ValueError("need 1 <= low <= high")
        self.low = int(low)
        self.high = int(high)

    def draw(self, rng) -> int:
        return int(rng.integers(self.low, self.high + 1))

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformTripCount({self.low}, {self.high})"


class GeometricTripCount(TripCountModel):
    """Loop whose trip count follows a (shifted) geometric distribution.

    Models data-dependent while-loops whose exit condition is hard for a
    loop predictor to learn.
    """

    __slots__ = ("mean_iterations", "minimum")

    def __init__(self, mean_iterations: float, minimum: int = 1) -> None:
        if mean_iterations < minimum:
            raise ValueError("mean must be at least the minimum trip count")
        self.mean_iterations = float(mean_iterations)
        self.minimum = int(minimum)

    def draw(self, rng) -> int:
        extra_mean = self.mean_iterations - self.minimum
        if extra_mean <= 0:
            return self.minimum
        p = 1.0 / (extra_mean + 1.0)
        return self.minimum + int(rng.geometric(p)) - 1

    @property
    def mean(self) -> float:
        return self.mean_iterations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeometricTripCount({self.mean_iterations}, min={self.minimum})"


def _block(instructions: int, bytes_per_instruction: float, terminator: BranchKind) -> BasicBlock:
    """A block of ``instructions`` sized at ``bytes_per_instruction``."""
    size = max(instructions, int(round(instructions * bytes_per_instruction)))
    return BasicBlock(instructions, size, terminator)


def _jump_block(bytes_per_instruction: float) -> BasicBlock:
    """A one-instruction unconditional jump."""
    return BasicBlock(
        1, max(1, int(round(bytes_per_instruction))), BranchKind.UNCONDITIONAL_DIRECT
    )


class Region:
    """A node of the structured control-flow tree."""

    __slots__ = ()

    # -- blocks, in layout order ------------------------------------------

    def collect_blocks(self, out: List[BasicBlock]) -> None:
        """Append every basic block this region owns to ``out``."""
        raise NotImplementedError

    def blocks(self) -> Iterator[BasicBlock]:
        """All basic blocks owned by this region, in layout order."""
        out: List[BasicBlock] = []
        self.collect_blocks(out)
        return iter(out)

    def first_block(self) -> Optional[BasicBlock]:
        """The region's first block in layout order, or None if empty."""
        raise NotImplementedError

    def last_block(self) -> Optional[BasicBlock]:
        """The region's last block in layout order, or None if empty."""
        raise NotImplementedError

    def code_bytes(self) -> int:
        """Static code size of the region (excluding called functions)."""
        return sum(block.size_bytes for block in self.blocks())

    def instruction_count(self) -> int:
        """Static instruction count of the region."""
        return sum(block.num_instructions for block in self.blocks())

    # -- layout ---------------------------------------------------------------

    def resolve_targets(self) -> None:
        """Fill in the statically-known taken targets (after addressing).

        Fall-through code, syscalls and indirect calls have none.
        """

    # -- execution and counting ----------------------------------------------

    def execute(self, ctx) -> None:
        """Emit the dynamic block events for one execution of the region.

        ``ctx`` is an :class:`repro.trace.execution.ExecutionContext`.
        """
        raise NotImplementedError

    def count(self, counter) -> int:
        """Instructions one execution runs, counted without emitting.

        ``counter`` is a :class:`repro.trace.execution.CountingContext`;
        the region draws from its RNG and advances its pattern positions
        exactly as :meth:`execute` does.
        """
        raise NotImplementedError

    def _static_size(self, sizes: Dict[int, Optional[StaticSize]]) -> Optional[StaticSize]:
        """This region's :data:`StaticSize`, or None; see :func:`static_size`."""
        return None

    # -- trace compiler (repro.trace.compiler) --------------------------------

    def lower(self, compiler) -> object:
        """This (non-static) region as a node of the compiled segment IR."""
        return compiler.literal(self)

    def is_flat(self, compiler) -> bool:
        """Whether a loop body made of this region flattens into sites."""
        return False

    def flatten(self, compiler, sites: list) -> bool:
        """Append this region's flat-loop sites to ``sites``, if it has any."""
        return False


_UNSIZED = object()


def static_size(
    region: Region, sizes: Dict[int, Optional[StaticSize]]
) -> Optional[StaticSize]:
    """What ``region`` emits when executing it draws nothing.

    A subtree is static when no region in it draws from the RNG, every
    pattern site in it has a single outcome, and every loop in it runs
    a fixed trip count over a static body; its :data:`StaticSize` then
    holds on every execution that starts at least that call depth below
    the limit.  Anything else, including a call cycle (whose emission
    depends on the depth limit), is ``None``.  ``sizes`` memoizes the
    answers by ``id(region)``, so it must not outlive the tree.
    """
    key = id(region)
    size = sizes.get(key, _UNSIZED)
    if size is _UNSIZED:
        sizes[key] = None  # reached again while sizing: a call cycle
        size = sizes[key] = region._static_size(sizes)
    return size


class _BlockRegion(Region):
    """A region of exactly one block."""

    __slots__ = ("block",)

    def collect_blocks(self, out: List[BasicBlock]) -> None:
        out.append(self.block)

    def first_block(self) -> Optional[BasicBlock]:
        return self.block

    last_block = first_block

    def count(self, counter) -> int:
        return self.block.num_instructions

    def _static_size(self, sizes) -> Optional[StaticSize]:
        return (1, self.block.num_instructions, 0)


class CodeRegion(_BlockRegion):
    """Straight-line code: a single fall-through basic block."""

    __slots__ = ()

    def __init__(self, num_instructions: int, bytes_per_instruction: float = 4.0) -> None:
        self.block = _block(num_instructions, bytes_per_instruction, BranchKind.NONE)

    def execute(self, ctx) -> None:
        ctx.emit(self.block, taken=False)


class JumpRegion(_BlockRegion):
    """An unconditional direct jump.

    Models the jumps compilers emit at join points and block reorderings;
    the jump target is the next sequential address, i.e. a short forward
    jump, which is how such jumps overwhelmingly resolve in compiled
    code.
    """

    __slots__ = ()

    def __init__(self, bytes_per_instruction: float = 4.0) -> None:
        self.block = _jump_block(bytes_per_instruction)

    def resolve_targets(self) -> None:
        self.block.taken_target = self.block.end_address

    def execute(self, ctx) -> None:
        ctx.emit(self.block, taken=True)


class SyscallRegion(_BlockRegion):
    """A system call (counted as a branch-class instruction by Pin)."""

    __slots__ = ()

    def __init__(self, instructions: int = 2, bytes_per_instruction: float = 4.0) -> None:
        self.block = _block(instructions, bytes_per_instruction, BranchKind.SYSCALL)

    def execute(self, ctx) -> None:
        ctx.emit(self.block, taken=True)


class Sequence(Region):
    """A sequence of regions executed one after the other."""

    __slots__ = ("regions",)

    def __init__(self, regions: Seq[Region]) -> None:
        self.regions = list(regions)

    def collect_blocks(self, out: List[BasicBlock]) -> None:
        for region in self.regions:
            region.collect_blocks(out)

    def first_block(self) -> Optional[BasicBlock]:
        for region in self.regions:
            block = region.first_block()
            if block is not None:
                return block
        return None

    def last_block(self) -> Optional[BasicBlock]:
        for region in reversed(self.regions):
            block = region.last_block()
            if block is not None:
                return block
        return None

    def resolve_targets(self) -> None:
        for region in self.regions:
            region.resolve_targets()

    def execute(self, ctx) -> None:
        for region in self.regions:
            region.execute(ctx)
            if ctx.exhausted:
                return

    def count(self, counter) -> int:
        count = counter.count
        total = 0
        for region in self.regions:
            total += count(region)
        return total

    def _static_size(self, sizes) -> Optional[StaticSize]:
        events = instructions = depth = 0
        for region in self.regions:
            size = static_size(region, sizes)
            if size is None:
                return None
            events += size[0]
            instructions += size[1]
            if size[2] > depth:
                depth = size[2]
        return (events, instructions, depth)

    def lower(self, compiler) -> object:
        return compiler.compile_sequence(self)

    def is_flat(self, compiler) -> bool:
        return all(compiler.body_is_flat(region) for region in self.regions)

    def flatten(self, compiler, sites: list) -> bool:
        return all(compiler.flatten_into(region, sites) for region in self.regions)


class Loop(Region):
    """A natural loop: body followed by a conditional backward branch.

    The latch block models the compare-and-branch at the bottom of the
    loop; its taken target is the first block of the body, which the
    layout pass places *before* the latch, making the taken branch a
    backward branch exactly as in compiled loop code.
    """

    __slots__ = ("body", "trip_count", "latch")

    def __init__(
        self,
        body: Region,
        trip_count: TripCountModel,
        latch_instructions: int = 3,
        bytes_per_instruction: float = 4.0,
    ) -> None:
        self.body = body
        self.trip_count = trip_count
        self.latch = _block(
            latch_instructions, bytes_per_instruction, BranchKind.CONDITIONAL_DIRECT
        )

    def collect_blocks(self, out: List[BasicBlock]) -> None:
        self.body.collect_blocks(out)
        out.append(self.latch)

    def first_block(self) -> Optional[BasicBlock]:
        block = self.body.first_block()
        return self.latch if block is None else block

    def last_block(self) -> Optional[BasicBlock]:
        return self.latch

    def resolve_targets(self) -> None:
        """Point the latch back-edge at the start of the loop body."""
        self.body.resolve_targets()
        # A degenerate empty-body loop branches to the latch itself.
        self.latch.taken_target = self.first_block().address

    def execute(self, ctx) -> None:
        iterations = self.trip_count.draw(ctx.rng)
        for index in range(iterations):
            self.body.execute(ctx)
            ctx.emit(self.latch, taken=index < iterations - 1)
            if ctx.exhausted:
                return

    def count(self, counter) -> int:
        iterations = self.trip_count.draw(counter.rng)
        latch = self.latch.num_instructions
        body = self.body
        fixed = counter.fixed(body)
        if fixed is not None:
            return iterations * (fixed + latch)
        count = counter.count
        total = iterations * latch
        for _ in range(iterations):
            total += count(body)
        return total

    def _static_size(self, sizes) -> Optional[StaticSize]:
        if not isinstance(self.trip_count, FixedTripCount):
            return None
        size = static_size(self.body, sizes)
        if size is None:
            return None
        trips = self.trip_count.count
        return (
            trips * (size[0] + 1),
            trips * (size[1] + self.latch.num_instructions),
            size[2],
        )

    def lower(self, compiler) -> object:
        return compiler.compile_loop(self)


class _ChoiceRegion(Region):
    """A region that runs one of several outcomes per execution.

    An RNG draw or a pattern step picks the outcome (:meth:`choose`);
    :meth:`run_outcome` emits it.  The trace compiler records each
    outcome through :meth:`run_outcome` as one variant of a flat-loop
    choice site, so reference and compiled emission share one code path.
    """

    __slots__ = ()

    def choose(self, ctx) -> int:
        """Draw (or step the pattern to) this execution's outcome."""
        raise NotImplementedError

    def run_outcome(self, ctx, outcome: int) -> None:
        """Emit one execution that takes ``outcome``."""
        raise NotImplementedError

    def count_outcome(self, counter, outcome: int) -> int:
        """Instructions of one execution that takes ``outcome``."""
        raise NotImplementedError

    def outcome_regions(self) -> List[Optional[Region]]:
        """The subtree each outcome runs (None where it runs none)."""
        raise NotImplementedError

    def chooser(self) -> Tuple[str, object]:
        """How outcomes are picked: ``("pattern", outcome per position)``,
        ``("threshold", p)`` (outcome 0 when a draw is below ``p``) or
        ``("weights", normalised weights)``."""
        raise NotImplementedError

    def execute(self, ctx) -> None:
        self.run_outcome(ctx, self.choose(ctx))

    def count(self, counter) -> int:
        return self.count_outcome(counter, self.choose(counter))

    def is_flat(self, compiler) -> bool:
        return compiler.choice_fits(self)

    def flatten(self, compiler, sites: list) -> bool:
        return compiler.add_choice_site(self, sites)


class If(_ChoiceRegion):
    """A conditional region (``if``/``else``).

    ``probability_then`` is the probability that the *then* region
    executes.  The generated conditional branch is taken when the then
    region is skipped, matching the usual compiler idiom of branching
    forward over the body; a strongly biased source-level condition thus
    produces a strongly biased (mostly not-taken or mostly taken)
    dynamic branch.

    When ``pattern`` is given (a sequence of booleans meaning "then
    executes"), outcomes cycle through it deterministically instead of
    being drawn independently.  Patterned conditionals model branches
    whose outcome correlates with recent history (e.g. boundary checks
    inside regular grids), which history-based predictors can learn but
    a simple bimodal counter cannot.

    Outcome 0 runs the then region, outcome 1 the else region (if any).
    """

    __slots__ = ("probability_then", "then", "orelse", "pattern", "condition", "skip_else")

    def __init__(
        self,
        probability_then: float,
        then: Region,
        orelse: Optional[Region] = None,
        condition_instructions: int = 2,
        bytes_per_instruction: float = 4.0,
        pattern: Optional[Seq[bool]] = None,
    ) -> None:
        if not 0.0 <= probability_then <= 1.0:
            raise ValueError("probability_then must be within [0, 1]")
        self.probability_then = probability_then
        self.then = then
        self.orelse = orelse
        self.pattern = list(pattern) if pattern is not None else None
        if self.pattern is not None and not self.pattern:
            raise ValueError("pattern must contain at least one outcome")
        self.condition = _block(
            condition_instructions, bytes_per_instruction, BranchKind.CONDITIONAL_DIRECT
        )
        self.skip_else: Optional[BasicBlock] = None
        if orelse is not None:
            self.skip_else = _jump_block(bytes_per_instruction)

    def collect_blocks(self, out: List[BasicBlock]) -> None:
        out.append(self.condition)
        self.then.collect_blocks(out)
        if self.skip_else is not None:
            out.append(self.skip_else)
        if self.orelse is not None:
            self.orelse.collect_blocks(out)

    def first_block(self) -> Optional[BasicBlock]:
        return self.condition

    def last_block(self) -> Optional[BasicBlock]:
        if self.orelse is not None:
            block = self.orelse.last_block()
            if block is not None:
                return block
        if self.skip_else is not None:
            return self.skip_else
        block = self.then.last_block()
        return self.condition if block is None else block

    def resolve_targets(self) -> None:
        """Point the condition branch past the then region."""
        self.then.resolve_targets()
        if self.orelse is None:
            self.condition.taken_target = _end_address(self.then)
            return
        self.orelse.resolve_targets()
        join_address = _end_address(self.orelse)
        self.condition.taken_target = self.orelse.first_block().address
        self.skip_else.taken_target = join_address

    def choose(self, ctx) -> int:
        if self.pattern is not None:
            # Pattern progress lives in the execution context so repeated
            # trace generations from the same program stay reproducible.
            take_then = self.pattern[ctx.next_pattern_index(self, len(self.pattern))]
        else:
            take_then = ctx.rng.random() < self.probability_then
        return 0 if take_then else 1

    def run_outcome(self, ctx, outcome: int) -> None:
        ctx.emit(self.condition, taken=outcome != 0)
        if outcome == 0:
            self.then.execute(ctx)
            if self.skip_else is not None:
                ctx.emit(self.skip_else, taken=True)
        elif self.orelse is not None:
            self.orelse.execute(ctx)

    def count_outcome(self, counter, outcome: int) -> int:
        total = self.condition.num_instructions
        if outcome == 0:
            total += counter.count(self.then)
            if self.skip_else is not None:
                total += self.skip_else.num_instructions
        elif self.orelse is not None:
            total += counter.count(self.orelse)
        return total

    def outcome_regions(self) -> List[Optional[Region]]:
        return [self.then, self.orelse]

    def chooser(self) -> Tuple[str, object]:
        if self.pattern is None:
            return ("threshold", self.probability_then)
        return ("pattern", [0 if take_then else 1 for take_then in self.pattern])

    def _static_size(self, sizes) -> Optional[StaticSize]:
        # Only single-outcome patterns are static (the pattern position
        # of a length-1 pattern never changes).
        if self.pattern is None or len(self.pattern) != 1:
            return None
        condition = self.condition.num_instructions
        if self.pattern[0]:
            size = static_size(self.then, sizes)
            if size is None:
                return None
            if self.skip_else is None:
                return (1 + size[0], condition + size[1], size[2])
            return (
                2 + size[0],
                condition + size[1] + self.skip_else.num_instructions,
                size[2],
            )
        if self.orelse is None:
            return (1, condition, 0)
        size = static_size(self.orelse, sizes)
        return None if size is None else (1 + size[0], condition + size[1], size[2])


class CallRegion(Region):
    """A direct call site to another function."""

    __slots__ = ("callee", "call_block")

    def __init__(
        self,
        callee: "Function",
        call_instructions: int = 2,
        bytes_per_instruction: float = 4.0,
    ) -> None:
        self.callee = callee
        self.call_block = _block(call_instructions, bytes_per_instruction, BranchKind.CALL)

    def collect_blocks(self, out: List[BasicBlock]) -> None:
        out.append(self.call_block)

    def first_block(self) -> Optional[BasicBlock]:
        return self.call_block

    last_block = first_block

    def resolve_targets(self) -> None:
        self.call_block.taken_target = self.callee.entry_address

    def execute(self, ctx) -> None:
        ctx.emit(self.call_block, taken=True, target=self.callee.entry_address)
        ctx.call(self.callee, return_to=self.call_block.fallthrough_address)

    def count(self, counter) -> int:
        return self.call_block.num_instructions + counter.call(self.callee)

    def _static_size(self, sizes) -> Optional[StaticSize]:
        size = static_size(self.callee.body, sizes)
        if size is None:
            return None
        # The call block, the callee's body, and its return.
        return (
            size[0] + 2,
            self.call_block.num_instructions
            + size[1]
            + self.callee.return_block.num_instructions,
            size[2] + 1,
        )


class IndirectCallRegion(_ChoiceRegion):
    """An indirect call site that dispatches among several callees.

    Outcome ``i`` calls ``callees[i]``.
    """

    __slots__ = ("callees", "weights", "call_block")

    def __init__(
        self,
        callees: Seq["Function"],
        weights: Optional[Seq[float]] = None,
        call_instructions: int = 2,
        bytes_per_instruction: float = 4.0,
    ) -> None:
        if not callees:
            raise ValueError("an indirect call needs at least one callee")
        self.callees = list(callees)
        self.weights = _normalise_weights(weights, len(self.callees))
        self.call_block = _block(
            call_instructions, bytes_per_instruction, BranchKind.INDIRECT_CALL
        )

    def collect_blocks(self, out: List[BasicBlock]) -> None:
        out.append(self.call_block)

    def first_block(self) -> Optional[BasicBlock]:
        return self.call_block

    last_block = first_block

    def choose(self, ctx) -> int:
        return _weighted_choice(ctx.rng, self.weights)

    def run_outcome(self, ctx, outcome: int) -> None:
        callee = self.callees[outcome]
        ctx.emit(self.call_block, taken=True, target=callee.entry_address)
        ctx.call(callee, return_to=self.call_block.fallthrough_address)

    def count_outcome(self, counter, outcome: int) -> int:
        return self.call_block.num_instructions + counter.call(self.callees[outcome])

    def outcome_regions(self) -> List[Optional[Region]]:
        return [callee.body for callee in self.callees]

    def chooser(self) -> Tuple[str, object]:
        return ("weights", self.weights)


class IndirectJumpRegion(_ChoiceRegion):
    """Switch-style dispatch through an indirect jump.

    Outcome ``i`` runs ``cases[i]``.
    """

    __slots__ = ("cases", "weights", "dispatch", "case_exits")

    def __init__(
        self,
        cases: Seq[Region],
        weights: Optional[Seq[float]] = None,
        dispatch_instructions: int = 3,
        bytes_per_instruction: float = 4.0,
    ) -> None:
        if not cases:
            raise ValueError("an indirect jump needs at least one case")
        self.cases = list(cases)
        self.weights = _normalise_weights(weights, len(self.cases))
        self.dispatch = _block(
            dispatch_instructions, bytes_per_instruction, BranchKind.INDIRECT_BRANCH
        )
        self.case_exits = [_jump_block(bytes_per_instruction) for _ in self.cases]

    def collect_blocks(self, out: List[BasicBlock]) -> None:
        out.append(self.dispatch)
        for case, exit_block in zip(self.cases, self.case_exits):
            case.collect_blocks(out)
            out.append(exit_block)

    def first_block(self) -> Optional[BasicBlock]:
        return self.dispatch

    def last_block(self) -> Optional[BasicBlock]:
        return self.case_exits[-1]

    def resolve_targets(self) -> None:
        """Point each case's trailing jump at the join after the dispatch."""
        for case in self.cases:
            case.resolve_targets()
        join_address = self.case_exits[-1].end_address
        for exit_block in self.case_exits:
            exit_block.taken_target = join_address

    def choose(self, ctx) -> int:
        return _weighted_choice(ctx.rng, self.weights)

    def run_outcome(self, ctx, outcome: int) -> None:
        case = self.cases[outcome]
        case_entry = case.first_block()
        target = case_entry.address if case_entry is not None else None
        ctx.emit(self.dispatch, taken=True, target=target)
        case.execute(ctx)
        ctx.emit(self.case_exits[outcome], taken=True)

    def count_outcome(self, counter, outcome: int) -> int:
        return (
            self.dispatch.num_instructions
            + counter.count(self.cases[outcome])
            + self.case_exits[outcome].num_instructions
        )

    def outcome_regions(self) -> List[Optional[Region]]:
        return self.cases

    def chooser(self) -> Tuple[str, object]:
        return ("weights", self.weights)


@dataclass
class Function:
    """A function: a named region plus its return instruction."""

    name: str
    body: Region
    return_block: BasicBlock = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.return_block is None:
            self.return_block = BasicBlock(1, 4, BranchKind.RETURN)

    def blocks(self) -> Iterator[BasicBlock]:
        """All blocks of the function, body first then the return."""
        out: List[BasicBlock] = []
        self.body.collect_blocks(out)
        out.append(self.return_block)
        return iter(out)

    @property
    def entry_address(self) -> int:
        """Address of the first block (valid after layout)."""
        first = self.body.first_block()
        if first is None:
            return self.return_block.address
        return first.address

    def code_bytes(self) -> int:
        """Static code size of the function."""
        return sum(block.size_bytes for block in self.blocks())


class Program:
    """A complete synthetic program: functions plus a block registry.

    Blocks are enumerated once, at construction: ``blocks`` lists every
    function's blocks in layout order, and ``function_offsets[i]`` to
    ``function_offsets[i + 1]`` is the slice of function ``i``.
    """

    def __init__(self, name: str, functions: Seq[Function]) -> None:
        if not functions:
            raise ValueError("a program needs at least one function")
        self.name = name
        self.functions = list(functions)
        self._blocks: List[BasicBlock] = []
        self.function_offsets: List[int] = [0]
        self._register_blocks()

    def _register_blocks(self) -> None:
        blocks = self._blocks
        for function in self.functions:
            start = len(blocks)
            function.body.collect_blocks(blocks)
            blocks.append(function.return_block)
            name = function.name
            for block_id in range(start, len(blocks)):
                block = blocks[block_id]
                if block.block_id >= 0:
                    raise ValueError(
                        f"block {block.block_id} is owned by more than one region"
                    )
                block.block_id = block_id
                block.function_name = name
            self.function_offsets.append(len(blocks))

    @property
    def blocks(self) -> List[BasicBlock]:
        """All static blocks of the program, in layout order."""
        return self._blocks

    def block(self, block_id: int) -> BasicBlock:
        """Look up a block by its dense identifier."""
        return self._blocks[block_id]

    @property
    def entry_function(self) -> Function:
        """The function executed when the program starts."""
        return self.functions[0]

    def function_named(self, name: str) -> Function:
        """Find a function by name."""
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no function named {name!r} in program {self.name!r}")

    def static_code_bytes(self) -> int:
        """Static code footprint of the whole program in bytes."""
        return sum(block.size_bytes for block in self._blocks)

    def static_instruction_count(self) -> int:
        """Static instruction count of the whole program."""
        return sum(block.num_instructions for block in self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program({self.name!r}, functions={len(self.functions)}, "
            f"blocks={len(self._blocks)}, bytes={self.static_code_bytes()})"
        )


def _end_address(region: Region) -> int:
    """Address of the first byte after the last block of a region."""
    last = region.last_block()
    if last is None:
        raise ValueError("cannot compute the end address of an empty region")
    return last.end_address


def _normalise_weights(weights: Optional[Seq[float]], count: int) -> List[float]:
    """Validate and normalise dispatch weights to sum to one."""
    if weights is None:
        return [1.0 / count] * count
    if len(weights) != count:
        raise ValueError("number of weights must match the number of targets")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return [w / total for w in weights]


def _weighted_choice(rng, weights: Seq[float]) -> int:
    """Draw an index according to normalised weights."""
    draw = rng.random()
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if draw < cumulative:
            return index
    return len(weights) - 1
