"""Trace compiler: vectorized segment engine for trace generation.

The reference :class:`~repro.trace.execution.TraceGenerator` walks the
region tree one basic block at a time and pays Python-level cost for
every dynamic event.  This module lowers a :class:`Program` plus its
:class:`ExecutionSchedule` into a flat *segment IR* once, then
generates traces by stamping precomputed column templates into
preallocated NumPy buffers:

* **Static templates** -- any subtree whose emission is fully
  deterministic (straight-line code, jumps, syscalls, calls to static
  leaf functions, fixed-trip loops over static bodies, single-outcome
  conditionals) is *recorded* at compile time by literally executing it
  against a recording context, so the template is produced by the very
  same ``execute`` code the reference generator runs.
* **Flat loops** -- a loop whose body is a run of static segments
  punctuated by *choice sites* (conditionals, indirect calls, indirect
  jumps) with static per-outcome variants.  One invocation costs O(#sites)
  scalar bookkeeping: the trip count is drawn exactly as the reference
  does, the per-iteration RNG draws are batched (``rng.random(n)``
  consumes the bit stream identically to ``n`` scalar draws), and
  pattern-site outcome totals come from O(1) prefix tables.
* **Structural nodes** -- everything else (data-dependent outer loops,
  non-static conditionals) executes as a tree of compiled nodes that
  mirror the reference control flow but emit whole templates instead of
  single events.

Loops compile on their first invocation (a flat loop's sites, a
structural loop's body), so code a trace never reaches costs nothing.
The compiler never asks a region for its kind: regions dispatch to it
(``Region.lower``, ``is_flat`` and ``flatten``).

Execution therefore *decides* (exact RNG stream, exact instruction
accounting) without materializing events; a final vectorized pass
stamps every recorded segment into its precomputed offset.  Wherever
the fast path cannot be exact -- the instruction budget may run out
inside a segment, or the call-depth limit is near -- the engine falls
back to literally executing the original region subtree, which
reproduces the reference truncation semantics by construction.  The
result is **bit-identical** to the reference generator for every
(program, schedule, seed, length); the test suite asserts this across
workloads, seeds and lengths.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.trace.columns import NO_TARGET, program_columns
from repro.trace.events import Trace
from repro.trace.execution import ExecutionSchedule, Phase
from repro.trace.program import Program, Region, StaticSize, static_size

#: Upper bound on the number of events one *recorded* static template
#: may hold.  Recording a fixed-trip loop unrolls it, so the cap keeps
#: pathological nests from exploding template memory (anything larger
#: compiles structurally instead).  Merging adjacent already-recorded
#: code is intentionally uncapped: its total is bounded by the static
#: program size.
MAX_TEMPLATE_EVENTS = 4096


class _NotStatic(Exception):
    """Raised while recording when a subtree turns out to be dynamic."""


class _RaisingRNG:
    """RNG stand-in that flags any draw attempt during recording."""

    def __getattr__(self, name: str):
        raise _NotStatic(f"rng.{name} used in supposedly static subtree")


class _Recorder:
    """ExecutionContext look-alike that records emissions at compile time.

    Only deterministic subtrees may execute against it: any RNG draw or
    multi-outcome pattern access raises :class:`_NotStatic`.  The
    recorded columns *are* the template -- they were produced by the
    same ``Region.execute`` implementations the reference generator
    runs, so no emission logic is duplicated.
    """

    def __init__(self, max_call_depth: int) -> None:
        self.rng = _RaisingRNG()
        self.block_ids: List[int] = []
        self.taken: List[bool] = []
        self.targets: List[int] = []
        self.instructions = 0
        self.max_call_depth = max_call_depth
        self._call_depth = 0
        self.max_depth_seen = 0

    @property
    def exhausted(self) -> bool:
        return False

    def next_pattern_index(self, owner: object, length: int) -> int:
        if length != 1:
            raise _NotStatic("multi-outcome pattern site")
        return 0  # position of a length-1 pattern is always 0

    def emit(self, block, taken: bool, target: Optional[int] = None) -> None:
        if len(self.block_ids) >= MAX_TEMPLATE_EVENTS:
            raise _NotStatic("template too large")
        self.block_ids.append(block.block_id)
        self.taken.append(bool(taken))
        self.targets.append(NO_TARGET if target is None else target)
        self.instructions += block.num_instructions

    def call(self, callee, return_to: int) -> None:
        if self._call_depth >= self.max_call_depth:
            # Depth-dependent emission cannot be a fixed template.
            raise _NotStatic("call depth limit reached while recording")
        self._call_depth += 1
        self.max_depth_seen = max(self.max_depth_seen, self._call_depth)
        try:
            callee.body.execute(self)
        finally:
            self._call_depth -= 1
        self.emit(callee.return_block, taken=True, target=return_to)


class _Template:
    """A precompiled static emission span."""

    __slots__ = (
        "index",
        "pool_offset",
        "block_ids",
        "taken",
        "targets",
        "n_events",
        "instructions",
        "extra_depth",
        "sources",
    )

    def __init__(
        self,
        recorder: _Recorder,
        sources: Optional[List[Region]] = None,
    ) -> None:
        self.index = -1  # assigned by the CompiledSchedule
        self.pool_offset = -1  # assigned when the column pool is built
        # Columns stay plain lists: templates are only read through the
        # concatenated column pool (and the literal replay fallback), so
        # per-template NumPy conversion would be pure compile overhead.
        self.block_ids = recorder.block_ids
        self.taken = recorder.taken
        self.targets = recorder.targets
        self.n_events = len(recorder.block_ids)
        self.instructions = recorder.instructions
        self.extra_depth = recorder.max_depth_seen
        #: Source regions, in order, for the literal (exact-truncation)
        #: fallback; ``None`` for synthesized single-block templates
        #: (latches, function returns) which are replayed row by row.
        self.sources = sources



def _make_event_template(block, taken: bool, target: Optional[int]) -> _Template:
    """Template for one synthesized event (latch, function return)."""
    rec = _Recorder(max_call_depth=1 << 30)
    rec.emit(block, taken, target)
    return _Template(rec, sources=None)


def _merge_templates(templates: List[_Template]) -> _Template:
    """Concatenate adjacent static templates into one, in O(total size)."""
    rec = _Recorder(max_call_depth=1 << 30)
    sources: List[Region] = []
    for template in templates:
        rec.block_ids.extend(template.block_ids)
        rec.taken.extend(template.taken)
        rec.targets.extend(template.targets)
        rec.instructions += template.instructions
        rec.max_depth_seen = max(rec.max_depth_seen, template.extra_depth)
        sources.extend(template.sources or [])
    return _Template(rec, sources=sources or None)


# ----------------------------------------------------------------------
# Choice sites (flat-loop IR)
# ----------------------------------------------------------------------

#: Chooser kinds of a choice site.
_CHOICE_RANDOM = 0  # one rng.random() per execution, threshold on p
_CHOICE_WEIGHTED = 1  # one rng.random() per execution, cumulative weights
_CHOICE_PATTERN = 2  # no draw; outcome cycles through a pattern


class _ChoiceSite:
    """One multi-outcome site inside a flat loop body."""

    __slots__ = (
        "kind",
        "variants",
        "threshold",
        "cum_weights",
        "owner",
        "pattern_variants",
        "period",
        "event_prefix",
        "instr_prefix",
        "event_cycle",
        "instr_cycle",
        "var_events",
        "var_instr",
        "var_pool",
        "draw_column",
    )

    def __init__(self, kind: int, variants: List[_Template]) -> None:
        self.kind = kind
        self.variants = variants
        self.var_events = np.asarray([v.n_events for v in variants], dtype=np.int64)
        self.var_instr = np.asarray([v.instructions for v in variants], dtype=np.int64)
        self.var_pool: Optional[np.ndarray] = None  # filled with the pool
        self.threshold = 0.0
        self.cum_weights: Optional[np.ndarray] = None
        self.owner: Optional[object] = None
        self.pattern_variants: Optional[np.ndarray] = None
        self.period = 0
        self.event_prefix: Optional[np.ndarray] = None
        self.instr_prefix: Optional[np.ndarray] = None
        self.event_cycle = 0
        self.instr_cycle = 0
        self.draw_column = -1  # column in the batched draw matrix

    def finish_pattern(self) -> None:
        """Precompute O(1) range-sum tables over the outcome pattern."""
        per_pos_events = self.var_events[self.pattern_variants]
        per_pos_instr = self.var_instr[self.pattern_variants]
        self.event_prefix = np.concatenate(([0], np.cumsum(per_pos_events)))
        self.instr_prefix = np.concatenate(([0], np.cumsum(per_pos_instr)))
        self.event_cycle = int(self.event_prefix[-1])
        self.instr_cycle = int(self.instr_prefix[-1])
        self.period = len(self.pattern_variants)

    def range_sums(self, start: int, count: int) -> Tuple[int, int]:
        """Total (events, instructions) of ``count`` executions from
        pattern position ``start`` -- O(1) via the prefix tables."""
        period = self.period
        full, rem = divmod(count, period)
        events = full * self.event_cycle
        instr = full * self.instr_cycle
        first = start % period
        end = first + rem
        ep, ip = self.event_prefix, self.instr_prefix
        if end <= period:
            events += int(ep[end] - ep[first])
            instr += int(ip[end] - ip[first])
        else:
            events += int(self.event_cycle - ep[first] + ep[end - period])
            instr += int(self.instr_cycle - ip[first] + ip[end - period])
        return events, instr


# Flat-loop body elements: a static template or a choice site.
_SiteList = List[object]


class _FlatBatch:
    """Run-time records of consecutive fast invocations of a flat loop."""

    __slots__ = ("offsets", "trips", "choices", "positions")

    def __init__(self, n_pattern_sites: int) -> None:
        self.offsets: List[int] = []
        self.trips: List[int] = []
        #: per drawing-site list of per-invocation choice arrays
        self.choices: Dict[int, List[np.ndarray]] = {}
        #: per pattern-site list of per-invocation start positions
        #: (snapshots of the shared position state, which stays the
        #: single source of truth -- the same pattern owner may be
        #: reached through several compiled nodes or literal fallbacks)
        self.positions: List[List[int]] = [[] for _ in range(n_pattern_sites)]


class _RunState:
    """Everything one compiled trace generation mutates."""

    def __init__(
        self,
        rng: np.random.Generator,
        max_instructions: int,
        max_call_depth: int,
        compiler: "_Compiler",
    ) -> None:
        self.rng = rng
        #: For lazy compilation; nothing compiled refers back to the
        #: compiler, so a compiled schedule holds no cycle.
        self.compiler = compiler
        self.max_instructions = max_instructions
        self.max_call_depth = max_call_depth
        self.instructions = 0
        self.events = 0
        self.call_depth = 0
        self.section_code = 0
        self.pattern_positions: dict = {}
        #: Instance offsets per emitted template index.  Dictionaries,
        #: because compilation continues during a run.
        self.template_offsets: Dict[int, List[int]] = {}
        #: One record batch per invoked flat loop index.
        self.flat_states: Dict[int, _FlatBatch] = {}
        #: literal fallback runs: (offset, bids, taken, targets)
        self.literal_runs: List[Tuple[int, List[int], List[bool], List[int]]] = []
        #: (start offset, section code) spans, in emission order
        self.section_spans: List[Tuple[int, int]] = []

    @property
    def exhausted(self) -> bool:
        return self.instructions >= self.max_instructions

    def set_section(self, code: int) -> None:
        if not self.section_spans or self.section_spans[-1][1] != code:
            self.section_spans.append((self.events, code))
        self.section_code = code

    # -- template emission -------------------------------------------------

    def add_template(self, template: _Template) -> None:
        if (
            self.instructions + template.instructions < self.max_instructions
            and self.call_depth + template.extra_depth <= self.max_call_depth
        ):
            offsets = self.template_offsets.get(template.index)
            if offsets is None:
                self.template_offsets[template.index] = [self.events]
            else:
                offsets.append(self.events)
            self.events += template.n_events
            self.instructions += template.instructions
        else:
            self.emit_literal(template)

    def emit_literal(self, template: _Template) -> None:
        """Exact fallback: run the template's sources through a literal
        context (reference truncation/depth semantics), or replay the
        recorded rows for synthesized single-event templates."""
        ctx = _LiteralContext(self)
        if template.sources is None:
            for bid, tk, tg in zip(
                template.block_ids, template.taken, template.targets
            ):
                ctx.emit_raw(bid, tk, tg, 0)
            # Instruction accounting for replayed rows: the template
            # knows its total; synthesized templates are single-event.
            self.instructions += template.instructions
        else:
            for region in template.sources:
                region.execute(ctx)
                if self.exhausted:
                    break
        ctx.close()


class _LiteralContext:
    """ExecutionContext-compatible shim backed by a :class:`_RunState`.

    Used for every exact fallback: it shares the RNG, the pattern
    positions, the call depth, and the instruction budget with the
    compiled run, so executing the *original* region subtree through it
    is indistinguishable from the reference generator.
    """

    __slots__ = ("state", "rng", "_bids", "_taken", "_targets", "_offset")

    def __init__(self, state: _RunState) -> None:
        self.state = state
        self.rng = state.rng
        self._bids: List[int] = []
        self._taken: List[bool] = []
        self._targets: List[int] = []
        self._offset = state.events

    @property
    def exhausted(self) -> bool:
        return self.state.instructions >= self.state.max_instructions

    @property
    def max_call_depth(self) -> int:
        return self.state.max_call_depth

    def next_pattern_index(self, owner: object, length: int) -> int:
        positions = self.state.pattern_positions
        position = positions.get(owner, 0)
        positions[owner] = (position + 1) % length
        return position

    def emit(self, block, taken: bool, target: Optional[int] = None) -> None:
        self._bids.append(block.block_id)
        self._taken.append(bool(taken))
        self._targets.append(NO_TARGET if target is None else target)
        self.state.instructions += block.num_instructions
        self.state.events += 1

    def emit_raw(self, block_id: int, taken: bool, target: int, instructions: int) -> None:
        self._bids.append(block_id)
        self._taken.append(taken)
        self._targets.append(target)
        self.state.instructions += instructions
        self.state.events += 1

    def call(self, callee, return_to: int) -> None:
        state = self.state
        if state.call_depth >= state.max_call_depth:
            self.emit(callee.return_block, taken=True, target=return_to)
            return
        state.call_depth += 1
        try:
            callee.body.execute(self)
        finally:
            state.call_depth -= 1
        self.emit(callee.return_block, taken=True, target=return_to)

    def close(self) -> None:
        if self._bids:
            self.state.literal_runs.append(
                (self._offset, self._bids, self._taken, self._targets)
            )


# ----------------------------------------------------------------------
# Compiled nodes
# ----------------------------------------------------------------------


class _CStatic:
    """A static emission span."""

    __slots__ = ("template",)

    def __init__(self, template: _Template) -> None:
        self.template = template

    def execute(self, state: _RunState) -> None:
        state.add_template(self.template)


class _CSeq:
    """Sequence of compiled nodes with reference exhaustion checks."""

    __slots__ = ("children",)

    def __init__(self, children: List[object]) -> None:
        self.children = children

    def execute(self, state: _RunState) -> None:
        for child in self.children:
            child.execute(state)
            if state.instructions >= state.max_instructions:
                return


class _CLoop:
    """Structural loop (data-dependent body): mirrors ``Loop.execute``.

    The body compiles on the loop's first invocation, as a flat loop's
    sites do: a short trace reaches few of a large program's outer
    loops, and compiling the rest up front would dominate cold runs.
    """

    __slots__ = ("loop", "body", "latch_taken", "latch_done")

    def __init__(self, loop: Region) -> None:
        self.loop = loop
        self.body: Optional[object] = None
        self.latch_taken = _make_event_template(loop.latch, True, None)
        self.latch_done = _make_event_template(loop.latch, False, None)

    def _compiled_body(self, compiler: "_Compiler") -> object:
        # Under the compiler lock, like a flat loop's first invocation;
        # ``self.body`` is published last.
        with compiler.lock, _collector_paused():
            if self.body is None:
                self.body = compiler.compile_root(self.loop.body)
        return self.body

    def execute(self, state: _RunState) -> None:
        body = self.body
        if body is None:
            body = self._compiled_body(state.compiler)
        iterations = self.loop.trip_count.draw(state.rng)
        last = iterations - 1
        for index in range(iterations):
            body.execute(state)
            state.add_template(self.latch_taken if index < last else self.latch_done)
            if state.instructions >= state.max_instructions:
                return


class _CFallback:
    """Any region executed literally (exact reference semantics)."""

    __slots__ = ("region",)

    def __init__(self, region: Region) -> None:
        self.region = region

    def execute(self, state: _RunState) -> None:
        ctx = _LiteralContext(state)
        self.region.execute(ctx)
        ctx.close()


class _CFlatLoop:
    """The vectorized segment engine for one flat loop."""

    __slots__ = (
        "index",
        "loop",
        "trip_count",
        "sites",
        "choice_sites",
        "drawing_sites",
        "pattern_sites",
        "draws_per_iteration",
        "fixed_events",
        "fixed_instr",
        "iter_max_instr",
        "latch",
        "latch_taken_pool",
        "latch_done_pool",
        "extra_depth",
        "broken",
    )

    def __init__(self, loop: Region) -> None:
        self.index = -1  # assigned by the CompiledSchedule
        self.loop = loop
        self.trip_count = loop.trip_count
        #: Sites are compiled on the loop's *first invocation*: large
        #: programs carry many loops a short trace never reaches, and
        #: recording their segments up front would dominate cold runs.
        self.sites: Optional[_SiteList] = None
        self.broken = False

    def _ensure_compiled(self, compiler: "_Compiler") -> bool:
        # The compiled schedule is shared process-wide (memoized per
        # program), so first-invocation compilation takes the compiler
        # lock; ``self.sites`` is published last, making the unlocked
        # fast-path check in execute() safe.
        with compiler.lock, _collector_paused():
            return self._ensure_compiled_locked(compiler)

    def _ensure_compiled_locked(self, compiler: "_Compiler") -> bool:
        if self.sites is not None:
            return True
        if self.broken:
            return False
        sites = compiler.flatten_body_sites(self.loop.body)
        if sites is None:
            # The structural flatness gate was optimistic (e.g. a call
            # chain deeper than the depth limit); stay exact by running
            # this loop literally forever.
            self.broken = True
            return False
        self.choice_sites = [s for s in sites if isinstance(s, _ChoiceSite)]
        self.drawing_sites = [
            s for s in self.choice_sites if s.kind != _CHOICE_PATTERN
        ]
        self.pattern_sites = [
            s for s in self.choice_sites if s.kind == _CHOICE_PATTERN
        ]
        for column, site in enumerate(self.drawing_sites):
            site.draw_column = column
        self.draws_per_iteration = len(self.drawing_sites)
        latch = self.loop.latch
        self.latch = latch
        self.fixed_events = 1 + sum(
            t.n_events for t in sites if isinstance(t, _Template)
        )
        self.fixed_instr = latch.num_instructions + sum(
            t.instructions for t in sites if isinstance(t, _Template)
        )
        self.iter_max_instr = self.fixed_instr + sum(
            int(s.var_instr.max()) for s in self.choice_sites
        )
        depths = [t.extra_depth for t in sites if isinstance(t, _Template)]
        for site in self.choice_sites:
            depths.extend(v.extra_depth for v in site.variants)
        self.extra_depth = max(depths or [0])
        compiler.place_flat_loop(self, sites)
        self.sites = sites  # publish last: readers check it unlocked
        return True

    # -- run-time ---------------------------------------------------------

    def _literal_invocation(self, state: _RunState, iterations: int) -> None:
        """Reference-exact execution of one invocation (trip already
        drawn); mirrors ``Loop.execute`` line for line."""
        ctx = _LiteralContext(state)
        loop = self.loop
        for index in range(iterations):
            loop.body.execute(ctx)
            ctx.emit(loop.latch, taken=index < iterations - 1)
            if ctx.exhausted:
                break
        ctx.close()

    def execute(self, state: _RunState) -> None:
        if self.sites is None and (
            self.broken or not self._ensure_compiled(state.compiler)
        ):
            ctx = _LiteralContext(state)
            self.loop.execute(ctx)
            ctx.close()
            return
        iterations = self.trip_count.draw(state.rng)
        remaining = state.max_instructions - state.instructions
        if (
            iterations * self.iter_max_instr >= remaining
            or state.call_depth + self.extra_depth > state.max_call_depth
        ):
            # The budget may run out mid-invocation (or calls could hit
            # the depth limit): execute this invocation literally.  The
            # per-iteration RNG draws have not been made yet, so the
            # literal walk consumes the stream exactly like the
            # reference generator (pattern positions live in the shared
            # dictionary, so no batch state needs flushing).
            self._literal_invocation(state, iterations)
            return

        batch = state.flat_states.get(self.index)
        if batch is None:
            batch = _FlatBatch(len(self.pattern_sites))
            state.flat_states[self.index] = batch

        events = iterations * self.fixed_events
        instr = iterations * self.fixed_instr
        shared = state.pattern_positions
        for slot, site in enumerate(self.pattern_sites):
            position = shared.get(site.owner, 0)
            batch.positions[slot].append(position)
            shared[site.owner] = (position + iterations) % site.period
            d_events, d_instr = site.range_sums(position, iterations)
            events += d_events
            instr += d_instr
        if self.draws_per_iteration:
            raw = state.rng.random(iterations * self.draws_per_iteration)
            for site in self.drawing_sites:
                draws = raw[site.draw_column :: self.draws_per_iteration]
                if site.kind == _CHOICE_RANDOM:
                    # variant 0 = "then executes" exactly when draw < p
                    choice = (draws >= site.threshold).view(np.uint8)
                else:
                    choice = np.minimum(
                        np.searchsorted(site.cum_weights, draws, side="right"),
                        len(site.variants) - 1,
                    )
                records = batch.choices.setdefault(site.draw_column, [])
                records.append(choice)
                events += int(site.var_events[choice].sum())
                instr += int(site.var_instr[choice].sum())

        batch.offsets.append(state.events)
        batch.trips.append(iterations)
        state.events += events
        state.instructions += instr

    # -- stamping ----------------------------------------------------------

    def stamp(self, batch: _FlatBatch, spans: "_SpanAccumulator") -> None:
        if not batch.trips:
            return
        trips = np.asarray(batch.trips, dtype=np.int64)
        offsets = np.asarray(batch.offsets, dtype=np.int64)
        total = int(trips.sum())
        if total == 0:
            return  # every invocation drew zero iterations: no events

        first_iteration = np.empty(len(trips), dtype=np.int64)
        first_iteration[0] = 0
        np.cumsum(trips[:-1], out=first_iteration[1:])

        # Per-site outcome streams over every iteration of the batch.
        streams: Dict[int, np.ndarray] = {}
        if self.pattern_sites:
            # Iteration i of invocation j executes a pattern site at
            # position (start_j + i) % period, with start_j snapshotted
            # from the shared position state when the invocation ran.
            iteration_index = np.arange(total, dtype=np.int64) - np.repeat(
                first_iteration, trips
            )
            for slot, site in enumerate(self.pattern_sites):
                starts_per_invocation = np.asarray(
                    batch.positions[slot], dtype=np.int64
                )
                positions = (
                    np.repeat(starts_per_invocation, trips) + iteration_index
                ) % site.period
                streams[id(site)] = site.pattern_variants[positions]
        for site in self.drawing_sites:
            streams[id(site)] = np.concatenate(batch.choices[site.draw_column])

        # Source pool offset and length of every (iteration, segment):
        # one row per site plus the latch row.
        rows = len(self.sites) + 1
        src = np.empty((rows, total), dtype=np.int64)
        length = np.empty((rows, total), dtype=np.int64)
        for row, site in enumerate(self.sites):
            if isinstance(site, _Template):
                src[row] = site.pool_offset
                length[row] = site.n_events
            else:
                stream = streams[id(site)]
                src[row] = site.var_pool[stream]
                length[row] = site.var_events[stream]
        # Zero-trip invocations have no iterations (and no latch).
        last_iteration = (first_iteration + trips - 1)[trips > 0]
        src[-1] = self.latch_taken_pool
        src[-1, last_iteration] = self.latch_done_pool
        length[-1] = 1

        # Destination offset of every segment: per-iteration exclusive
        # prefix down the rows, plus the iteration's global start.
        cumulative_rows = length.cumsum(axis=0)
        iteration_lengths = cumulative_rows[-1]
        cumulative = np.empty(total + 1, dtype=np.int64)
        cumulative[0] = 0
        np.cumsum(iteration_lengths, out=cumulative[1:])
        correction = offsets - cumulative[first_iteration]
        starts = cumulative[:total] + np.repeat(correction, trips)
        dst = (cumulative_rows - length) + starts

        spans.add(src.ravel(), dst.ravel(), length.ravel())


class _SpanAccumulator:
    """Collects (source, destination, length) span triples.

    Every fast-path emission reduces to copying a span of the compiled
    column *pool* to an absolute position in the output trace; the
    accumulator gathers all spans of a run so one vectorized expansion
    stamps the entire trace.
    """

    __slots__ = ("src", "dst", "length")

    def __init__(self) -> None:
        self.src: List[np.ndarray] = []
        self.dst: List[np.ndarray] = []
        self.length: List[np.ndarray] = []

    def add(self, src: np.ndarray, dst: np.ndarray, length: np.ndarray) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.length.append(length)


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------


class _Compiler:
    def __init__(self, max_call_depth: int) -> None:
        self.max_call_depth = max_call_depth
        self.templates: List[_Template] = []
        self.flat_loops: List[_CFlatLoop] = []
        #: Guards lazy flat-loop compilation and pool growth: the
        #: compiled schedule is memoized per program, and the
        #: thread-safe trace cache advertises concurrent generation.
        self.lock = threading.Lock()
        #: Memoized static emission per region (None = dynamic), so
        #: deciding staticness never re-walks a subtree.
        self._static_sizes: Dict[int, Optional[StaticSize]] = {}
        #: The column pool grows lazily (flat-loop segments are placed
        #: on first invocation); the array view is rebuilt on demand.
        self._pool_block_ids: List[int] = []
        self._pool_taken: List[bool] = []
        self._pool_targets: List[int] = []
        self._pool_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- column pool -------------------------------------------------------

    def place(self, template: _Template) -> int:
        """Append a template's columns to the pool."""
        template.pool_offset = len(self._pool_block_ids)
        self._pool_block_ids.extend(template.block_ids)
        self._pool_taken.extend(template.taken)
        self._pool_targets.extend(template.targets)
        self._pool_cache = None
        return template.pool_offset

    def place_flat_loop(self, flat: "_CFlatLoop", sites: _SiteList) -> None:
        """Pool the segments of a freshly compiled flat loop."""
        for site in sites:
            if isinstance(site, _Template):
                self.place(site)
            else:
                site.var_pool = np.asarray(
                    [self.place(variant) for variant in site.variants],
                    dtype=np.int64,
                )
        latch = flat.latch
        flat.latch_taken_pool = len(self._pool_block_ids)
        flat.latch_done_pool = flat.latch_taken_pool + 1
        self._pool_block_ids.extend((latch.block_id, latch.block_id))
        self._pool_taken.extend((True, False))
        self._pool_targets.extend((NO_TARGET, NO_TARGET))
        self._pool_cache = None

    def pool_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self._pool_cache
        if cached is None:
            # Built under the lock so a concurrent lazy placement never
            # interleaves with the list-to-array conversion.
            with self.lock:
                cached = self._pool_cache
                if cached is None:
                    cached = (
                        np.asarray(self._pool_block_ids, dtype=np.int64),
                        np.asarray(self._pool_taken, dtype=np.bool_),
                        np.asarray(self._pool_targets, dtype=np.int64),
                    )
                    self._pool_cache = cached
        return cached

    def register(self, template: _Template) -> _Template:
        """Give a template a slot in the instance-offset table and the
        column pool (idempotent)."""
        if template.index < 0:
            template.index = len(self.templates)
            self.templates.append(template)
            self.place(template)
        return template

    def _static_events(self, region: Region) -> Optional[int]:
        """Events a static region emits, or ``None`` if it is dynamic or
        larger than a template may be.

        The structural analysis (:func:`~repro.trace.program.static_size`,
        memoized per region) gates the recording pass: recording executes
        whole subtrees, so detecting dynamic regions by exception from
        every ancestor would make compilation quadratic in nesting depth.
        """
        size = static_size(region, self._static_sizes)
        if size is None or size[0] > MAX_TEMPLATE_EVENTS:
            return None
        return size[0]

    def try_record(self, region: Region) -> Optional[_Template]:
        if self._static_events(region) is None:
            return None
        recorder = _Recorder(self.max_call_depth)
        try:
            # The structural gate said static; recording through the
            # region's own execute stays as the authoritative check.
            region.execute(recorder)
        except _NotStatic:
            self._static_sizes[id(region)] = None
            return None
        return _Template(recorder, sources=[region])

    def record_outcome(self, region: Region, outcome: int) -> Optional[_Template]:
        """Record one forced outcome of a choice site, through the
        region's own ``run_outcome``."""
        recorder = _Recorder(self.max_call_depth)
        try:
            region.run_outcome(recorder, outcome)
        except _NotStatic:
            return None
        return _Template(recorder, sources=None)

    # -- region compilation ------------------------------------------------
    #
    # Regions dispatch to the methods below (``Region.lower``,
    # ``is_flat`` and ``flatten``); the compiler itself never asks a
    # region for its kind.

    def compile_region(self, region: Region) -> object:
        """Compile one region; a returned ``_CStatic`` is *unregistered*
        (the caller registers it, after any adjacent-run merging)."""
        static = self.try_record(region)
        if static is not None:
            return _CStatic(static)
        return region.lower(self)

    def literal(self, region: Region) -> object:
        """A region with no compiled form: execute it literally.

        Non-static conditionals, indirect dispatch sites, or calls to
        non-static functions outside a flat loop land here.  (Synthesis
        never produces these outside loop bodies; the fallback keeps
        arbitrary hand-built programs exact.)
        """
        return _CFallback(region)

    def compile_root(self, region: Region) -> object:
        """Compile a region used directly as an execution root."""
        node = self.compile_region(region)
        if isinstance(node, _CStatic):
            self.register(node.template)
        return node

    def compile_sequence(self, region: Region) -> object:
        children: List[object] = []
        static_run: List[_Template] = []

        def flush_static_run() -> None:
            if not static_run:
                return
            # Merge a whole run of adjacent static children at once and
            # register only the result, so no dead intermediate
            # templates reach the pool or the per-run offset table.
            template = (
                static_run[0]
                if len(static_run) == 1
                else _merge_templates(static_run)
            )
            children.append(_CStatic(self.register(template)))
            static_run.clear()

        for child in region.regions:
            node = self.compile_region(child)
            if isinstance(node, _CStatic):
                static_run.append(node.template)
            else:
                flush_static_run()
                children.append(node)
        flush_static_run()
        if len(children) == 1:
            return children[0]
        return _CSeq(children)

    def compile_loop(self, loop: Region) -> object:
        if self.body_is_flat(loop.body):
            flat = _CFlatLoop(loop)
            flat.index = len(self.flat_loops)
            self.flat_loops.append(flat)
            return flat
        node = _CLoop(loop)
        # Latch templates are emitted through the shared template table.
        self.register(node.latch_taken)
        self.register(node.latch_done)
        return node

    def body_is_flat(self, region: Region) -> bool:
        """Structural gate: can this loop body flatten into sites?

        Mirrors what :meth:`flatten_body_sites` will accept without
        doing any recording, so the (much more expensive) segment
        recording can wait until the loop's first invocation.
        """
        if self._static_events(region) is not None:
            return True
        return region.is_flat(self)

    def choice_fits(self, region: Region) -> bool:
        """Whether every outcome of a choice site records as a variant."""
        limit = MAX_TEMPLATE_EVENTS - 2  # room for dispatch/join blocks
        for body in region.outcome_regions():
            if body is None:
                continue
            size = self._static_events(body)
            if size is None or size > limit:
                return False
        return True

    def flatten_body_sites(self, region: Region) -> Optional[_SiteList]:
        """Flatten a loop body into static/choice sites, or ``None``."""
        sites: _SiteList = []
        if not self.flatten_into(region, sites):
            return None
        return sites

    def flatten_into(self, region: Region, sites: _SiteList) -> bool:
        static = self.try_record(region)
        if static is not None:
            if sites and isinstance(sites[-1], _Template):
                sites[-1] = _merge_templates([sites[-1], static])
            else:
                sites.append(static)
            return True
        return region.flatten(self, sites)

    def add_choice_site(self, region: Region, sites: _SiteList) -> bool:
        """Record every outcome of a choice region as one site."""
        variants: List[_Template] = []
        for outcome in range(len(region.outcome_regions())):
            template = self.record_outcome(region, outcome)
            if template is None:
                return False  # nested dynamic code or a template too large
            variants.append(template)
        mode, parameter = region.chooser()
        if mode == "pattern":
            site = _ChoiceSite(_CHOICE_PATTERN, variants)
            site.owner = region
            site.pattern_variants = np.asarray(parameter, dtype=np.int64)
            site.finish_pattern()
        elif mode == "threshold":
            site = _ChoiceSite(_CHOICE_RANDOM, variants)
            site.threshold = parameter
        else:
            site = _ChoiceSite(_CHOICE_WEIGHTED, variants)
            site.cum_weights = np.cumsum(np.asarray(parameter, dtype=np.float64))
        sites.append(site)
        return True


class _CompiledPhase:
    __slots__ = ("body", "return_template", "section_code", "repeat")

    def __init__(self, phase: Phase, body: object, return_template: _Template) -> None:
        self.body = body
        self.return_template = return_template
        self.section_code = int(phase.section)
        self.repeat = phase.repeat


class CompiledSchedule:
    """A program + schedule lowered to the segment IR, ready to run."""

    def __init__(
        self,
        program: Program,
        schedule: ExecutionSchedule,
        max_call_depth: int = 64,
    ) -> None:
        # The program caches this schedule (``compile_schedule``), so the
        # reference back to it is weak: a compiled workload holds no
        # reference cycle, and reference counting alone frees it.
        self._program = weakref.ref(program)
        self.schedule = schedule
        self.max_call_depth = max_call_depth
        #: Compiled against this static layout; a re-layout invalidates.
        self.columns = program_columns(program)
        compiler = _Compiler(max_call_depth)
        self.setup = [self._compile_phase(compiler, p) for p in schedule.setup]
        self.steady = [self._compile_phase(compiler, p) for p in schedule.steady]
        self.templates = compiler.templates
        self.flat_loops = compiler.flat_loops
        #: Kept alive for lazy compilation and the column pool.
        self._compiler = compiler

    @property
    def program(self) -> Program:
        """The program this schedule was compiled from."""
        program = self._program()
        if program is None:
            raise ReferenceError("the compiled program no longer exists")
        return program

    def _compile_phase(self, compiler: _Compiler, phase: Phase) -> _CompiledPhase:
        body = compiler.compile_root(phase.function.body)
        return_template = compiler.register(
            _make_event_template(phase.function.return_block, True, None)
        )
        return _CompiledPhase(phase, body, return_template)

    # -- execution ---------------------------------------------------------

    def run(self, max_instructions: int, seed: int = 0, name: str = "") -> Trace:
        """Generate one trace; bit-identical to the reference generator."""
        if max_instructions < 1:
            raise ValueError("max_instructions must be positive")
        state = _RunState(
            np.random.default_rng(seed),
            max_instructions,
            self.max_call_depth,
            self._compiler,
        )

        for phase in self.setup:
            self._run_phase(state, phase)
            if state.exhausted:
                break
        if self.steady:
            while not state.exhausted:
                for phase in self.steady:
                    self._run_phase(state, phase)
                    if state.exhausted:
                        break

        return self._materialize(state, name or self.program.name)

    @staticmethod
    def _run_phase(state: _RunState, phase: _CompiledPhase) -> None:
        state.set_section(phase.section_code)
        for _ in range(phase.repeat):
            phase.body.execute(state)
            state.add_template(phase.return_template)
            if state.exhausted:
                return

    # -- materialization ---------------------------------------------------

    def _materialize(self, state: _RunState, name: str) -> Trace:
        out_block_ids = np.empty(state.events, dtype=np.int64)
        out_taken = np.empty(state.events, dtype=np.bool_)
        out_targets = np.empty(state.events, dtype=np.int64)
        out_sections = np.empty(state.events, dtype=np.uint8)

        spans = _SpanAccumulator()
        for index, offsets in state.template_offsets.items():
            template = self.templates[index]
            dst = np.asarray(offsets, dtype=np.int64)
            spans.add(
                np.full(dst.shape[0], template.pool_offset, dtype=np.int64),
                dst,
                np.full(dst.shape[0], template.n_events, dtype=np.int64),
            )
        for index, batch in state.flat_states.items():
            self.flat_loops[index].stamp(batch, spans)

        if spans.src:
            # One global expansion: every span becomes a contiguous
            # pool-to-output copy, all performed as three fancy gathers.
            src0 = np.concatenate(spans.src)
            dst0 = np.concatenate(spans.dst)
            lengths = np.concatenate(spans.length)
            cumulative = np.empty(lengths.shape[0] + 1, dtype=np.int64)
            cumulative[0] = 0
            np.cumsum(lengths, out=cumulative[1:])
            total = int(cumulative[-1])
            within = np.arange(total, dtype=np.int64) - np.repeat(
                cumulative[:-1], lengths
            )
            src = np.repeat(src0, lengths) + within
            dst = np.repeat(dst0, lengths) + within
            pool_block_ids, pool_taken, pool_targets = self._compiler.pool_arrays()
            out_block_ids[dst] = pool_block_ids[src]
            out_taken[dst] = pool_taken[src]
            out_targets[dst] = pool_targets[src]

        for offset, bids, taken, targets in state.literal_runs:
            end = offset + len(bids)
            out_block_ids[offset:end] = bids
            out_taken[offset:end] = taken
            out_targets[offset:end] = targets

        section_spans = state.section_spans
        for index, (start, code) in enumerate(section_spans):
            end = (
                section_spans[index + 1][0]
                if index + 1 < len(section_spans)
                else state.events
            )
            out_sections[start:end] = code

        return Trace.from_columns(
            self.program,
            out_block_ids,
            out_taken,
            out_targets,
            out_sections,
            name=name,
        )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def compile_schedule(
    program: Program,
    schedule: ExecutionSchedule,
    max_call_depth: int = 64,
) -> CompiledSchedule:
    """Compile (with memoization) a program + schedule into segment IR.

    The cache lives on the program object and is keyed by the schedule
    and the call-depth limit; it is invalidated automatically when the
    program is re-laid-out, because compiled templates bake in block
    addresses (the check compares the cached
    :class:`~repro.trace.columns.ProgramColumns` identity, which the
    layout pass refreshes).
    """
    cache: Optional[dict] = getattr(program, "_repro_compiled", None)
    if cache is None:
        cache = {}
        program._repro_compiled = cache
    key = (id(schedule), max_call_depth)
    entry = cache.get(key)
    if entry is not None:
        cached_schedule, compiled = entry
        if cached_schedule is schedule and compiled.columns is program_columns(program):
            return compiled
    with _collector_paused():
        compiled = CompiledSchedule(program, schedule, max_call_depth)
    cache[key] = (schedule, compiled)
    return compiled


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector while a workload is built or compiled.

    Construction allocates hundreds of thousands of tracked objects, so
    the collector would otherwise run several full collections, each
    walking every program built so far.  Built and compiled workloads
    hold no reference cycles, so reference counting frees them without
    it; a cycle would instead survive until the collector next ran.
    The state found is restored: a collector its caller disabled stays
    disabled.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()

