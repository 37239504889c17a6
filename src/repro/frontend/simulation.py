"""Drive traces through the front-end structure simulators.

These functions are the microarchitecture-dependent pintools of
Section IV: each one walks the dynamic trace and reports misses per
kilo-instruction (MPKI) for a branch predictor, a BTB, or an I-cache,
optionally restricted to the serial or parallel code section.

A call that passes a simulator instance (and :func:`simulate_frontend`)
runs the reference simulators from that instance's state.  A call that
names only a geometry or a configuration (and
:func:`simulate_frontend_many`) is answered from work shared per trace
section: predictor results and LRU stack-distance histograms that
outlive the call (:class:`_SectionStreams`).  Both give identical
results for fresh structures.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.frontend.btb import BranchTargetBuffer, btb_stack_histogram
from repro.frontend.configs import (
    BranchPredictorConfig,
    BTBConfig,
    FrontEndConfig,
    ICacheConfig,
)
from repro.frontend.icache import InstructionCache, line_stack_histogram
from repro.frontend.predictors import BranchPredictor, LoopPredictor
from repro.frontend.stack_distance import MIN_STACK_DEPTH, StackHistogram
from repro.trace.events import Trace
from repro.trace.instruction import BranchKind, CodeSection


@dataclass(frozen=True)
class BranchPredictionResult:
    """Outcome of simulating a direction predictor over a trace section."""

    predictor_name: str
    section: CodeSection
    instruction_count: int
    conditional_branches: int
    mispredictions: int
    mispredicted_not_taken: int
    mispredicted_taken_backward: int
    mispredicted_taken_forward: int

    @property
    def mpki(self) -> float:
        """Branch mispredictions per kilo-instruction."""
        if self.instruction_count == 0:
            return 0.0
        return self.mispredictions * 1000.0 / self.instruction_count

    def breakdown_mpki(self) -> dict:
        """MPKI split by the outcome class of the mispredicted branch."""
        if self.instruction_count == 0:
            return {"not taken": 0.0, "taken backward": 0.0, "taken forward": 0.0}
        scale = 1000.0 / self.instruction_count
        return {
            "not taken": self.mispredicted_not_taken * scale,
            "taken backward": self.mispredicted_taken_backward * scale,
            "taken forward": self.mispredicted_taken_forward * scale,
        }


@dataclass(frozen=True)
class BTBResult:
    """Outcome of simulating a branch target buffer over a trace section."""

    entries: int
    associativity: int
    section: CodeSection
    instruction_count: int
    taken_branches: int
    misses: int

    @property
    def mpki(self) -> float:
        """BTB misses per kilo-instruction."""
        if self.instruction_count == 0:
            return 0.0
        return self.misses * 1000.0 / self.instruction_count

    @property
    def miss_rate(self) -> float:
        """Misses per taken branch lookup."""
        if self.taken_branches == 0:
            return 0.0
        return self.misses / self.taken_branches


@dataclass(frozen=True)
class ICacheResult:
    """Outcome of simulating an instruction cache over a trace section."""

    size_bytes: int
    line_bytes: int
    associativity: int
    section: CodeSection
    instruction_count: int
    accesses: int
    misses: int

    @property
    def mpki(self) -> float:
        """I-cache misses per kilo-instruction."""
        if self.instruction_count == 0:
            return 0.0
        return self.misses * 1000.0 / self.instruction_count

    @property
    def miss_rate(self) -> float:
        """Misses per line access."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


@dataclass
class FrontEndResult:
    """MPKI of the three front-end structures for one configuration."""

    config_name: str
    section: CodeSection
    branch: BranchPredictionResult
    btb: BTBResult
    icache: ICacheResult


def _conditional_stream(
    trace: Trace, section: CodeSection
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Addresses, outcomes and targets of a section's conditional branches."""
    columns = trace.branch_columns(section)
    mask = columns.is_conditional
    return columns.addresses[mask], columns.taken[mask], columns.targets[mask]


def _btb_stream(trace: Trace, section: CodeSection) -> Tuple[np.ndarray, np.ndarray]:
    """Addresses and targets of the taken branches that look up the BTB."""
    columns = trace.branch_columns(section)
    mask = columns.taken & (columns.targets >= 0)
    mask &= columns.kinds != int(BranchKind.RETURN)
    return columns.addresses[mask], columns.targets[mask]


def _fetched_ranges(trace: Trace, section: CodeSection) -> Tuple[np.ndarray, np.ndarray]:
    """Start addresses and byte sizes of a section's fetched blocks."""
    block_ids, _, _, _ = trace.event_columns(section)
    static = trace.static
    return static.addresses[block_ids], static.size_bytes[block_ids]


def _score_predictions(
    name: str,
    predictions: np.ndarray,
    stream: Tuple[np.ndarray, np.ndarray, np.ndarray],
    section: CodeSection,
    instruction_count: int,
) -> BranchPredictionResult:
    """Tally a predictor's misses over the conditional stream it predicted.

    The misprediction breakdown is tallied with boolean-mask reductions.
    """
    addresses, taken, targets = stream
    wrong = predictions != taken
    mispredictions = int(np.count_nonzero(wrong))
    miss_not_taken = int(np.count_nonzero(wrong & ~taken))
    backward = (targets >= 0) & (targets < addresses)
    miss_taken_backward = int(np.count_nonzero(wrong & taken & backward))
    return BranchPredictionResult(
        predictor_name=name,
        section=section,
        instruction_count=instruction_count,
        conditional_branches=int(addresses.shape[0]),
        mispredictions=mispredictions,
        mispredicted_not_taken=miss_not_taken,
        mispredicted_taken_backward=miss_taken_backward,
        mispredicted_taken_forward=mispredictions - miss_not_taken - miss_taken_backward,
    )


def simulate_branch_predictor(
    trace: Trace,
    predictor: BranchPredictor,
    section: CodeSection = CodeSection.TOTAL,
) -> BranchPredictionResult:
    """Measure the branch MPKI of a direction predictor on one trace.

    The instance runs its batch path (vectorized for static predictors,
    a tight inlined loop for the stateful ones) from its current state;
    this is the reference :func:`simulate_branch_predictors` is held to.
    """
    stream = _conditional_stream(trace, section)
    return _score_predictions(
        predictor.name,
        predictor.simulate_sequence(*stream),
        stream,
        section,
        trace.instruction_count(section),
    )


def simulate_btb(
    trace: Trace,
    btb: Optional[BranchTargetBuffer] = None,
    section: CodeSection = CodeSection.TOTAL,
    entries: int = 2048,
    associativity: int = 4,
) -> BTBResult:
    """Measure BTB MPKI: taken branches that miss in the target buffer.

    Returns are excluded because their targets are supplied by the
    return address stack rather than the BTB.  Without a ``btb``
    instance the geometry is answered from the trace's shared
    stack-distance histograms (:class:`_SectionStreams`); a passed
    instance runs the reference simulator from its current state.
    """
    if btb is None:
        return _section_streams(trace, section).btb(BTBConfig(entries, associativity))
    addresses, targets = _btb_stream(trace, section)
    return BTBResult(
        entries=btb.entries,
        associativity=btb.associativity,
        section=section,
        instruction_count=trace.instruction_count(section),
        taken_branches=int(addresses.shape[0]),
        misses=btb.access_sequence(addresses, targets),
    )


def simulate_icache(
    trace: Trace,
    cache: Optional[InstructionCache] = None,
    section: CodeSection = CodeSection.TOTAL,
    size_bytes: int = 32 * 1024,
    line_bytes: int = 64,
    associativity: int = 4,
) -> ICacheResult:
    """Measure I-cache MPKI with sequential-fetch access semantics.

    Without a ``cache`` instance the geometry is answered from the
    trace's shared stack-distance histograms (:class:`_SectionStreams`);
    a passed instance runs the reference simulator from its current
    (possibly warm) state, and the result counts this call's accesses
    and misses only.
    """
    if cache is None:
        return _section_streams(trace, section).icache(
            ICacheConfig(size_bytes, line_bytes, associativity)
        )
    accesses_before = cache.accesses
    misses = cache.fetch_ranges(*_fetched_ranges(trace, section))
    return ICacheResult(
        size_bytes=cache.size_bytes,
        line_bytes=cache.line_bytes,
        associativity=cache.associativity,
        section=section,
        instruction_count=trace.instruction_count(section),
        accesses=cache.accesses - accesses_before,
        misses=misses,
    )


def simulate_frontend(
    trace: Trace,
    config: FrontEndConfig,
    section: CodeSection = CodeSection.TOTAL,
) -> FrontEndResult:
    """Simulate all three structures of a front-end configuration.

    Runs the reference simulators on freshly built instances; the
    batch engine (:func:`simulate_frontend_many`) is checked against it.
    """
    branch = simulate_branch_predictor(trace, config.predictor.build(), section)
    btb = simulate_btb(trace, config.btb.build(), section)
    icache = simulate_icache(trace, config.icache.build(), section)
    return FrontEndResult(
        config_name=config.name,
        section=section,
        branch=branch,
        btb=btb,
        icache=icache,
    )


class _SectionStreams:
    """Everything simulated so far over one trace section, for reuse.

    One instance per (trace, section) lives in :data:`_STREAMS`, weakly
    keyed by the trace, so every caller that simulates that trace --
    each figure worker and geometry, each chunk of an exploration, each
    core of a profile -- shares it, and it is dropped with the trace.
    It memoizes

    * stack-distance histograms, keyed by ``("icache", line bytes, set
      count)`` or ``("btb", set count)``, each answering every
      associativity up to its depth (one pass per set count);
    * predictor passes, packed one bit per conditional branch: the
      predictions of every loop-free :class:`BranchPredictorConfig` and
      the 64-entry loop predictor's overrides, each computed once.  A
      ``with_loop`` configuration is scored from
      ``np.where(overrides, loop predictions, base predictions)``,
      which is exactly what :meth:`PredictorWithLoop.simulate_sequence`
      computes: both parts train on the resolved outcome alone, so
      neither pass depends on the other; and
    * result objects, keyed by the sub-configuration
      (:class:`BranchPredictorConfig`, :class:`BTBConfig`,
      :class:`ICacheConfig`), so identical sub-configurations share one
      result (the result classes are frozen, since every caller gets
      that object).

    The decoded streams are gathered when a pass or a tally needs them
    and dropped afterwards.
    """

    def __init__(self, trace: Trace, section: CodeSection) -> None:
        self._trace = weakref.ref(trace)
        self.section = section
        self.instruction_count = trace.instruction_count(section)
        self._histograms: Dict[tuple, StackHistogram] = {}
        self._predictions: Dict[BranchPredictorConfig, Tuple[str, np.ndarray]] = {}
        self._loop: Optional[np.ndarray] = None
        self._results: Dict[object, object] = {}

    def _histogram(self, key: tuple, associativity: int, build) -> StackHistogram:
        """The histogram under ``key``, deep enough for ``associativity``."""
        histogram = self._histograms.get(key)
        if histogram is None or histogram.depth < associativity:
            histogram = build(max(MIN_STACK_DEPTH, associativity))
            self._histograms[key] = histogram
        return histogram

    def _base_predictions(
        self, config: BranchPredictorConfig, stream
    ) -> Tuple[str, np.ndarray]:
        """Name and predictions of a loop-free predictor (one pass)."""
        run = self._predictions.get(config)
        if run is None:
            predictor = config.build()
            run = (predictor.name, np.packbits(predictor.simulate_sequence(*stream)))
            self._predictions[config] = run
        name, packed = run
        return name, np.unpackbits(packed, count=len(stream[0])).view(bool)

    def _loop_overrides(self, stream) -> np.ndarray:
        """The loop predictor's (override?, prediction) rows (one pass)."""
        if self._loop is None:
            addresses, taken, _ = stream
            passes = LoopPredictor().simulate_overrides(addresses, taken)
            self._loop = np.packbits(np.array(passes, dtype=bool), axis=1)
        return np.unpackbits(self._loop, axis=1, count=len(stream[0])).view(bool)

    def predictor(self, config: BranchPredictorConfig) -> BranchPredictionResult:
        """The result of one direction predictor over this section."""
        result = self._results.get(config)
        if result is None:
            stream = _conditional_stream(self._trace(), self.section)
            name, predictions = self._base_predictions(
                replace(config, with_loop=False), stream
            )
            if config.with_loop:
                overrides, loop_predictions = self._loop_overrides(stream)
                predictions = np.where(overrides, loop_predictions, predictions)
                name = f"L-{name}"  # as PredictorWithLoop names it
            result = _score_predictions(
                name, predictions, stream, self.section, self.instruction_count
            )
            self._results[config] = result
        return result

    def btb(self, config: BTBConfig) -> BTBResult:
        """The result of a fresh BTB of one geometry over this section."""
        result = self._results.get(config)
        if result is None:
            sets = BranchTargetBuffer.set_count(config.entries, config.associativity)
            histogram = self._histogram(
                ("btb", sets),
                config.associativity,
                lambda depth: btb_stack_histogram(
                    *_btb_stream(self._trace(), self.section), sets, depth
                ),
            )
            result = BTBResult(
                entries=config.entries,
                associativity=config.associativity,
                section=self.section,
                instruction_count=self.instruction_count,
                taken_branches=histogram.accesses,
                misses=histogram.misses(config.associativity),
            )
            self._results[config] = result
        return result

    def icache(self, config: ICacheConfig) -> ICacheResult:
        """The result of a fresh I-cache of one geometry over this section."""
        result = self._results.get(config)
        if result is None:
            sets = InstructionCache.set_count(
                config.size_bytes, config.line_bytes, config.associativity
            )
            histogram = self._histogram(
                ("icache", config.line_bytes, sets),
                config.associativity,
                lambda depth: line_stack_histogram(
                    *_fetched_ranges(self._trace(), self.section),
                    config.line_bytes,
                    sets,
                    depth,
                ),
            )
            result = ICacheResult(
                size_bytes=config.size_bytes,
                line_bytes=config.line_bytes,
                associativity=config.associativity,
                section=self.section,
                instruction_count=self.instruction_count,
                accesses=histogram.accesses,
                misses=histogram.misses(config.associativity),
            )
            self._results[config] = result
        return result


#: trace -> section -> its :class:`_SectionStreams`.
_STREAMS: "weakref.WeakKeyDictionary[Trace, Dict[CodeSection, _SectionStreams]]" = (
    weakref.WeakKeyDictionary()
)


def _section_streams(trace: Trace, section: CodeSection) -> _SectionStreams:
    """The shared :class:`_SectionStreams` of one trace section."""
    per_section = _STREAMS.setdefault(trace, {})
    streams = per_section.get(section)
    if streams is None:
        streams = per_section[section] = _SectionStreams(trace, section)
    return streams


def simulate_branch_predictors(
    trace: Trace,
    configs: Sequence[BranchPredictorConfig],
    section: CodeSection = CodeSection.TOTAL,
) -> List[BranchPredictionResult]:
    """Measure many direction-predictor configurations on one trace section.

    Answered from the trace's shared :class:`_SectionStreams`: each
    loop-free predictor runs once per trace section, the loop predictor
    once, and every ``L-`` hybrid combines those passes.  Figure 5's
    nine configurations, Figure 6's gshare subset, the exploration
    presets and the Section V profiles over the same cached trace share
    them.  Every result is bit-identical to
    :func:`simulate_branch_predictor` on ``config.build()`` (asserted in
    the test suite).
    """
    streams = _section_streams(trace, section)
    return [streams.predictor(config) for config in configs]


def simulate_frontend_many(
    trace: Trace,
    configs: Sequence[FrontEndConfig],
    sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
) -> Dict[Tuple[str, CodeSection], FrontEndResult]:
    """Simulate many front-end configurations over one trace, batched.

    This is the multi-configuration engine.  Every structure is answered
    through the trace's shared :class:`_SectionStreams`, which outlive
    the call: each distinct predictor runs once per trace section, and
    each BTB or I-cache set count (per line size) is one stack-distance
    pass that serves every associativity.  Later calls over the same
    trace -- the other chunks of an exploration, other profiles --
    reuse that work, and identical sub-configurations share one result
    object.

    Returns ``(config.name, section) -> FrontEndResult``; every result
    is bit-identical to a per-config :func:`simulate_frontend` call on
    the reference simulators (asserted in the test suite).
    """
    results: Dict[Tuple[str, CodeSection], FrontEndResult] = {}
    for section in sections:
        streams = _section_streams(trace, section)
        for config in configs:
            results[(config.name, section)] = FrontEndResult(
                config_name=config.name,
                section=section,
                branch=streams.predictor(config.predictor),
                btb=streams.btb(config.btb),
                icache=streams.icache(config.icache),
            )
    return results
