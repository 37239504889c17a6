"""Dynamic trace containers.

The executor emits a stream of block executions; the :class:`Trace`
stores that stream **columnar** (structure-of-arrays): one NumPy array
each for block ids, branch outcomes, dynamic targets, and code
sections.  Together with the static per-block lookup arrays of
:mod:`repro.trace.columns` this makes the derived views the front-end
simulators consume -- instruction counts, per-branch records, block
execution counts -- O(1) vectorized gathers instead of per-event Python
loops, while the original event-object API (:class:`BlockEvent`
iteration, :class:`BranchRecord` lists) is synthesized on demand and
stays available for tests and external tooling.

This is the exact information a Pin instruction trace exposes to the
paper's pintools: instruction addresses and sizes, branch kinds,
outcomes, targets, and the serial/parallel section tag.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.trace.basic_block import BasicBlock
from repro.trace.columns import NO_TARGET, ProgramColumns, program_columns
from repro.trace.instruction import BranchKind, CodeSection
from repro.trace.program import Program

#: Enum lookup tables so row materialization avoids Enum.__call__.
_KIND_BY_CODE = {int(kind): kind for kind in BranchKind}
_SECTION_BY_CODE = {int(section): section for section in CodeSection}


class BlockEvent(NamedTuple):
    """One dynamic execution of a static basic block."""

    block_id: int
    taken: bool
    target: Optional[int]
    section: CodeSection


class BranchRecord(NamedTuple):
    """One dynamic branch instruction, fully resolved.

    Attributes
    ----------
    address:
        Address of the branch instruction itself.
    kind:
        The :class:`BranchKind` of the instruction.
    taken:
        Dynamic outcome (unconditional branches, calls, and returns are
        always taken).
    target:
        Target address when taken (``None`` only for syscalls).
    fallthrough:
        Address of the next sequential instruction.
    section:
        Serial or parallel code section.
    """

    address: int
    kind: BranchKind
    taken: bool
    target: Optional[int]
    fallthrough: int
    section: CodeSection

    @property
    def is_backward(self) -> bool:
        """Whether the taken target lies before the branch."""
        return self.target is not None and self.target < self.address

    @property
    def is_forward(self) -> bool:
        """Whether the taken target lies after the branch."""
        return self.target is not None and self.target >= self.address


class BranchColumns(NamedTuple):
    """Columnar view of the dynamic branches of one trace section.

    ``targets`` uses :data:`~repro.trace.columns.NO_TARGET` (-1) where a
    branch has no resolvable target (syscalls); otherwise dynamic
    targets take precedence over the statically-known taken target,
    exactly as in :class:`BranchRecord` materialization.
    """

    addresses: np.ndarray
    kinds: np.ndarray
    taken: np.ndarray
    targets: np.ndarray
    fallthroughs: np.ndarray
    sections: np.ndarray
    is_conditional: np.ndarray

    def __len__(self) -> int:
        return int(self.addresses.shape[0])


class Trace(object):
    """A dynamic instruction trace of one workload execution.

    The trace stores block-granularity events as NumPy columns
    (compact) and offers the per-branch and per-instruction views that
    the analysis tools and the hardware-structure simulators need.
    Filtering by :class:`CodeSection` reproduces the paper's total /
    serial / parallel split.

    Every column query reads the static per-block arrays in
    :attr:`static`.  A generated trace takes them from its program; a
    trace loaded from the disk cache is given them (``static=``) and is
    handed a zero-argument callable instead of a program, which
    :attr:`program` calls on first access -- only block-object views
    (:meth:`blocks_for`) ask for it.  Such a trace must be given its
    ``name``.
    """

    def __init__(
        self,
        program: Union[Program, Callable[[], Program]],
        events: Optional[Sequence[BlockEvent]] = None,
        name: str = "",
        *,
        columns: Optional[tuple] = None,
        static: Optional[ProgramColumns] = None,
    ) -> None:
        if callable(program):
            self._program: Optional[Program] = None
            self._load_program: Optional[Callable[[], Program]] = program
        else:
            self._program = program
            self._load_program = None
            name = name or program.name
        self.name = name
        self._static = static
        if columns is not None:
            block_ids, taken, targets, sections = columns
            self._block_ids = np.asarray(block_ids, dtype=np.int64)
            self._taken = np.asarray(taken, dtype=np.bool_)
            self._targets = np.asarray(targets, dtype=np.int64)
            self._section_codes = np.asarray(sections, dtype=np.uint8)
        else:
            events = list(events or [])
            n = len(events)
            self._block_ids = np.fromiter(
                (e.block_id for e in events), dtype=np.int64, count=n
            )
            self._taken = np.fromiter(
                (e.taken for e in events), dtype=np.bool_, count=n
            )
            self._targets = np.fromiter(
                (NO_TARGET if e.target is None else e.target for e in events),
                dtype=np.int64,
                count=n,
            )
            self._section_codes = np.fromiter(
                (int(e.section) for e in events), dtype=np.uint8, count=n
            )
        self._events: Optional[tuple] = None
        self._instruction_counts: Optional[Dict[CodeSection, int]] = None
        self._branch_cache: Dict[CodeSection, List[BranchRecord]] = {}
        self._branch_columns: Dict[CodeSection, BranchColumns] = {}
        self._event_masks: Dict[CodeSection, Optional[np.ndarray]] = {}

    @classmethod
    def from_columns(
        cls,
        program: Union[Program, Callable[[], Program]],
        block_ids,
        taken,
        targets,
        sections,
        name: str = "",
        *,
        static: Optional[ProgramColumns] = None,
    ) -> "Trace":
        """Build a trace directly from event columns (the fast path)."""
        return cls(
            program,
            name=name,
            columns=(block_ids, taken, targets, sections),
            static=static,
        )

    @property
    def program(self) -> Program:
        """The static program the trace executed (resolved on first access)."""
        if self._program is None:
            self._program = self._load_program()
            self._load_program = None
        return self._program

    @property
    def static(self) -> ProgramColumns:
        """Static per-block arrays of the program, indexed by block id."""
        if self._static is None:
            self._static = program_columns(self.program)
        return self._static

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    @property
    def block_ids(self) -> np.ndarray:
        """Per-event static block ids (int64)."""
        return self._block_ids

    @property
    def taken_column(self) -> np.ndarray:
        """Per-event branch outcomes (bool)."""
        return self._taken

    @property
    def target_column(self) -> np.ndarray:
        """Per-event dynamic targets (int64, -1 for none)."""
        return self._targets

    @property
    def section_column(self) -> np.ndarray:
        """Per-event section codes (uint8)."""
        return self._section_codes

    def _section_mask(self, section: CodeSection) -> Optional[np.ndarray]:
        """Boolean event mask of a section (None means all events)."""
        if section is CodeSection.TOTAL:
            return None
        if section not in self._event_masks:
            self._event_masks[section] = self._section_codes == int(section)
        return self._event_masks[section]

    def event_columns(self, section: CodeSection = CodeSection.TOTAL):
        """Event columns ``(block_ids, taken, targets, sections)`` of a section."""
        mask = self._section_mask(section)
        if mask is None:
            return self._block_ids, self._taken, self._targets, self._section_codes
        return (
            self._block_ids[mask],
            self._taken[mask],
            self._targets[mask],
            self._section_codes[mask],
        )

    # ------------------------------------------------------------------
    # Basic accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._block_ids.shape[0])

    def instruction_count(self, section: CodeSection = CodeSection.TOTAL) -> int:
        """Dynamic instruction count of a code section."""
        counts = self._count_instructions()
        if section is CodeSection.TOTAL:
            return counts[CodeSection.SERIAL] + counts[CodeSection.PARALLEL]
        return counts[section]

    def _count_instructions(self) -> Dict[CodeSection, int]:
        if self._instruction_counts is None:
            if len(self) == 0:
                self._instruction_counts = {
                    CodeSection.SERIAL: 0,
                    CodeSection.PARALLEL: 0,
                }
                return self._instruction_counts
            per_event = self.static.num_instructions[self._block_ids]
            total = int(per_event.sum())
            serial = int(
                per_event[self._section_codes == int(CodeSection.SERIAL)].sum()
            )
            self._instruction_counts = {
                CodeSection.SERIAL: serial,
                CodeSection.PARALLEL: total - serial,
            }
        return self._instruction_counts

    def section_fraction(self, section: CodeSection) -> float:
        """Fraction of dynamic instructions executed in a section."""
        total = self.instruction_count(CodeSection.TOTAL)
        if total == 0:
            return 0.0
        return self.instruction_count(section) / total

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple:
        """Event-object view, synthesized lazily from the columns.

        Read-only: the columns are the source of truth, so the view is
        a tuple -- mutating it (the old ``List[BlockEvent]`` allowed
        appends that now would silently diverge from the columns)
        raises instead.
        """
        if self._events is None:
            sections = [_SECTION_BY_CODE[s] for s in self._section_codes.tolist()]
            self._events = tuple(
                BlockEvent(b, t, None if g == NO_TARGET else g, s)
                for b, t, g, s in zip(
                    self._block_ids.tolist(),
                    self._taken.tolist(),
                    self._targets.tolist(),
                    sections,
                )
            )
        return self._events

    def block_events(
        self, section: CodeSection = CodeSection.TOTAL
    ) -> Iterator[BlockEvent]:
        """Iterate block events, optionally restricted to one section."""
        if section is CodeSection.TOTAL:
            yield from self.events
        else:
            for event in self.events:
                if event.section is section:
                    yield event

    def blocks_for(self, event: BlockEvent) -> BasicBlock:
        """The static block an event refers to."""
        return self.program.blocks[event.block_id]

    def branch_columns(
        self, section: CodeSection = CodeSection.TOTAL
    ) -> BranchColumns:
        """Columnar view of the dynamic branches of a section, in order."""
        if section not in self._branch_columns:
            block_ids, taken, targets, sections = self.event_columns(section)
            static = self.static
            mask = static.is_branch[block_ids]
            branch_ids = block_ids[mask]
            dynamic_targets = targets[mask]
            static_targets = static.taken_targets[branch_ids]
            resolved = np.where(
                dynamic_targets != NO_TARGET, dynamic_targets, static_targets
            )
            self._branch_columns[section] = BranchColumns(
                addresses=static.branch_addresses[branch_ids],
                kinds=static.terminators[branch_ids],
                taken=taken[mask],
                targets=resolved,
                fallthroughs=static.fallthrough_addresses[branch_ids],
                sections=sections[mask],
                is_conditional=static.is_conditional[branch_ids],
            )
        return self._branch_columns[section]

    def branch_records(
        self, section: CodeSection = CodeSection.TOTAL
    ) -> List[BranchRecord]:
        """All dynamic branch instructions of a section, in order."""
        if section not in self._branch_cache:
            cols = self.branch_columns(section)
            kinds = [_KIND_BY_CODE[k] for k in cols.kinds.tolist()]
            sections = [_SECTION_BY_CODE[s] for s in cols.sections.tolist()]
            self._branch_cache[section] = [
                BranchRecord(
                    address=address,
                    kind=kind,
                    taken=taken,
                    target=None if target == NO_TARGET else target,
                    fallthrough=fallthrough,
                    section=sec,
                )
                for address, kind, taken, target, fallthrough, sec in zip(
                    cols.addresses.tolist(),
                    kinds,
                    cols.taken.tolist(),
                    cols.targets.tolist(),
                    cols.fallthroughs.tolist(),
                    sections,
                )
            ]
        return self._branch_cache[section]

    def branch_count(self, section: CodeSection = CodeSection.TOTAL) -> int:
        """Number of dynamic branch instructions in a section."""
        return len(self.branch_columns(section))

    def conditional_branches(
        self, section: CodeSection = CodeSection.TOTAL
    ) -> List[BranchRecord]:
        """Only the conditional direct branches of a section."""
        return [
            record
            for record in self.branch_records(section)
            if record.kind.is_conditional
        ]

    def block_execution_counts(
        self, section: CodeSection = CodeSection.TOTAL
    ) -> Dict[int, int]:
        """How many times each static block executed in a section.

        The mapping preserves first-execution order, matching the
        insertion order the event-walking implementation produced.
        """
        block_ids, _, _, _ = self.event_columns(section)
        if block_ids.shape[0] == 0:
            return {}
        unique, first_seen, counts = np.unique(
            block_ids, return_index=True, return_counts=True
        )
        order = np.argsort(first_seen, kind="stable")
        unique_list = unique[order].tolist()
        count_list = counts[order].tolist()
        return dict(zip(unique_list, count_list))

    def mpki(self, misses: int, section: CodeSection = CodeSection.TOTAL) -> float:
        """Convert a miss count to misses per kilo-instruction."""
        instructions = self.instruction_count(section)
        if instructions == 0:
            return 0.0
        return misses * 1000.0 / instructions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, events={len(self)}, "
            f"instructions={self.instruction_count()})"
        )
