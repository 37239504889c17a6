"""Shared plumbing for the experiment drivers.

The drivers take their traces from :mod:`repro.workloads.trace_cache`
and their sweeps from :meth:`repro.api.session.Session.map`; this
module holds the workload selection helpers and small formatting
utilities they share.

It also owns the frame-native result layer shared by every driver:
:class:`FrameResult` (a result base class whose payload is a set of
named :class:`~repro.api.frame.ResultFrame` columns), the declarative
:class:`PayloadField` spec that maps frames back onto the historical
nested-dict payload layout, and the :class:`RowView` /
:class:`PivotView` table renderers through which every result renders
its own table blocks (:meth:`FrameResult.tables`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.frame import ResultFrame
from repro.results.artifacts import TableBlock, block, nest_rows
from repro.trace.instruction import CodeSection
from repro.workloads.catalog import select_workloads
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import SUITE_ORDER, Suite
from repro.workloads.trace_cache import DEFAULT_PROFILE_INSTRUCTIONS

__all__ = [
    # Sweep and selection helpers owned by this module.
    "DEFAULT_EXPERIMENT_INSTRUCTIONS",
    "SECTION_ORDER",
    "default_workload_names",
    "experiment_instructions",
    "format_table",
    "mean",
    "normalize_to_reference",
    "render_blocks",
    "sections_for",
    "suite_label_map",
    # Frame-native result layer shared by the drivers.
    "FrameResult",
    "PayloadField",
    "PivotView",
    "RowView",
    "fixed",
    "nest",
    "percent",
    "suite_cell",
    "section_cell",
]

#: Default dynamic trace length used by the experiment drivers (alias
#: of the trace-cache default so both layers agree on what a cached
#: "experiment length" trace is).
DEFAULT_EXPERIMENT_INSTRUCTIONS = DEFAULT_PROFILE_INSTRUCTIONS


def experiment_instructions(instructions: Optional[int]) -> int:
    """Resolve a driver's instruction budget.

    ``None`` means "the current session decides" -- as it always does
    for a sweep's execution policy -- so ``run_fig01()`` under
    ``Session(instructions=N).activate()`` uses ``N`` exactly like
    ``session.experiment("fig1")`` does.  With no session active this
    resolves from ``REPRO_INSTRUCTIONS`` or the default
    (:data:`DEFAULT_EXPERIMENT_INSTRUCTIONS`).
    """
    if instructions is not None:
        return int(instructions)
    from repro.api.session import current_session

    return current_session().config.instructions

#: The sections reported by the per-suite figures, in bar order.
SECTION_ORDER = (CodeSection.TOTAL, CodeSection.SERIAL, CodeSection.PARALLEL)


def sections_for(spec: WorkloadSpec) -> List[CodeSection]:
    """Sections reported for a workload (desktop codes have no split)."""
    if spec.suite.is_desktop:
        return [CodeSection.TOTAL]
    return list(SECTION_ORDER)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean with an empty-sequence guard."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def normalize_to_reference(
    values: Mapping[str, float], reference: str
) -> Dict[str, float]:
    """Normalize a name->value mapping to one reference entry.

    Used by every CMP comparison (Figures 10/11 and the ``cmpsweep``
    scenarios) so they share one zero-guard: a zero (or missing-as-zero)
    reference yields all-zero ratios instead of a division error.
    """
    scale = values[reference]
    return {
        name: (value / scale if scale else 0.0) for name, value in values.items()
    }


def default_workload_names() -> tuple:
    """Names of the full 41-workload catalog, in suite order.

    The default workload set of every whole-catalog experiment; the
    orchestrator folds it into the content-addressed result key.
    """
    return tuple(spec.name for spec in select_workloads())


def render_blocks(blocks: Sequence[TableBlock]) -> str:
    """Render experiment table blocks the way the CLI prints them.

    The CLI prints ``render_blocks(result.tables())``, so the text
    output and the CSV/JSON manifest emission share one source of truth
    (the blocks the result renders from its frames).
    """
    parts = []
    for item in blocks:
        table = format_table(item.headers, item.rows)
        parts.append(f"{item.title}\n{table}" if item.title else table)
    return "\n\n".join(parts)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a small fixed-width text table."""
    columns = len(headers)
    widths = [len(str(header)) for header in headers]
    for row in rows:
        for index in range(columns):
            widths[index] = max(widths[index], len(str(row[index])))
    lines = []
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def suite_label_map() -> Dict[Suite, str]:
    """Suite display labels in figure order."""
    return {suite: suite.label for suite in SUITE_ORDER}


# ---------------------------------------------------------------------------
# Frame-native result layer
# ---------------------------------------------------------------------------
#
# Every driver's result is a FrameResult: a thin typed wrapper over
# named ResultFrames (one frame per logical table) plus a declarative
# PAYLOAD spec that maps the frames back onto the historical
# nested-dict payload layout (both for the in-memory legacy attribute
# accessors and -- via repro.results.artifacts.nest_rows over the
# *serialized* frames -- for the byte-identical manifest JSON).


def fixed(digits: int) -> Callable[[Any], str]:
    """Cell formatter: fixed-point with ``digits`` decimals."""

    def render(value: Any) -> str:
        return f"{value:.{digits}f}"

    return render


def percent(digits: int, suffix: str = "") -> Callable[[Any], str]:
    """Cell formatter: fraction -> percent with ``digits`` decimals."""

    def render(value: Any) -> str:
        return f"{100 * value:.{digits}f}{suffix}"

    return render


def suite_cell(value: Suite) -> str:
    """Cell formatter: suite display label."""
    return value.label


def section_cell(value: CodeSection) -> str:
    """Cell formatter: code-section display label."""
    return value.label


def nest(
    frame: ResultFrame,
    levels: Sequence[Sequence[str]],
    value: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> Dict[Any, Any]:
    """Pivot a frame into the historical nested-dict payload shape.

    ``levels`` names the key columns, outermost first; a single-column
    level keys on the cell itself (enum members stay enum members), a
    multi-column level keys on the cell tuple.  Leaves are the ``value``
    column's cell, or a dict of the ``columns`` cells (default: every
    column not used as a level), in frame column order.
    """
    return nest_rows(frame.columns, frame.data, levels, value, columns)


@dataclass(frozen=True)
class PayloadField:
    """One entry of a result's historical payload layout.

    A *scalar* field (``frame is None``) is a real attribute of the
    result dataclass, serialized verbatim.  A *pivot* field
    reconstructs a nested dict from one of the result's frames via
    :func:`nest`; the same spec is stored inside the artifact so the
    manifest writer can render the identical dict from the serialized
    frame without any driver code.
    """

    name: str
    frame: Optional[str] = None
    levels: Tuple[Tuple[str, ...], ...] = ()
    value: Optional[str] = None
    columns: Optional[Tuple[str, ...]] = None

    @classmethod
    def scalar(cls, name: str) -> "PayloadField":
        return cls(name=name)

    @classmethod
    def pivot(
        cls,
        name: str,
        frame: str,
        levels: Sequence[Sequence[str]],
        value: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> "PayloadField":
        return cls(
            name=name,
            frame=frame,
            levels=tuple(tuple(level) for level in levels),
            value=value,
            columns=tuple(columns) if columns is not None else None,
        )

    def spec(self) -> Dict[str, Any]:
        """The JSON form stored in the artifact (pivot fields only)."""
        entry: Dict[str, Any] = {
            "name": self.name,
            "frame": self.frame,
            "levels": [list(level) for level in self.levels],
        }
        if self.value is not None:
            entry["value"] = self.value
        if self.columns is not None:
            entry["columns"] = list(self.columns)
        return entry


@dataclass(frozen=True)
class RowView:
    """A table view that renders one frame row per table row.

    ``columns`` maps source columns to ``(source, header, formatter)``
    triples, in table order.
    """

    frame: str
    columns: Tuple[Tuple[str, str, Callable[[Any], str]], ...]
    title: Optional[str] = None
    name: Optional[str] = None

    def block(self, frames: Mapping[str, ResultFrame]) -> TableBlock:
        source = frames[self.frame]
        positions = [source._position(src) for src, _, _ in self.columns]
        headers = [header for _, header, _ in self.columns]
        rows = [
            [
                render(row[position])
                for position, (_, _, render) in zip(positions, self.columns)
            ]
            for row in source.data
        ]
        return block(headers, rows, title=self.title, name=self.name)


@dataclass(frozen=True)
class PivotView:
    """A table view that pivots key columns into table columns.

    Rows are grouped by the ``index`` columns (first-seen order); each
    distinct ``key`` column tuple becomes one table column (first-seen
    order, headed by ``header(key_tuple)``) holding the formatted
    ``value`` cell.  ``extra`` appends trailing columns joined from
    another frame on the shared index column names, and ``filter``
    restricts the source frame first (used by the per-scenario
    ``cmpsweep`` blocks).
    """

    frame: str
    index: Tuple[Tuple[str, str, Callable[[Any], str]], ...]
    key: Tuple[str, ...]
    value: str
    header: Callable[[Tuple[Any, ...]], str]
    cell: Callable[[Any], str]
    extra: Tuple[Tuple[str, str, str, Callable[[Any], str]], ...] = ()
    filter: Optional[Tuple[Tuple[str, Any], ...]] = None
    title: Optional[str] = None
    name: Optional[str] = None

    def block(self, frames: Mapping[str, ResultFrame]) -> TableBlock:
        source = frames[self.frame]
        if self.filter:
            source = source.select(**dict(self.filter))
        index_positions = [source._position(src) for src, _, _ in self.index]
        key_positions = [source._position(column) for column in self.key]
        value_position = source._position(self.value)
        index_order: List[Tuple[Any, ...]] = []
        key_order: List[Tuple[Any, ...]] = []
        cells: Dict[Tuple[Any, ...], Dict[Tuple[Any, ...], Any]] = {}
        for row in source.data:
            index_key = tuple(row[p] for p in index_positions)
            pivot_key = tuple(row[p] for p in key_positions)
            if index_key not in cells:
                cells[index_key] = {}
                index_order.append(index_key)
            if pivot_key not in cells[index_key]:
                cells[index_key][pivot_key] = row[value_position]
            if pivot_key not in key_order:
                key_order.append(pivot_key)
        joins = []
        for frame_name, column, header, render in self.extra:
            other = frames[frame_name]
            join_positions = [other._position(src) for src, _, _ in self.index]
            value_at = other._position(column)
            lookup = {
                tuple(row[p] for p in join_positions): row[value_at]
                for row in other.data
            }
            joins.append((lookup, header, render))
        headers = [header for _, header, _ in self.index]
        headers += [self.header(key) for key in key_order]
        headers += [header for _, header, _ in joins]
        rows = []
        for index_key in index_order:
            row = [
                render(part)
                for part, (_, _, render) in zip(index_key, self.index)
            ]
            row += [self.cell(cells[index_key][key]) for key in key_order]
            row += [render(lookup[index_key]) for lookup, _, render in joins]
            rows.append(row)
        return block(headers, rows, title=self.title, name=self.name)


class FrameResult:
    """Base class for frame-native experiment results.

    Subclasses are dataclasses holding their true scalar fields plus a
    ``frames`` dict of named :class:`ResultFrame` payloads, and declare:

    ``PRIMARY``
        The name of the canonical frame (what ``ExperimentPlan.frame()``
        and the CLI serve by default).
    ``PAYLOAD``
        :class:`PayloadField` entries reproducing the historical
        nested-dict payload, in its exact field order.  Pivot entries
        double as attribute accessors: ``result.mpki`` rebuilds the
        legacy ``Dict[Suite, ...]`` from the in-memory frame.
    ``VIEWS``
        :class:`RowView` / :class:`PivotView` entries rendering the
        experiment's table blocks (override :meth:`views` when the
        views depend on the data, as ``cmpsweep`` does).
    """

    PRIMARY: str = ""
    PAYLOAD: Tuple[PayloadField, ...] = ()
    VIEWS: Tuple[Any, ...] = ()

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__") or name == "frames":
            raise AttributeError(name)
        for entry in type(self).PAYLOAD:
            if entry.name == name and entry.frame is not None:
                return nest(
                    self.frames[entry.frame], entry.levels, entry.value, entry.columns
                )
        raise AttributeError(
            f"{type(self).__name__} has no attribute {name!r}"
        )

    def views(self) -> Sequence[Any]:
        return type(self).VIEWS

    def tables(self) -> List[TableBlock]:
        """The experiment's table blocks, rendered from the frames."""
        return [view.block(self.frames) for view in self.views()]

    def payload_entries(self) -> List[Dict[str, Any]]:
        """The artifact's payload spec (scalars carry their value)."""
        from repro.results.artifacts import to_jsonable

        entries: List[Dict[str, Any]] = []
        for field_spec in type(self).PAYLOAD:
            if field_spec.frame is None:
                entries.append(
                    {
                        "name": field_spec.name,
                        "value": to_jsonable(getattr(self, field_spec.name)),
                    }
                )
            else:
                entries.append(field_spec.spec())
        return entries

    def serialized_frames(self) -> Dict[str, Dict[str, Any]]:
        """Every frame in its versioned columnar JSON form."""
        from repro.results.artifacts import to_jsonable

        return {
            name: to_jsonable(frame.to_payload())
            for name, frame in self.frames.items()
        }
