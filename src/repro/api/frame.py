"""Columnar result frames: the typed output of every executed plan.

A :class:`ResultFrame` is a small, dependency-free table -- named
columns over row tuples -- that every plan's ``execute()`` yields (see
:mod:`repro.api.plan`).  It is deliberately *not* a DataFrame clone: it
holds exactly what the experiment results need (deterministic CSV/JSON
emission, named column access, row iteration, slicing) and nothing
else, so the result store can depend on it from the bottom of the
layering without pulling in the session machinery.

A driver's result holds its frames, and a stored artifact keeps each
one in the versioned columnar form of :meth:`ResultFrame.to_payload`;
:func:`repro.results.artifacts.stored_frame` turns it back into a
frame for the orchestrator's outcomes, ``ExperimentPlan`` and the
results service.  The manifest's CSV is written from the artifact's
rendered table blocks, not from these frames.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Version of the columnar frame payload layout (``to_payload`` /
#: ``from_payload``).  Folded into the result-store key versions so a
#: layout change can never deserialize against stale disk entries.
FRAME_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ResultFrame:
    """An immutable named-column table of experiment results."""

    #: Column names, in emission order.
    columns: Tuple[str, ...]
    #: Row tuples; every row has exactly ``len(columns)`` cells.
    data: Tuple[Tuple[Any, ...], ...] = ()
    #: Optional human-readable title (kept in the stored payload).
    title: Optional[str] = None
    #: Index of each column name, built once.
    _index: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            duplicates = sorted(
                {name for name in self.columns if self.columns.count(name) > 1}
            )
            raise ValueError(
                f"duplicate column name(s): {', '.join(duplicates)}; "
                "named access requires unique columns"
            )
        for row in self.data:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {row!r} has {len(row)} cells, expected {len(self.columns)}"
                )
        self._index.update({name: i for i, name in enumerate(self.columns)})

    # -- construction ------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        columns: Sequence[str],
        rows: Sequence[Sequence[Any]],
        title: Optional[str] = None,
    ) -> "ResultFrame":
        """Build a frame from a column-name list and row sequences."""
        return cls(
            columns=tuple(str(name) for name in columns),
            data=tuple(tuple(row) for row in rows),
            title=title,
        )

    # -- access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.data)

    def rows(self) -> List[Tuple[Any, ...]]:
        """Every row, in order."""
        return list(self.data)

    def _position(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(
                f"no column {name!r}; frame has {', '.join(self.columns)}"
            )
        return self._index[name]

    def column(self, name: str) -> List[Any]:
        """One column's cells, in row order."""
        position = self._position(name)
        return [row[position] for row in self.data]

    def records(self) -> List[Dict[str, Any]]:
        """Every row as a column-name -> cell dict."""
        return [dict(zip(self.columns, row)) for row in self.data]

    def select(self, **equals: Any) -> "ResultFrame":
        """Rows whose named columns equal the given values."""
        positions = {self._position(name): value for name, value in equals.items()}
        kept = tuple(
            row
            for row in self.data
            if all(row[pos] == value for pos, value in positions.items())
        )
        return ResultFrame(columns=self.columns, data=kept, title=self.title)

    # -- serialization -----------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The versioned columnar JSON form stored in artifacts.

        Cells must already be JSON-serializable (the artifact builder
        runs them through :func:`repro.results.artifacts.to_jsonable`
        first); the layout is ``{"schema", "columns", "rows"}`` plus an
        optional ``"title"``.
        """
        payload: Dict[str, Any] = {
            "schema": FRAME_SCHEMA_VERSION,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.data],
        }
        if self.title is not None:
            payload["title"] = self.title
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ResultFrame":
        """Rebuild a frame from its stored columnar form.

        Raises :class:`ValueError` on any malformed payload (unknown
        schema version, missing keys, ragged rows) so the result
        store's corrupt-entry quarantine catches damaged disk entries.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"frame payload must be a mapping, got {type(payload).__name__}")
        if payload.get("schema") != FRAME_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported frame schema {payload.get('schema')!r} "
                f"(expected {FRAME_SCHEMA_VERSION})"
            )
        columns = payload.get("columns")
        rows = payload.get("rows")
        if not isinstance(columns, list) or not all(
            isinstance(name, str) for name in columns
        ):
            raise ValueError("frame payload 'columns' must be a list of strings")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("frame payload 'rows' must be a list of lists")
        return cls.from_rows(columns, rows, title=payload.get("title"))

    # -- emission ----------------------------------------------------

    def to_csv(self, path: Optional[str] = None) -> str:
        """Render (and optionally write) the frame as CSV.

        Uses the ``csv`` module's default dialect (CRLF line ends), like
        the manifest's CSV writer.
        """
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.data:
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="", encoding="utf-8") as stream:
                stream.write(text)
        return text

    def to_json(self, path: Optional[str] = None) -> str:
        """Render (and optionally write) the frame as pretty JSON."""
        payload = {
            "columns": list(self.columns),
            "rows": [list(row) for row in self.data],
        }
        if self.title is not None:
            payload["title"] = self.title
        text = json.dumps(payload, indent=2) + "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as stream:
                stream.write(text)
        return text
