"""Columnar result frames: the typed output of every executed plan.

A :class:`ResultFrame` is a small, dependency-free table -- named
columns over row tuples -- that every :class:`~repro.api.plan.Plan`
yields and that the orchestrator's artifact writer consumes directly.
It is deliberately *not* a DataFrame clone: it holds exactly what the
experiment artifacts need (deterministic CSV/JSON emission, named
column access, row iteration) and nothing else, so the result store
and the manifest writer can depend on it from the bottom of the
layering without pulling in the session machinery.

Frames round-trip through the stored artifact form
(:func:`ResultFrame.from_artifact` / the ``tables`` blocks built by
:func:`repro.results.artifacts.build_frame_artifact`), and the CSV emission
is bit-identical to the historical ``write_artifact_csv`` output --
asserted in the test suite.
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
    #: Optional human-readable title (carried from the artifact block).
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

    @classmethod
    def from_artifact(cls, artifact: Mapping[str, Any]) -> "ResultFrame":
        """One frame covering every table block of a stored artifact.

        Single-block artifacts map one-to-one.  Multi-block artifacts
        that agree on their headers (e.g. the per-scenario ``cmpsweep``
        tables) gain a leading ``table`` column carrying each block's
        short name, exactly mirroring the CSV the manifest emits.
        Multi-block artifacts with differing headers cannot be one
        table; use :func:`artifact_frames` for those.
        """
        frames = artifact_frames(artifact)
        if len(frames) == 1:
            return frames[0]
        try:
            return cls.concat(frames, title=artifact.get("title"))
        except ValueError as error:
            raise ValueError(
                "artifact blocks disagree on headers; use artifact_frames()"
            ) from error

    @classmethod
    def concat(
        cls,
        frames: "Sequence[ResultFrame]",
        title: Optional[str] = None,
    ) -> "ResultFrame":
        """Concatenate frames that agree on their columns, in order."""
        frames = list(frames)
        if not frames:
            raise ValueError("cannot concatenate zero frames")
        if len({frame.columns for frame in frames}) != 1:
            raise ValueError("frames disagree on columns")
        combined: List[Tuple[Any, ...]] = []
        for frame in frames:
            combined.extend(frame.data)
        return cls(columns=frames[0].columns, data=tuple(combined), title=title)

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

        Uses the same ``csv`` module configuration as the manifest
        writer, so a frame reconstructed from an artifact emits the
        identical bytes.
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


def artifact_frames(artifact: Mapping[str, Any]) -> List[ResultFrame]:
    """One frame per table block of a stored artifact.

    For multi-block artifacts every frame gains the leading ``table``
    column (carrying the block's short name, or its index when the
    block is unnamed), matching the manifest CSV layout.
    """
    tables = list(artifact.get("tables") or [])
    multi = len(tables) > 1
    frames: List[ResultFrame] = []
    for index, table in enumerate(tables):
        headers = [str(h) for h in table.get("headers") or []]
        rows = [list(row) for row in table.get("rows") or []]
        if multi:
            label = table.get("name") or str(index)
            headers = ["table"] + headers
            rows = [[label] + row for row in rows]
        frames.append(
            ResultFrame.from_rows(headers, rows, title=table.get("title"))
        )
    return frames


def write_frames_csv(frames: Sequence[ResultFrame], path: str) -> None:
    """Emit frames into one CSV file, the manifest writer's format.

    A single frame becomes a plain header+rows CSV.  Multiple frames
    share one header row when they agree on it and re-emit the header
    per frame otherwise, so rows always sit under the headers that
    describe them -- byte-identical to the historical artifact CSV.
    """
    shared = len({frame.columns for frame in frames}) == 1
    with open(path, "w", newline="", encoding="utf-8") as stream:
        writer = csv.writer(stream)
        for index, frame in enumerate(frames):
            if index == 0 or not shared:
                writer.writerow(frame.columns)
            writer.writerows(frame.data)
