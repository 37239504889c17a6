"""Experiment artifacts: the stored/emitted form of a result.

An *artifact* is the JSON-serializable distillation of one experiment
result, and it has one stored form (schema v2, built by
:func:`build_frame_artifact`): the rendered table blocks (exactly what
the CLI prints), the result's named columnar frames, and a declarative
payload spec.  Artifacts are what the content-addressed result store
persists and what the manifest directory emits as CSV+JSON, so a store
hit reproduces the original outputs bit for bit without re-running any
simulation.  Emission writes the table blocks as CSV
(:func:`write_artifact_csv`) and lowers the JSON to the historical v1
layout (:func:`rendered_artifact`); every reader of stored frames --
the orchestrator's outcomes, ``ExperimentPlan`` and the results
service -- goes through one lookup, :func:`stored_frame`.

This module is dependency-free on purpose (``repro.api.frame`` is
imported lazily): the experiment drivers, the store, and the
orchestrator all import it without creating a layering cycle.
"""

from __future__ import annotations

import csv
import enum
import json
import os
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Version of the *stored* artifact schema, folded into the result-store
#: key so a schema change invalidates stored entries instead of
#: corrupting readers.  Since v2 the payload is a set of named columnar
#: frames plus a declarative payload spec; the nested-dict payload of
#: v1 is *rendered* from the frames at emission time.
ARTIFACT_SCHEMA_VERSION = 2

#: Version of the *emitted* manifest JSON layout.  Emission renders the
#: stored frames back into the historical v1 layout so manifest files
#: stay byte-identical across the frame-native refactor.
RENDERED_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TableBlock:
    """One rendered table of an experiment artifact.

    ``title`` is the human-readable block header (may span lines, shown
    by the CLI); ``name`` is a short machine-readable block label used
    as the leading CSV column of multi-table artifacts (e.g. the
    scenario name of a ``cmpsweep`` block).
    """

    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]
    title: Optional[str] = None
    name: Optional[str] = None


def block(
    headers: Sequence[object],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    name: Optional[str] = None,
) -> TableBlock:
    """Build a :class:`TableBlock`, coercing every cell to a string."""
    return TableBlock(
        headers=tuple(str(header) for header in headers),
        rows=tuple(tuple(str(cell) for cell in row) for row in rows),
        title=title,
        name=name,
    )


def _key_string(key: object) -> str:
    """Deterministic string form of a mapping key for the payload."""
    if isinstance(key, str):
        return key
    if isinstance(key, enum.Enum):
        return key.name
    if isinstance(key, tuple):
        return ",".join(_key_string(part) for part in key)
    return str(key)


def to_jsonable(value: Any) -> Any:
    """Convert a result object into plain JSON-serializable data.

    Handles dataclasses (field by field), enums (by ``name``), mappings
    (keys stringified via :func:`_key_string`), sequences, and NumPy
    scalars/arrays (via ``item``/``tolist``); everything else must
    already be a JSON scalar.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {_key_string(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()  # NumPy scalar.
    if hasattr(value, "tolist"):
        return value.tolist()  # NumPy array.
    return str(value)


def nest_rows(
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    levels: Sequence[Sequence[str]],
    value: Optional[str] = None,
    value_columns: Optional[Sequence[str]] = None,
    key: Optional[Callable[[Any], Any]] = None,
) -> Dict[Any, Any]:
    """Pivot columnar rows into the historical nested-dict payload.

    ``levels`` names the key columns, outermost first; a single-column
    level keys on the cell itself, a multi-column level on the cell
    tuple, optionally passed through ``key`` (the payload renderer uses
    :func:`_key_string` here so serialized keys match the v1 layout).
    Leaves are the ``value`` column's cell, or -- when ``value`` is
    None -- a dict of the ``value_columns`` cells (default: every
    column not used as a level), in column order.
    """
    index = {name: position for position, name in enumerate(columns)}
    level_positions = [[index[name] for name in level] for level in levels]
    if value is not None:
        value_position = index[value]
        leaf_columns: List[Tuple[str, int]] = []
    else:
        value_position = -1
        used = {name for level in levels for name in level}
        if value_columns is None:
            value_columns = [name for name in columns if name not in used]
        leaf_columns = [(name, index[name]) for name in value_columns]
    root: Dict[Any, Any] = {}
    last = len(level_positions) - 1
    for row in rows:
        node = root
        for depth, positions in enumerate(level_positions):
            if len(positions) == 1:
                cell = row[positions[0]]
            else:
                cell = tuple(row[position] for position in positions)
            if key is not None:
                cell = key(cell)
            if depth == last:
                if value is not None:
                    node[cell] = row[value_position]
                else:
                    node[cell] = {
                        name: row[position] for name, position in leaf_columns
                    }
            else:
                node = node.setdefault(cell, {})
    return root


def _table_entries(blocks: Sequence[TableBlock]) -> List[Dict[str, Any]]:
    return [
        {
            "title": item.title,
            "name": item.name,
            "headers": list(item.headers),
            "rows": [list(row) for row in item.rows],
        }
        for item in blocks
    ]


def build_frame_artifact(experiment: str, title: str, result: Any) -> Dict[str, Any]:
    """Assemble the stored (v2) artifact of one experiment result.

    ``result`` is a :class:`repro.experiments.common.FrameResult`: its
    table blocks are rendered here from the result itself, its named
    frames are stored in their versioned columnar form, and the
    declarative payload spec (scalars carry their value; pivot entries
    describe how to rebuild the historical nested dict from a frame) is
    stored alongside so emission needs no driver code.
    """
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "experiment": experiment,
        "title": title,
        "tables": _table_entries(result.tables()),
        "primary": result.PRIMARY,
        "frames": result.serialized_frames(),
        "payload": result.payload_entries(),
    }


def rendered_payload(artifact: Mapping[str, Any]) -> Dict[str, Any]:
    """Render a v2 artifact's payload spec into the v1 nested dict."""
    payload: Dict[str, Any] = {}
    for entry in artifact["payload"]:
        if entry.get("frame") is None:
            payload[entry["name"]] = entry["value"]
        else:
            frame = artifact["frames"][entry["frame"]]
            payload[entry["name"]] = nest_rows(
                frame["columns"],
                frame["rows"],
                entry["levels"],
                entry.get("value"),
                entry.get("columns"),
                key=_key_string,
            )
    return payload


def rendered_artifact(artifact: Mapping[str, Any]) -> Dict[str, Any]:
    """The emitted (v1-layout) form of a stored artifact.

    Tables as stored, payload rendered from the frames, so manifest
    JSON stays byte-identical across the frame-native refactor.
    """
    return {
        "schema": RENDERED_SCHEMA_VERSION,
        "experiment": artifact["experiment"],
        "title": artifact["title"],
        "tables": artifact["tables"],
        "payload": rendered_payload(artifact),
    }


def stored_frame(
    artifact: Mapping[str, Any], name: Optional[str] = None
) -> Tuple[str, Any]:
    """One stored frame of an artifact as ``(name, ResultFrame)``.

    ``name`` defaults to the artifact's primary frame.  Raises
    :class:`KeyError` naming the stored frames when there is no such
    frame.
    """
    from repro.api.frame import ResultFrame

    frames = artifact.get("frames") or {}
    if name is None:
        name = artifact.get("primary")
    if name not in frames:
        known = ", ".join(sorted(frames)) or "none"
        raise KeyError(f"artifact has no frame {name!r} (stored: {known})")
    return str(name), ResultFrame.from_payload(frames[name])


def artifact_blocks(artifact: Dict[str, Any]) -> List[TableBlock]:
    """Reconstruct the table blocks of a (possibly disk-loaded) artifact."""
    return [
        TableBlock(
            headers=tuple(table["headers"]),
            rows=tuple(tuple(row) for row in table["rows"]),
            title=table.get("title"),
            name=table.get("name"),
        )
        for table in artifact["tables"]
    ]


def valid_artifact(artifact: Any, experiment: Optional[str] = None) -> bool:
    """Whether a value (e.g. loaded from disk) is a usable stored artifact.

    Only the stored frame-native schema (v2) is usable, validated down
    to each frame's columnar payload.
    """
    from repro.api.frame import ResultFrame

    if not isinstance(artifact, dict):
        return False
    if artifact.get("schema") != ARTIFACT_SCHEMA_VERSION:
        return False
    if experiment is not None and artifact.get("experiment") != experiment:
        return False
    tables = artifact.get("tables")
    if not isinstance(tables, list):
        return False
    for table in tables:
        if not isinstance(table, dict):
            return False
        if not isinstance(table.get("headers"), list):
            return False
        if not isinstance(table.get("rows"), list):
            return False
    frames = artifact.get("frames")
    if not isinstance(frames, dict) or not isinstance(artifact.get("payload"), list):
        return False
    for payload in frames.values():
        try:
            ResultFrame.from_payload(payload)
        except ValueError:
            return False
    return True


def write_artifact_json(artifact: Dict[str, Any], path: str) -> None:
    """Emit an artifact as a pretty-printed JSON file.

    The serialization is deterministic for a given artifact (insertion
    order is preserved by both ``json.dump`` and a disk-store round
    trip), so cold and store-served runs emit identical bytes.  v2
    (frame-native) artifacts are lowered to the historical v1 layout
    first via :func:`rendered_artifact`.
    """
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(rendered_artifact(artifact), stream, indent=2)
        stream.write("\n")


def write_artifact_csv(artifact: Dict[str, Any], path: str) -> None:
    """Emit an artifact's table blocks as one CSV file.

    A single-table artifact becomes a plain header+rows CSV.  The
    blocks of a multi-table artifact (``cmpsweep``) gain a leading
    ``table`` column carrying each block's short name (or its index),
    with the header row emitted once when every block agrees on it and
    per block otherwise, so rows always sit under the headers that
    describe them.  The bytes are identical to the historical writer
    (asserted in the test suite).
    """
    tables = artifact["tables"]
    multi = len(tables) > 1
    shared = len({tuple(table["headers"]) for table in tables}) == 1
    with open(path, "w", newline="", encoding="utf-8") as stream:
        writer = csv.writer(stream)
        for index, table in enumerate(tables):
            headers, rows = table["headers"], table["rows"]
            if multi:
                label = table.get("name") or str(index)
                headers = ["table", *headers]
                rows = [[label, *row] for row in rows]
            if index == 0 or not shared:
                writer.writerow(headers)
            writer.writerows(rows)


def ensure_directory(path: str) -> None:
    """Create a manifest/output directory if it does not exist."""
    os.makedirs(path, exist_ok=True)
