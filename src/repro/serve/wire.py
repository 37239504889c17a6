"""Wire encoding of the results service: frames in, HTTP bodies out.

Hit responses carry a :class:`~repro.api.frame.ResultFrame` as JSON
(``{"experiment", "key", "frame", "columns", "rows"}``) or CSV,
negotiated from ``?format=`` (which wins) or the ``Accept`` header.
Both encodings are deterministic functions of the stored artifact, so
a response served through ``/job/<id>`` after a cold miss is
byte-identical to the warm ``/experiment/...`` response for the same
request -- the CI byte-diff relies on this.

Slicing (``?columns=``, ``?where=``, and the ``?workload=`` shorthand)
happens here, on the reconstructed frame, so every experiment's payload
supports it with no per-experiment glue.  Malformed parameters raise
:class:`HttpError` with a machine-readable ``code``; the server renders
those as typed JSON error bodies.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, unquote

from repro.api.frame import ResultFrame
from repro.results.artifacts import stored_frame

JSON_TYPE = "application/json"
CSV_TYPE = "text/csv; charset=utf-8"

#: ``?format=`` values and the Accept substrings that select them.
_FORMATS = ("json", "csv")


class HttpError(Exception):
    """A typed HTTP failure: status plus a machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def body(self) -> bytes:
        return dump_json({"error": {"code": self.code, "message": self.message}})


def dump_json(value: Any) -> bytes:
    """The service's one JSON encoding (deterministic, compact)."""
    return (
        json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def parse_query(raw: str) -> Dict[str, List[str]]:
    """Decode a raw query string into a name -> values mapping."""
    try:
        return parse_qs(raw, keep_blank_values=True, strict_parsing=False)
    except ValueError as error:  # pragma: no cover - parse_qs is lenient
        raise HttpError(400, "bad-query", f"malformed query string: {error}")


def single_param(params: Mapping[str, List[str]], name: str) -> Optional[str]:
    """The single value of a parameter, or ``None`` when absent."""
    values = params.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise HttpError(
            400, "bad-parameter", f"parameter {name!r} given more than once"
        )
    return values[0]


def int_param(
    params: Mapping[str, List[str]],
    name: str,
    default: int,
    minimum: int = 1,
) -> int:
    """A positive-integer parameter with a typed 400 on garbage."""
    raw = single_param(params, name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise HttpError(
            400, "bad-parameter", f"parameter {name!r} must be an integer, got {raw!r}"
        )
    if value < minimum:
        raise HttpError(
            400, "bad-parameter", f"parameter {name!r} must be >= {minimum}, got {value}"
        )
    return value


def float_param(
    params: Mapping[str, List[str]],
    name: str,
    default: float,
    maximum: Optional[float] = None,
) -> float:
    """A non-negative float parameter (clamped to ``maximum``)."""
    raw = single_param(params, name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise HttpError(
            400, "bad-parameter", f"parameter {name!r} must be a number, got {raw!r}"
        )
    if value < 0:
        raise HttpError(
            400, "bad-parameter", f"parameter {name!r} must be >= 0, got {value}"
        )
    if maximum is not None:
        value = min(value, maximum)
    return value


def negotiate_format(
    params: Mapping[str, List[str]], accept: Optional[str]
) -> str:
    """``json`` or ``csv``: ``?format=`` wins, then the Accept header."""
    explicit = single_param(params, "format")
    if explicit is not None:
        if explicit not in _FORMATS:
            raise HttpError(
                400,
                "bad-parameter",
                f"parameter 'format' must be one of {', '.join(_FORMATS)}, "
                f"got {explicit!r}",
            )
        return explicit
    if accept and "text/csv" in accept and JSON_TYPE not in accept:
        return "csv"
    return "json"


def _parse_where(params: Mapping[str, List[str]]) -> List[Tuple[str, str]]:
    """``where=column:value`` filters plus the ``workload=`` shorthand."""
    filters: List[Tuple[str, str]] = []
    for raw in params.get("where", []):
        column, separator, value = raw.partition(":")
        if not separator or not column:
            raise HttpError(
                400,
                "bad-parameter",
                f"parameter 'where' must look like column:value, got {raw!r}",
            )
        filters.append((unquote(column), unquote(value)))
    workload = single_param(params, "workload")
    if workload is not None:
        filters.append(("workload", workload))
    return filters


def slice_frame(frame: ResultFrame, params: Mapping[str, List[str]]) -> ResultFrame:
    """Apply ``where``/``workload`` filters and a ``columns`` projection.

    Filter values compare against the string form of each cell, so
    ``where=btb_entries:256`` matches the integer cell ``256`` without
    the caller knowing column types.  Unknown columns are typed 400s.
    """
    filters = _parse_where(params)
    for column, value in filters:
        if column not in frame.columns:
            raise HttpError(
                400,
                "unknown-column",
                f"no column {column!r}; frame has {', '.join(frame.columns)}",
            )
        position = frame.columns.index(column)
        frame = ResultFrame(
            columns=frame.columns,
            data=tuple(
                row for row in frame.data if str(row[position]) == value
            ),
            title=frame.title,
        )
    raw_columns = single_param(params, "columns")
    if raw_columns is not None:
        requested = [name.strip() for name in raw_columns.split(",") if name.strip()]
        if not requested:
            raise HttpError(
                400, "bad-parameter", "parameter 'columns' selects no columns"
            )
        unknown = [name for name in requested if name not in frame.columns]
        if unknown:
            raise HttpError(
                400,
                "unknown-column",
                f"no column(s) {', '.join(unknown)}; "
                f"frame has {', '.join(frame.columns)}",
            )
        positions = [frame.columns.index(name) for name in requested]
        frame = ResultFrame(
            columns=tuple(requested),
            data=tuple(
                tuple(row[position] for position in positions)
                for row in frame.data
            ),
            title=frame.title,
        )
    return frame


def artifact_frame(artifact: Mapping[str, Any], name: Optional[str]) -> Tuple[str, ResultFrame]:
    """One stored payload frame of an artifact (default: its primary).

    :func:`repro.results.artifacts.stored_frame` with its
    :class:`KeyError` turned into a typed 400 ``unknown-frame``.
    """
    try:
        return stored_frame(artifact, name)
    except KeyError as error:
        raise HttpError(400, "unknown-frame", error.args[0]) from None


def frame_body(
    experiment: str,
    key: str,
    frame_name: str,
    frame: ResultFrame,
    format: str,
) -> Tuple[str, bytes]:
    """Encode one (possibly sliced) frame as a response body.

    Returns ``(content_type, body)``.  The JSON layout is the frame's
    columnar form plus its provenance -- enough for a client to verify
    it received exactly the store entry it asked for.
    """
    if format == "csv":
        return CSV_TYPE, frame.to_csv().encode("utf-8")
    return JSON_TYPE, dump_json(
        {
            "experiment": experiment,
            "key": key,
            "frame": frame_name,
            "columns": list(frame.columns),
            "rows": [list(row) for row in frame.data],
        }
    )
