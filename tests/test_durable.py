"""The durable-write helpers every persistence layer writes through.

First writer wins under a real multi-process race, a failed replace
leaves the old file and no temporary behind, a write never creates a
directory, and set-aside evidence never clobbers earlier evidence.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import durable

WRITERS = 4
SIZE = 256 * 1024


def _racer(path, writer, start, results):
    """One racing process: wait for the start, then publish its bytes."""
    data = bytes([writer]) * SIZE
    start.wait(timeout=60)
    results.put((writer, durable.write_link(path, data)))


class TestWriteLink:
    def test_forked_writers_race_and_exactly_one_wins_whole(self, tmp_path):
        path = str(tmp_path / "entry")
        context = multiprocessing.get_context("fork")
        start = context.Event()
        results = context.Queue()
        processes = [
            context.Process(target=_racer, args=(path, writer, start, results))
            for writer in range(1, WRITERS + 1)
        ]
        for process in processes:
            process.start()
        start.set()
        outcomes = dict(results.get(timeout=60) for _ in processes)
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        winners = [writer for writer, won in outcomes.items() if won]
        assert len(winners) == 1
        with open(path, "rb") as stream:
            assert stream.read() == bytes(winners) * SIZE
        assert os.listdir(tmp_path) == ["entry"]

    def test_an_existing_path_is_kept_and_reported(self, tmp_path):
        path = tmp_path / "entry"
        path.write_bytes(b"first")
        assert durable.write_link(str(path), b"second") is False
        assert path.read_bytes() == b"first"
        assert os.listdir(tmp_path) == ["entry"]


class TestWriteReplace:
    def test_a_failed_replace_keeps_the_old_file_and_no_temporary(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "entry"
        path.write_bytes(b"old")

        def failing_replace(source, destination):
            raise OSError("replace refused")

        monkeypatch.setattr(durable.os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace refused"):
            durable.write_replace(str(path), b"new")
        assert path.read_bytes() == b"old"
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_last_writer_wins(self, tmp_path):
        path = tmp_path / "entry"
        durable.write_replace(str(path), b"first")
        durable.write_replace(str(path), b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(tmp_path) == ["entry"]

    def test_no_helper_creates_a_directory(self, tmp_path):
        missing = tmp_path / "retired" / "entry"
        with pytest.raises(OSError):
            durable.write_replace(str(missing), b"data")
        with pytest.raises(OSError):
            durable.write_link(str(missing), b"data")
        assert os.listdir(tmp_path) == []


class TestQuarantine:
    def test_two_quarantines_of_one_name_are_numbered(self, tmp_path):
        path = tmp_path / "entry"
        path.write_bytes(b"one")
        first = durable.quarantine(str(path))
        path.write_bytes(b"two")
        second = durable.quarantine(str(path))
        assert first == str(path) + durable.CORRUPT_SUFFIX
        assert second == str(path) + durable.CORRUPT_SUFFIX + ".1"
        assert sorted(os.listdir(tmp_path)) == ["entry.corrupt", "entry.corrupt.1"]
        assert (tmp_path / "entry.corrupt").read_bytes() == b"one"
        assert (tmp_path / "entry.corrupt.1").read_bytes() == b"two"

    def test_a_missing_file_is_not_quarantined(self, tmp_path):
        assert durable.quarantine(str(tmp_path / "absent")) is None
        assert os.listdir(tmp_path) == []
