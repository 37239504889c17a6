"""The frame-native payload contract, end to end.

PR 7 made :class:`repro.api.frame.ResultFrame` the canonical experiment
payload from driver to store to CLI.  These tests pin the three load-
bearing guarantees of that refactor:

* **Golden byte-identity**: the manifest CSV/JSON emitted for every
  registered experiment is byte-identical to the pre-refactor output
  recorded in ``tests/golden_manifest/`` (same instruction budget).
* **Versioned columnar storage**: every stored artifact carries its
  payload as schema-versioned frames that round-trip through the disk
  store, and corrupt frame payloads are rejected and recomputed.
* **Sliceable payloads**: every experiment's stored frames support
  ``select()``/``column()`` with no per-experiment glue.

The same full run also checks that no experiment reads block objects:
each trace-cache miss builds its workload once, and no built program
outlives the run.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.api.frame import ResultFrame
from repro.results.artifacts import ARTIFACT_SCHEMA_VERSION
from repro.results.orchestrator import (
    experiment_key,
    get_spec,
    registry_names,
    run_experiments,
    write_manifest,
)
from repro.results.store import clear_result_store, load_result
from repro.workloads.trace_cache import clear_trace_cache, trace_cache_info

from trace_fixtures import record_builds

#: Must match the budget the golden manifests were recorded at.
TINY = 6_000

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_manifest"


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One full 18-experiment run, its written manifest directory, and
    the programs it built with its trace-cache misses."""
    clear_result_store()
    clear_trace_cache()
    with pytest.MonkeyPatch.context() as patch:
        built = record_builds(patch)
        report = run_experiments(registry_names(), instructions=TINY)
    misses = trace_cache_info()["misses"]
    out_dir = tmp_path_factory.mktemp("manifest")
    write_manifest(report, str(out_dir))
    yield report, out_dir, (built, misses)
    clear_result_store()
    clear_trace_cache()


class TestGoldenByteIdentity:
    def test_golden_directory_covers_every_experiment(self):
        names = {path.stem for path in GOLDEN.iterdir()}
        assert names == set(registry_names())

    @pytest.mark.parametrize("name", sorted(registry_names()))
    @pytest.mark.parametrize("extension", ["csv", "json"])
    def test_manifest_file_is_byte_identical(self, full_run, name, extension):
        _, out_dir, _ = full_run
        emitted = (out_dir / f"{name}.{extension}").read_bytes()
        golden = (GOLDEN / f"{name}.{extension}").read_bytes()
        assert emitted == golden


class TestTheRunKeepsNoProgram:
    def test_each_trace_miss_builds_once_and_nothing_keeps_the_program(
        self, full_run
    ):
        # No experiment reads block objects: a trace's program is built
        # for its generation only, and the cached traces hold none.
        _, _, (built, misses) = full_run
        assert misses > 0
        assert len(built) == misses
        assert [ref() for ref in built if ref() is not None] == []


class TestStoredFrameContract:
    def test_every_artifact_is_frame_native(self, full_run):
        report, _, _ = full_run
        for outcome in report.outcomes:
            artifact = outcome.artifact
            assert artifact["schema"] == ARTIFACT_SCHEMA_VERSION, outcome.name
            assert artifact["frames"], outcome.name
            assert artifact["primary"] in artifact["frames"], outcome.name
            for name, payload in artifact["frames"].items():
                frame = ResultFrame.from_payload(payload)
                assert frame.columns, (outcome.name, name)

    def test_every_stored_frame_slices(self, full_run):
        """select()/column() work on every experiment's stored frames."""
        report, _, _ = full_run
        for outcome in report.outcomes:
            for name in sorted(outcome.artifact["frames"]):
                frame = outcome.stored_frame(name)
                rows = frame.rows()
                assert rows, (outcome.name, name)
                first_column = frame.columns[0]
                assert len(frame.column(first_column)) == len(rows)
                pivot_value = rows[0][0]
                selected = frame.select(**{first_column: pivot_value})
                assert 0 < len(selected.rows()) <= len(rows)
                assert all(
                    record[first_column] == pivot_value
                    for record in selected.records()
                )

    def test_primary_frame_supports_workload_selection(self, full_run):
        """The acceptance example: select(workload=...) on a payload."""
        report, _, _ = full_run
        frame = report.outcome("fig11").stored_frame()
        workload = frame.column("workload")[0]
        narrowed = frame.select(workload=workload)
        assert narrowed.rows()
        assert set(narrowed.column("workload")) == {workload}


class TestDiskRoundTrip:
    def test_frames_round_trip_through_the_disk_store(self, result_store_dir):
        clear_result_store()
        clear_trace_cache()
        report = run_experiments(["table2"], instructions=TINY)
        computed = report.outcome("table2").artifact
        # Fresh process simulation: only the disk layer remains.
        clear_result_store()
        key = experiment_key(get_spec("table2"), TINY)
        loaded = load_result(key, "table2")
        assert loaded is not None
        assert json.dumps(loaded) == json.dumps(computed)
        for name, payload in loaded["frames"].items():
            frame = ResultFrame.from_payload(payload)
            assert frame.rows(), name
        clear_result_store()
        clear_trace_cache()

    def test_corrupt_frame_payload_is_rejected_and_recomputed(
        self, result_store_dir
    ):
        """A stored entry whose frame payload no longer validates is a
        miss (not a crash), and the orchestrator recomputes it."""
        clear_result_store()
        clear_trace_cache()
        run_experiments(["table2"], instructions=TINY)
        key = experiment_key(get_spec("table2"), TINY)
        (entry_path,) = list(result_store_dir.iterdir())
        entry = json.loads(entry_path.read_text())
        primary = entry["artifact"]["primary"]
        # Mangle the frame: a row narrower than the declared columns.
        entry["artifact"]["frames"][primary]["rows"][0] = ["stub"]
        entry_path.write_text(json.dumps(entry))
        clear_result_store()
        assert load_result(key, "table2") is None
        clear_result_store()
        report = run_experiments(["table2"], instructions=TINY)
        assert report.outcome("table2").status == "computed"
        clear_result_store()
        clear_trace_cache()
