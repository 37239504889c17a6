"""Tests for the content-addressed result store.

Covers the store contract directly: key stability across processes,
invalidation when the configuration or seed changes, corrupted-entry
recovery (a truncated disk file falls back to recompute), and
concurrent writers relying on the whole-file writes of
:mod:`repro.durable` shared with the trace cache and the work queue.
"""

from __future__ import annotations

import contextvars
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.api.runtime_config import RuntimeConfig, activated
from repro.results.artifacts import rendered_artifact
from repro.results.store import (
    clear_result_store,
    load_result,
    resolved_result_dir,
    result_key,
    result_store_info,
    store_result,
    store_result_cas,
)

CONFIG = {"instructions": 20_000, "geometries": [[256, 4], [1024, 4]]}
WORKLOADS = ("FT", "gobmk")


@pytest.fixture(autouse=True)
def _fresh_store():
    clear_result_store()
    yield
    clear_result_store()


def _artifact(experiment: str = "fig7", value: str = "1.00") -> dict:
    """A literal stored (v2) artifact: its table, frame and payload spec."""
    return {
        "schema": 2,
        "experiment": experiment,
        "title": "a title",
        "tables": [
            {"title": None, "name": None, "headers": ["suite", "mpki"], "rows": [["NPB", value]]}
        ],
        "primary": "suites",
        "frames": {
            "suites": {
                "schema": 1,
                "columns": ["suite", "mpki"],
                "rows": [["NPB", float(value)]],
            }
        },
        "payload": [
            {"name": "mpki", "frame": "suites", "levels": [["suite"]], "value": "mpki"}
        ],
    }


def _mpki(artifact: dict) -> float:
    """The one stored mpki cell of an :func:`_artifact`."""
    return artifact["frames"]["suites"]["rows"][0][1]


class TestResultKey:
    def test_key_is_deterministic_and_order_insensitive(self):
        first = result_key("fig7", CONFIG, WORKLOADS)
        reordered = {"geometries": [[256, 4], [1024, 4]], "instructions": 20_000}
        assert result_key("fig7", reordered, list(WORKLOADS)) == first

    def test_key_changes_with_every_provenance_component(self):
        reference = result_key("fig7", CONFIG, WORKLOADS, seed=0)
        assert result_key("fig8", CONFIG, WORKLOADS) != reference
        assert result_key("fig7", {**CONFIG, "instructions": 40_000}, WORKLOADS) != reference
        assert (
            result_key("fig7", {**CONFIG, "geometries": [[512, 4]]}, WORKLOADS)
            != reference
        )
        assert result_key("fig7", CONFIG, ("FT",)) != reference
        assert result_key("fig7", CONFIG, WORKLOADS, seed=1) != reference

    def test_key_changes_when_the_package_source_changes(self, monkeypatch):
        from repro.results import store as store_module

        reference = result_key("fig7", CONFIG, WORKLOADS)
        assert store_module.code_fingerprint()  # Non-empty.
        monkeypatch.setattr(store_module, "source_digest", lambda *packages: "different-code")
        assert result_key("fig7", CONFIG, WORKLOADS) != reference

    def test_key_is_stable_across_processes(self):
        expected = result_key("fig7", CONFIG, WORKLOADS)
        script = (
            "from repro.results.store import result_key;"
            f"print(result_key('fig7', {CONFIG!r}, {WORKLOADS!r}))"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == expected


class TestStoreLayers:
    def test_memory_roundtrip_without_disk(self):
        key = result_key("fig7", CONFIG, WORKLOADS)
        with activated(RuntimeConfig(result_cache_dir=None)):
            assert resolved_result_dir() is None
            assert load_result(key, "fig7") is None
            store_result(key, _artifact())
            assert load_result(key, "fig7") == _artifact()
        info = result_store_info()
        assert info["hits"] == 1 and info["stores"] == 1
        assert info["disk_stores"] == 0

    def test_disk_roundtrip_survives_memory_clear(self, result_store_dir):
        key = result_key("fig7", CONFIG, WORKLOADS)
        store_result(key, _artifact())
        clear_result_store()  # Simulate a fresh process.
        assert load_result(key, "fig7") == _artifact()
        assert result_store_info()["disk_hits"] == 1

    def test_experiment_mismatch_is_a_miss(self, result_store_dir):
        key = result_key("fig7", CONFIG, WORKLOADS)
        store_result(key, _artifact(experiment="fig7"))
        clear_result_store()
        assert load_result(key, "fig8") is None

    def test_corrupted_disk_entry_falls_back_to_miss(self, result_store_dir):
        key = result_key("fig7", CONFIG, WORKLOADS)
        store_result(key, _artifact())
        clear_result_store()
        (entry,) = [p for p in result_store_dir.iterdir() if p.suffix == ".json"]
        content = entry.read_bytes()
        entry.write_bytes(content[: len(content) // 2])  # Truncate.
        assert load_result(key, "fig7") is None
        # A recompute-and-store heals the entry.
        store_result(key, _artifact())
        clear_result_store()
        assert load_result(key, "fig7") == _artifact()

    def test_garbage_disk_entry_falls_back_to_miss(self, result_store_dir):
        key = result_key("fig7", CONFIG, WORKLOADS)
        store_result(key, _artifact())
        clear_result_store()
        (entry,) = [p for p in result_store_dir.iterdir() if p.suffix == ".json"]
        # The emitted (v1-layout) form is not a stored artifact either.
        for artifact in ({"schema": 999}, rendered_artifact(_artifact())):
            entry.write_text(json.dumps({"key": key, "artifact": artifact}))
            assert load_result(key, "fig7") is None

    def test_unwritable_disk_layer_is_best_effort(self, tmp_path):
        target = tmp_path / "not-a-directory"
        target.write_text("occupied")
        key = result_key("fig7", CONFIG, WORKLOADS)
        with activated(RuntimeConfig(result_cache_dir=str(target / "store"))):
            store_result(key, _artifact())  # Must not raise.
            assert load_result(key, "fig7") == _artifact()  # Memory layer works.
        assert result_store_info()["disk_stores"] == 0


class TestConcurrentWriters:
    def test_racing_writers_never_corrupt_an_entry(self, result_store_dir):
        key = result_key("fig7", CONFIG, WORKLOADS)
        barrier = threading.Barrier(8)

        def writer() -> None:
            barrier.wait()
            for _ in range(10):
                store_result(key, _artifact())

        # Each thread runs in a copy of this context, so it sees the
        # activated config.
        threads = [
            threading.Thread(target=contextvars.copy_context().run, args=(writer,))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        clear_result_store()
        assert load_result(key, "fig7") == _artifact()
        # No temporary files may survive the renames.
        leftovers = [
            p.name for p in result_store_dir.iterdir() if p.name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_racing_writers_on_distinct_keys(self, result_store_dir):
        keys = [
            result_key("fig7", {**CONFIG, "instructions": n}, WORKLOADS)
            for n in range(1000, 1016)
        ]
        barrier = threading.Barrier(len(keys))

        def writer(key: str, value: str) -> None:
            barrier.wait()
            store_result(key, _artifact(value=value))

        threads = [
            threading.Thread(
                target=contextvars.copy_context().run,
                args=(writer, key, f"{index}.00"),
            )
            for index, key in enumerate(keys)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        clear_result_store()
        for index, key in enumerate(keys):
            assert load_result(key, "fig7") == _artifact(value=f"{index}.00")


class TestCompareAndSwap:
    """store_result_cas: first writer wins, conflicts quarantined."""

    def test_first_writer_wins_on_disk(self, result_store_dir):
        key = result_key("fig7", CONFIG, WORKLOADS)
        status, winner = store_result_cas(key, _artifact(value="1.00"), "fig7")
        assert status == "stored"
        assert winner == _artifact(value="1.00")
        # Identical re-publication is the benign double completion.
        status, winner = store_result_cas(key, _artifact(value="1.00"), "fig7")
        assert status == "identical"
        assert winner == _artifact(value="1.00")
        # A different publication loses: the first artifact stands.
        status, winner = store_result_cas(key, _artifact(value="9.99"), "fig7")
        assert status == "conflict"
        assert winner == _artifact(value="1.00")
        clear_result_store()
        assert load_result(key, "fig7") == _artifact(value="1.00")
        evidence = [p.name for p in result_store_dir.iterdir() if ".conflict" in p.name]
        assert len(evidence) == 1
        with open(result_store_dir / evidence[0], "r", encoding="utf-8") as stream:
            losing = json.load(stream)
        assert losing["artifact"] == _artifact(value="9.99")

    def test_cas_counters(self, result_store_dir):
        key = result_key("fig7", CONFIG, WORKLOADS)
        store_result_cas(key, _artifact(value="1.00"), "fig7")
        store_result_cas(key, _artifact(value="1.00"), "fig7")
        store_result_cas(key, _artifact(value="9.99"), "fig7")
        info = result_store_info()
        assert info["cas_stores"] == 1
        assert info["cas_identical"] == 1
        assert info["cas_conflicts"] == 1

    def test_memory_only_cas(self):
        key = result_key("fig7", CONFIG, WORKLOADS)
        with activated(RuntimeConfig(result_cache_dir=None)):
            assert resolved_result_dir() is None
            first = store_result_cas(key, _artifact(value="1.00"), "fig7")
            again = store_result_cas(key, _artifact(value="1.00"), "fig7")
            status, winner = store_result_cas(key, _artifact(value="2.00"), "fig7")
            assert (first[0], again[0], status) == ("stored", "identical", "conflict")
            assert winner == _artifact(value="1.00")
            assert load_result(key, "fig7") == _artifact(value="1.00")

    def test_etag_is_order_insensitive(self):
        from repro.results.store import artifact_etag

        artifact = _artifact()
        reordered = {k: artifact[k] for k in reversed(list(artifact))}
        assert artifact_etag(artifact) == artifact_etag(reordered)
        assert artifact_etag(artifact) != artifact_etag(_artifact(value="9.99"))

    def test_cas_round_trips_artifact_verbatim(self, result_store_dir):
        # Key order of the stored artifact is preserved (the frame
        # payload tests depend on a verbatim round trip).
        key = result_key("fig7", CONFIG, WORKLOADS)
        store_result_cas(key, _artifact(), "fig7")
        clear_result_store()
        assert json.dumps(load_result(key, "fig7")) == json.dumps(_artifact())


def _stress_writer(worker_id: int, shared_keys, contested_key: str, out_queue):
    """One racing process of the multi-process store stress test."""
    clear_result_store()  # Fresh per-process memory layer and counters.
    for _ in range(5):
        for index, key in enumerate(shared_keys):
            if (worker_id + index) % 2 == 0:
                store_result(key, _artifact(value=f"{index}.00"))
            else:
                store_result_cas(key, _artifact(value=f"{index}.00"), "fig7")
    _, winner = store_result_cas(
        contested_key, _artifact(value=f"{worker_id}.50"), "fig7"
    )
    out_queue.put((worker_id, _mpki(winner)))


class TestMultiProcessWriters:
    """Satellite: 8 real processes racing the disk store on overlapping
    keys -- no torn entries, no lost entries, one deterministic winner
    per contested key."""

    def test_eight_processes_race_store_and_cas(self, result_store_dir):
        import multiprocessing

        shared_keys = [
            result_key("fig7", {**CONFIG, "instructions": n}, WORKLOADS)
            for n in range(2000, 2006)
        ]
        contested_key = result_key("fig7", {**CONFIG, "contested": True}, WORKLOADS)
        ctx = multiprocessing.get_context()
        out_queue = ctx.Queue()
        processes = [
            ctx.Process(
                target=_stress_writer,
                args=(worker_id, shared_keys, contested_key, out_queue),
            )
            for worker_id in range(8)
        ]
        for process in processes:
            process.start()
        winners = [out_queue.get(timeout=120) for _ in processes]
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        # No lost entries: every overlapping key holds its one value.
        clear_result_store()
        for index, key in enumerate(shared_keys):
            assert load_result(key, "fig7") == _artifact(value=f"{index}.00")
        # One deterministic winner on the contested key: every process
        # converged on the same artifact, and it is what the disk holds.
        values = {value for _, value in winners}
        assert len(values) == 1
        stored = load_result(contested_key, "fig7")
        assert _mpki(stored) == values.pop()
        # No torn entries: every surviving file parses, no temporaries.
        for entry in result_store_dir.iterdir():
            if entry.name.endswith(".tmp"):
                raise AssertionError(f"leaked temporary {entry.name}")
            if entry.suffix == ".json" or ".conflict" in entry.name:
                with open(entry, "r", encoding="utf-8") as stream:
                    json.load(stream)
