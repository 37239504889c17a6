"""Tests for the experiment orchestrator and the ``all`` CLI pipeline.

The headline assertion mirrors the acceptance criterion of the
orchestrator work: a smoke ``repro-frontend all`` run emits a manifest
covering every registered experiment, and an immediate rerun (fresh
in-process caches, same disk store) recomputes nothing while emitting
bit-identical CSV/JSON outputs.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.api.runtime_config import RESULT_CACHE_DIR_VARIABLE
from repro.experiments import fig11_per_benchmark_time
from repro.experiments.fig11_per_benchmark_time import FIGURE11_WORKLOADS
from repro.results.orchestrator import (
    experiment_key,
    get_spec,
    registry_names,
    run_experiments,
    unconsumed_flags,
    write_manifest,
)
from repro.results.store import clear_result_store, load_result
from repro.uarch.simulator import profile_cache_info
from repro.workloads.trace_cache import clear_trace_cache

#: Short enough that the full 18-experiment suite stays test-friendly.
TINY = 6_000

#: Every paper artefact (plus the preset explorations) the orchestrator
#: must cover.
EXPECTED = {
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "table1", "table2", "table3", "cmpsweep",
    "explore-frontend", "explore-smoke", "explore-cmp",
}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_result_store()
    clear_trace_cache()
    yield
    clear_result_store()
    clear_trace_cache()


def _manifest_files(directory) -> dict:
    """Per-experiment file bytes of a manifest directory (not manifest.json)."""
    return {
        name: (directory / name).read_bytes()
        for name in sorted(os.listdir(directory))
        if name != "manifest.json"
    }


class TestRegistry:
    def test_registry_covers_every_paper_artefact(self):
        assert set(registry_names()) == EXPECTED

    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(KeyError, match="figure99"):
            run_experiments(["figure99"], instructions=TINY)


class TestOrchestratedRuns:
    def test_results_are_stored_and_reused_in_process(self):
        first = run_experiments(["table2"], instructions=TINY)
        assert first.counts()["computed"] == 1
        second = run_experiments(["table2"], instructions=TINY)
        assert second.counts() == {"computed": 0, "cached": 1}
        assert second.outcome("table2").artifact == first.outcome("table2").artifact

    def test_instruction_budget_invalidates(self):
        run_experiments(["fig6"], instructions=TINY)
        report = run_experiments(["fig6"], instructions=TINY * 2)
        assert report.counts()["computed"] == 1

    def test_execution_knobs_never_change_a_key(self):
        """Parallelism, retries, fault plans and the queue settings
        cannot change the numbers, so a run under any of them is served
        the same store entries."""
        from repro.api.runtime_config import RuntimeConfig, activated

        spec = get_spec("fig6")
        plain = experiment_key(spec, TINY)
        busy = RuntimeConfig(
            parallel=True,
            processes=3,
            retries=7,
            fault_plan='{"faults": []}',
            queue_dir="elsewhere",
            lease_ttl=2.0,
        )
        with activated(busy):
            assert experiment_key(spec, TINY) == plain
        assert experiment_key(spec, TINY * 2) != plain

    def test_fig11_matches_fig10_execution_time_without_simulating(self, monkeypatch):
        """Figure 11 is a per-benchmark slice of Figure 10's execution
        time, and run after Figure 10 it simulates nothing: every
        profile it looks up is one Figure 10 made."""
        before = {}
        session = fig11_per_benchmark_time.current_session

        def snapshot_then_session():
            before.update(profile_cache_info())
            return session()

        monkeypatch.setattr(
            fig11_per_benchmark_time, "current_session", snapshot_then_session
        )
        report = run_experiments(["fig10", "fig11"], instructions=TINY)
        after = profile_cache_info()
        assert [o.status for o in report.outcomes] == ["computed", "computed"]
        assert after["hits"] - before["hits"] == len(FIGURE11_WORKLOADS)
        assert after["misses"] == before["misses"]

        fig11 = report.outcome("fig11").stored_frame()
        times = report.outcome("fig10").stored_frame("workloads").select(
            metric="execution time"
        )
        assert fig11.column("workload") == list(FIGURE11_WORKLOADS)
        for name in FIGURE11_WORKLOADS:
            (row,) = fig11.select(workload=name).records()
            (expected,) = times.select(workload=name).records()
            del expected["metric"]
            assert row == expected

    def test_fig11_alone_computes_without_pulling_in_fig10(self):
        report = run_experiments(["fig11"], instructions=TINY)
        assert [o.name for o in report.outcomes] == ["fig11"]
        assert report.outcome("fig11").status == "computed"

    def test_interrupted_run_resumes_from_the_store(self, result_store_dir):
        run_experiments(["fig6", "fig9"], instructions=TINY)
        # Simulate the process dying and restarting.
        clear_result_store()
        clear_trace_cache()
        report = run_experiments(["fig6", "fig9", "table2"], instructions=TINY)
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {"fig6": "cached", "fig9": "cached", "table2": "computed"}

    def test_unconsumed_flags_detection(self):
        assert unconsumed_flags(["fig1"], ["core-scaling"]) == ["--scenarios"]
        assert unconsumed_flags(["cmpsweep"], ["core-scaling"]) == []
        assert unconsumed_flags(registry_names(), None) == []
        # Model-only experiments take no instruction budget.
        assert unconsumed_flags(["table2"], None, "--smoke") == ["--smoke"]
        assert unconsumed_flags(["table2", "fig1"], None, "--smoke") == []


class TestFullSuiteManifest:
    def test_all_smoke_rerun_is_served_from_store_bit_identically(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(RESULT_CACHE_DIR_VARIABLE, str(tmp_path / "store"))
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"

        assert (
            cli_main(
                ["all", "--instructions", str(TINY), "--out", str(cold_dir), "--verbose"]
            )
            == 0
        )
        cold = capsys.readouterr()

        # Fresh in-process caches: the rerun must be served entirely by
        # the disk layer, exactly like a new CLI invocation.
        clear_result_store()
        clear_trace_cache()

        assert (
            cli_main(
                ["all", "--instructions", str(TINY), "--out", str(warm_dir), "--verbose"]
            )
            == 0
        )
        warm = capsys.readouterr()

        # The manifest covers every experiment, cold and warm.
        for directory in (cold_dir, warm_dir):
            manifest = json.loads((directory / "manifest.json").read_text())
            assert set(manifest["experiments"]) == EXPECTED
            for entry in manifest["experiments"].values():
                assert (directory / entry["csv"]).exists()
                assert (directory / entry["json"]).exists()

        # Zero recomputes on the warm run, reported via --verbose.
        assert "0 computed, 18 served from store" in warm.err
        assert "18 served from store" not in cold.err
        # ... and no trace or profile lookup: the --verbose line of
        # every experiment reads zero of each.
        lines = [line for line in warm.err.splitlines() if "(key " in line]
        assert len(lines) == 18
        for line in lines:
            assert "traces: 0 hits, 0 misses; profiles: 0 hits, 0 misses" in line, line

        # Every emitted CSV/JSON is bit-identical between the runs, and
        # so is the rendered text output.
        assert _manifest_files(cold_dir) == _manifest_files(warm_dir)
        assert cold.out.replace(str(cold_dir), "") == warm.out.replace(str(warm_dir), "")

        warm_manifest = json.loads((warm_dir / "manifest.json").read_text())
        assert all(
            entry["status"] == "cached"
            for entry in warm_manifest["experiments"].values()
        )

    def test_corrupted_store_entry_triggers_recompute(self, result_store_dir):
        run_experiments(["fig6"], instructions=TINY)
        key = experiment_key(get_spec("fig6"), TINY)
        clear_result_store()
        clear_trace_cache()
        (entry,) = list(result_store_dir.iterdir())
        entry.write_text("{ truncated")
        assert load_result(key, "fig6") is None
        clear_result_store()
        report = run_experiments(["fig6"], instructions=TINY)
        assert report.outcome("fig6").status == "computed"


class TestStrictCli:
    def test_ignored_scenarios_warns_by_default(self, capsys):
        assert cli_main(["fig6", "--instructions", str(TINY), "--scenarios", "paper"]) == 0
        captured = capsys.readouterr()
        assert "--scenarios ignored" in captured.err and "fig6" in captured.err

    def test_ignored_scenarios_fails_under_strict(self, capsys):
        rc = cli_main(
            ["fig6", "--instructions", str(TINY), "--scenarios", "paper", "--strict"]
        )
        assert rc != 0
        assert "--strict" in capsys.readouterr().err

    def test_ignored_budget_flag_fails_under_strict(self, capsys):
        assert cli_main(["table2", "--smoke"]) == 0
        assert "--smoke ignored" in capsys.readouterr().err
        assert cli_main(["table2", "--instructions", "5000", "--strict"]) != 0
        assert "--instructions ignored" in capsys.readouterr().err

    def test_consumed_flags_pass_under_strict(self, capsys):
        rc = cli_main(
            ["cmpsweep", "--instructions", str(TINY), "--scenarios", "paper", "--strict"]
        )
        assert rc == 0
        assert "ignored" not in capsys.readouterr().err


class TestManifestWriting:
    def test_write_manifest_lists_every_outcome(self, tmp_path):
        report = run_experiments(["table2", "table3"], instructions=TINY)
        path = write_manifest(report, str(tmp_path / "out"))
        manifest = json.loads(open(path).read())
        assert set(manifest["experiments"]) == {"table2", "table3"}
        entry = manifest["experiments"]["table2"]
        assert entry["status"] == "computed"
        assert len(entry["key"]) == 64
        csv_text = (tmp_path / "out" / entry["csv"]).read_text()
        assert csv_text.splitlines()[0].startswith("predictor,")

    def test_multi_table_csv_carries_block_names(self, tmp_path):
        report = run_experiments(
            ["cmpsweep"], instructions=TINY, scenario_names=["paper", "core-scaling"]
        )
        write_manifest(report, str(tmp_path))
        lines = (tmp_path / "cmpsweep.csv").read_text().splitlines()
        assert lines[0].startswith("table,")
        assert any(line.startswith("paper,") for line in lines)
        assert any(line.startswith("core-scaling,") for line in lines)
