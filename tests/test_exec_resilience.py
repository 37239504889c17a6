"""Fault tolerance of the execution layer, end to end.

Covers the supervised executors (retry, worker death, hang/timeout,
serial degradation), the checkpoint journal (record/replay, corrupt-
entry quarantine, concurrent writers, kill-and-resume through a real
SIGKILL), deterministic fault injection, the trace-cache quarantine
path, and the deprecation schedule of the legacy module-level entry
points.  Everything is deterministic: faults are pinned to exact
``(item, attempt)`` sites, never to timing.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.exec import (
    ExecutionSettings,
    Fault,
    FaultPlan,
    InjectedFault,
    SweepError,
    execute_items,
    resolve_executor,
)
from repro.exec import executors as executors_module
from repro.exec.journal import (
    SweepJournal,
    item_key,
    journal_for_scope,
    journal_info,
    reset_journal_info,
)
from repro.exec.results import (
    STATUS_OK,
    STATUS_REPLAYED,
    STATUS_TIMEOUT,
    STATUS_WORKER_DEATH,
)

#: A short, cheap worker sweep shared by most tests.
ITEMS = list(range(4))

#: Settings tuned for test speed: real retry semantics, tiny backoff.
FAST = dict(retries=2, retry_delay=0.001)


def _square(args):
    return args * args


def _explode(args):
    raise RuntimeError(f"boom on {args}")


def serial_settings(**overrides):
    merged = {"processes": None, **FAST, **overrides}
    return ExecutionSettings(**merged)


def run_with(executor_name, worker, items=ITEMS, **overrides):
    executor = resolve_executor(executor_name)
    return execute_items(worker, items, serial_settings(**overrides), executor)


class TestRetries:
    @pytest.mark.parametrize("executor_name", ["serial", "processes"])
    def test_transient_exception_succeeds_after_retry(self, executor_name):
        plan = FaultPlan.of(Fault(kind="raise", index=2, attempt=1))
        report = run_with(
            executor_name, _square, fault_plan=plan, processes=2
        )
        assert [item.value for item in report.items] == [0, 1, 4, 9]
        assert [item.status for item in report.items] == [STATUS_OK] * 4
        # The faulted item took exactly one extra attempt; the rest one.
        assert [item.attempts for item in report.items] == [1, 1, 2, 1]

    @pytest.mark.parametrize("executor_name", ["serial", "processes"])
    def test_permanent_failure_yields_structured_report(self, executor_name):
        plan = FaultPlan.of(
            *[Fault(kind="raise", index=1, attempt=attempt) for attempt in (1, 2, 3)]
        )
        report = run_with(
            executor_name, _square, fault_plan=plan, retries=2, processes=2
        )
        with pytest.raises(SweepError) as caught:
            report.values()
        assert caught.value.report is report
        text = str(caught.value)
        assert "sweep failed on 1/4 item(s)" in text
        assert "item 1: error after 3 attempt(s)" in text
        assert InjectedFault.__name__ in text
        # Partial results survive alongside the failure.
        assert report.partial_values() == {0: 0, 2: 4, 3: 9}

    def test_retries_zero_disables_retrying(self):
        plan = FaultPlan.of(Fault(kind="raise", index=0, attempt=1))
        report = run_with("serial", _square, retries=0, fault_plan=plan)
        (failure,) = report.failures()
        assert failure.index == 0 and failure.attempts == 1

    def test_worker_exception_without_plan_is_captured(self):
        report = run_with("serial", _explode, items=[7], retries=0)
        (failure,) = report.failures()
        assert "boom on 7" in failure.error


class TestWorkerDeath:
    @pytest.mark.parametrize("executor_name", ["serial", "processes"])
    def test_killed_worker_is_replaced_and_item_retried(self, executor_name):
        plan = FaultPlan.of(Fault(kind="kill", index=1, attempt=1))
        report = run_with(
            executor_name, _square, fault_plan=plan, processes=2
        )
        assert report.values() == [0, 1, 4, 9]
        assert report.items[1].attempts == 2

    def test_unkillable_item_fails_as_worker_death(self):
        plan = FaultPlan.of(
            *[Fault(kind="kill", index=1, attempt=attempt) for attempt in (1, 2)]
        )
        report = run_with("processes", _square, retries=1, fault_plan=plan, processes=2)
        (failure,) = report.failures()
        assert failure.status == STATUS_WORKER_DEATH
        assert failure.attempts == 2
        assert report.partial_values() == {0: 0, 2: 4, 3: 9}


class TestTimeout:
    def test_hung_item_is_killed_and_reported_as_timeout(self):
        plan = FaultPlan.of(Fault(kind="hang", index=2, attempt=1, seconds=30.0))
        report = run_with(
            "processes",
            _square,
            fault_plan=plan,
            item_timeout=0.3,
            processes=2,
        )
        hung = report.items[2]
        assert hung.status == STATUS_TIMEOUT
        assert "timeout" in hung.error
        # A timeout is a final verdict, not a transient failure: the
        # item is not retried (it would hang again) ...
        assert hung.attempts == 1
        # ... and every other item still completed.
        assert report.partial_values() == {0: 0, 1: 1, 3: 9}


class TestSerialDegradation:
    def test_broken_pool_degrades_to_serial_bit_identically(self, monkeypatch):
        def refuse(ctx, worker, plan_json):
            raise OSError("no processes for you")

        serial = run_with("serial", _square)
        monkeypatch.setattr(executors_module, "_start_worker", refuse)
        degraded = run_with("processes", _square, processes=2)
        assert degraded.degraded is True
        assert degraded.values() == serial.values()

    @pytest.mark.parametrize("executor_name", ["serial", "processes"])
    def test_serial_and_process_executors_are_bit_identical(self, executor_name):
        report = run_with(executor_name, _square, processes=2)
        assert report.degraded is False
        assert report.executor == executor_name
        assert report.values() == [_square(item) for item in ITEMS]


class TestJournal:
    def test_record_and_replay_only_missing_items(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "scope"))
        executor = resolve_executor("serial")
        plan = FaultPlan.of(
            *[Fault(kind="raise", index=3, attempt=attempt) for attempt in (1, 2, 3)]
        )
        first = execute_items(
            _square, ITEMS, serial_settings(fault_plan=plan), executor, journal
        )
        assert len(first.failures()) == 1
        # The three successes were checkpointed ...
        assert len(journal.load()) == 3
        # ... so the rerun replays them and computes only the failure.
        second = execute_items(_square, ITEMS, serial_settings(), executor, journal)
        assert [item.status for item in second.items] == [
            STATUS_REPLAYED,
            STATUS_REPLAYED,
            STATUS_REPLAYED,
            STATUS_OK,
        ]
        undisturbed = execute_items(_square, ITEMS, serial_settings(), executor)
        assert second.values() == undisturbed.values()

    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        reset_journal_info()
        directory = tmp_path / "scope"
        journal = SweepJournal(str(directory))
        journal.record(item_key(_square, 0, 0), 0)
        key = item_key(_square, 1, 1)
        journal.record(key, 1)
        (directory / f"{key}.item").write_bytes(b"torn write, not a pickle")
        entries = journal.load()
        # The damaged entry is gone from the replay set but kept as
        # evidence; the intact one still replays.
        assert len(entries) == 1
        assert journal_info()["quarantined"] == 1
        corrupt = [name for name in os.listdir(directory) if name.endswith(".corrupt")]
        assert len(corrupt) == 1
        # The quarantined bytes are preserved verbatim.
        assert (directory / corrupt[0]).read_bytes() == b"torn write, not a pickle"

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "scope"))
        keys = [f"{index:03d}" for index in range(40)]

        def write_all(payload):
            for key in keys:
                journal.record(key, (payload, key))

        threads = [
            threading.Thread(target=write_all, args=(payload,))
            for payload in ("a", "b", "c", "d")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        entries = journal.load()
        # Every entry is present and readable (last writer won; no
        # torn pickles, so nothing was quarantined) ...
        assert sorted(entries) == keys
        for key, value in entries.items():
            assert value[0] in "abcd" and value[1] == key
        # ... and no temporary files leaked.
        assert not [
            name
            for name in os.listdir(journal.directory)
            if name.endswith(".tmp") or name.endswith(".corrupt")
        ]

    def test_discard_drops_scope_and_empty_parent(self, result_store_dir):
        journal = journal_for_scope("a" * 64)
        journal.record("key", 1)
        assert os.path.isdir(journal.directory)
        journal.discard()
        assert not os.path.exists(journal.directory)
        # The journals/ shell is removed too, so a store directory
        # holding nothing but a finished sweep's scaffolding ends empty.
        assert not os.path.exists(os.path.dirname(journal.directory))


class TestKillAndResume:
    """A sweep SIGKILLed at item k resumes, replaying only 0..k-1."""

    CHILD = textwrap.dedent(
        """
        import json, os, signal, sys

        from repro.exec import ExecutionSettings, execute_items, resolve_executor
        from repro.exec.journal import journal_for_scope

        def worker(args):
            if args == 3 and os.environ.get("CHAOS_KILL"):
                # Hard-kill the supervising process mid-sweep: the
                # deterministic stand-in for a crashed campaign.
                os.kill(os.getppid(), signal.SIGKILL)
            return args * args

        settings = ExecutionSettings(processes=1, retries=0, retry_delay=0.001)
        report = execute_items(
            worker,
            list(range(6)),
            settings,
            resolve_executor("processes"),
            journal_for_scope("f" * 64),
        )
        json.dump(
            {
                "statuses": [item.status for item in report.items],
                "values": report.values(),
            },
            sys.stdout,
        )
        """
    )

    def _run_child(self, store_dir, chaos_kill):
        env = dict(os.environ)
        env["REPRO_RESULT_CACHE_DIR"] = str(store_dir)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if chaos_kill:
            env["CHAOS_KILL"] = "1"
        else:
            env.pop("CHAOS_KILL", None)
        return subprocess.run(
            [sys.executable, "-c", self.CHILD],
            env=env,
            timeout=120,
            capture_output=True,
            text=True,
        )

    def test_sigkilled_sweep_resumes_bit_identically(self, tmp_path):
        import json

        store_dir = tmp_path / "store"
        killed = self._run_child(store_dir, chaos_kill=True)
        assert killed.returncode == -signal.SIGKILL
        # One worker process means in-order dispatch: items 0..2 were
        # checkpointed incrementally before item 3 took the supervisor
        # down -- the kill loses only the in-flight item.
        journal = SweepJournal(str(store_dir / "journals" / ("f" * 32)))
        assert len(journal.load()) == 3
        resumed_child = self._run_child(store_dir, chaos_kill=False)
        assert resumed_child.returncode == 0, resumed_child.stderr
        resumed = json.loads(resumed_child.stdout)
        assert resumed["statuses"] == [STATUS_REPLAYED] * 3 + [STATUS_OK] * 3
        # Bit-identical to a run that was never disturbed.
        undisturbed_child = self._run_child(tmp_path / "fresh", chaos_kill=False)
        assert undisturbed_child.returncode == 0, undisturbed_child.stderr
        undisturbed = json.loads(undisturbed_child.stdout)
        assert resumed["values"] == undisturbed["values"]
        assert undisturbed["statuses"] == [STATUS_OK] * 6

    def test_resume_keys_on_worker_and_arguments(self, tmp_path):
        # A journal written by one worker function can never replay
        # into a sweep over a different worker or different arguments.
        journal = SweepJournal(str(tmp_path / "scope"))
        executor = resolve_executor("serial")
        execute_items(_square, ITEMS, serial_settings(), executor, journal)
        other = execute_items(
            _explode, ITEMS, serial_settings(retries=0), executor, journal
        )
        assert not [item for item in other.items if item.status == STATUS_REPLAYED]


class TestExecutorResolution:
    def test_unknown_executor_is_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("warp-drive")

    @pytest.mark.parametrize("name", ["serial", "processes", "queue"])
    def test_builtin_executors_resolve_by_name(self, name):
        assert resolve_executor(name).name == name

    @pytest.mark.parametrize(
        "name", ["auto", "repro.exec.executors:SerialExecutor"]
    )
    def test_only_concrete_builtin_names_resolve(self, name):
        # "auto" is resolved by the session before lookup, and an
        # importable module:attribute reference is not an executor name.
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor(name)


class TestFaultPlans:
    def test_plan_round_trips_through_json(self):
        plan = FaultPlan.of(
            Fault(kind="kill", index=1),
            Fault(kind="raise", index=2, attempt=2, message="flaky"),
            Fault(kind="hang", index=3, seconds=1.5),
            Fault(kind="truncate", index=0, target="*.npz", store="trace-cache"),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_spec_accepts_inline_json_and_files(self, tmp_path):
        document = '{"faults": [{"kind": "raise", "index": 1}]}'
        inline = FaultPlan.from_spec(document)
        path = tmp_path / "plan.json"
        path.write_text(document, encoding="utf-8")
        assert FaultPlan.from_spec(str(path)) == inline
        assert FaultPlan.from_spec(None) is None
        assert FaultPlan.from_spec("  ") is None

    def test_unknown_kind_and_store_are_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="meteor", index=0)
        with pytest.raises(ValueError):
            Fault(kind="truncate", index=0, store="the-moon")

    def test_truncate_fault_quarantines_trace_cache_entry(self, tmp_path):
        from repro.api.runtime_config import RuntimeConfig, activated
        from repro.workloads import get_workload
        from repro.workloads.trace_cache import (
            clear_trace_cache,
            trace_cache_info,
            workload_trace,
        )

        spec = get_workload("FT")
        with activated(RuntimeConfig(trace_cache_dir=str(tmp_path))):
            reference = workload_trace(spec, 2_000)
            assert [name for name in os.listdir(tmp_path) if name.endswith(".npz")]
            FaultPlan.of(
                Fault(kind="truncate", index=0, target="*.npz", store="trace-cache")
            ).fire(0, 1, allow_exit=False)
            clear_trace_cache()  # Drop the memory layer; force a disk read.
            recovered = workload_trace(spec, 2_000)
        info = trace_cache_info()
        assert info["quarantined"] == 1
        corrupt = [
            name for name in os.listdir(tmp_path) if name.endswith(".corrupt")
        ]
        assert len(corrupt) == 1
        # The recompute is bit-identical to the pre-damage trace.
        import numpy as np

        assert np.array_equal(recovered.block_ids, reference.block_ids)
        assert np.array_equal(recovered.taken_column, reference.taken_column)
        assert np.array_equal(recovered.target_column, reference.target_column)


class TestShimsRemoved:
    """The deprecation cycle is complete: the module-level shims are gone."""

    def test_run_sweep_and_workload_trace_removed_from_common(self):
        import repro.experiments.common as common

        assert not hasattr(common, "run_sweep")
        assert not hasattr(common, "workload_trace")

    def test_canonical_homes_still_serve_the_replacements(self):
        from repro.api import default_session
        from repro.workloads import get_workload
        from repro.workloads.trace_cache import workload_trace

        assert default_session().map(_square, ITEMS) == [
            _square(item) for item in ITEMS
        ]
        spec = get_workload("FT")
        # The process-wide cache returns the very same trace object.
        assert workload_trace(spec, 2_000) is workload_trace(spec, 2_000)

    def test_package_level_simulate_frontend_removed(self):
        import repro.frontend
        from repro.frontend import simulation

        with pytest.raises(AttributeError):
            repro.frontend.simulate_frontend
        with pytest.raises(AttributeError):
            repro.frontend.simulate_frontend_many
        assert "simulate_frontend" not in repro.frontend.__all__
        # The engine itself stays importable from its canonical module.
        assert callable(simulation.simulate_frontend)
        assert callable(simulation.simulate_frontend_many)

    def test_unknown_frontend_attribute_still_raises(self):
        import repro.frontend

        with pytest.raises(AttributeError):
            repro.frontend.definitely_not_a_thing
