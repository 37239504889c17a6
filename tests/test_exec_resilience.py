"""Fault tolerance of the execution layer, end to end.

Covers both executors -- serial and the durable work queue, the one
parallel path -- under retries, worker death, and serial degradation;
kill-and-resume of a parallel sweep through a real SIGKILL of its
supervisor; deterministic fault injection; the trace-cache quarantine
path; and the deprecation schedule of the legacy module-level entry
points.  Everything is deterministic: faults are pinned to exact
``(item, attempt)`` sites, never to timing.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.api import RuntimeConfig, Session, current_session
from repro.exec import (
    Fault,
    FaultPlan,
    InjectedFault,
    QueueExecutor,
    SerialExecutor,
    SweepError,
    execute_items,
)
from repro.exec.queue import CAMPAIGN_PREFIX, RESULT_SUFFIX
from repro.exec.results import (
    STATUS_OK,
    STATUS_POISON,
    STATUS_REPLAYED,
)

#: A short, cheap worker sweep shared by most tests.
ITEMS = list(range(4))

#: Settings with real retry semantics (a serial retry does not sleep).
FAST = dict(retries=2)


def _square(args):
    return args * args


def _pid(args):
    return os.getpid()


def _explode(args):
    raise RuntimeError(f"boom on {args}")


def serial_settings(**overrides):
    merged = {"processes": None, **FAST, **overrides}
    if isinstance(merged.get("fault_plan"), FaultPlan):
        merged["fault_plan"] = merged["fault_plan"].to_json()
    return RuntimeConfig(**merged)


#: The two executors, by the name a sweep report quotes.
EXECUTOR_CLASSES = {"serial": SerialExecutor, "queue": QueueExecutor}


def run_with(executor_name, worker, items=ITEMS, **overrides):
    executor = EXECUTOR_CLASSES[executor_name]()
    return execute_items(worker, items, serial_settings(**overrides), executor)


class TestRetries:
    @pytest.mark.parametrize("executor_name", ["serial", "queue"])
    def test_transient_exception_succeeds_after_retry(self, executor_name):
        plan = FaultPlan.of(Fault(kind="raise", index=2, attempt=1))
        report = run_with(
            executor_name, _square, fault_plan=plan, processes=2
        )
        assert [item.value for item in report.items] == [0, 1, 4, 9]
        assert [item.status for item in report.items] == [STATUS_OK] * 4
        # The faulted item took exactly one extra attempt; the rest one.
        assert [item.attempts for item in report.items] == [1, 1, 2, 1]

    @pytest.mark.parametrize("executor_name", ["serial", "queue"])
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

    def test_a_serial_retry_does_not_sleep(self, monkeypatch):
        # A failed item is retried at once, as a queue worker retries it
        # on its next scan: there is no backoff between attempts.
        import time

        def no_sleep(seconds):
            raise AssertionError(f"a serial retry slept {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        plan = FaultPlan.of(
            Fault(kind="raise", index=1, attempt=1),
            Fault(kind="kill", index=1, attempt=2),
        )
        report = run_with("serial", _square, fault_plan=plan, retries=2)
        assert report.values() == [0, 1, 4, 9]
        assert [item.attempts for item in report.items] == [1, 3, 1, 1]

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
    @pytest.mark.parametrize("executor_name", ["serial", "queue"])
    def test_killed_worker_is_replaced_and_item_retried(self, executor_name):
        plan = FaultPlan.of(Fault(kind="kill", index=1, attempt=1))
        report = run_with(
            executor_name, _square, fault_plan=plan, processes=2
        )
        assert report.values() == [0, 1, 4, 9]
        assert report.items[1].attempts == 2

    def test_unkillable_item_ends_as_poison(self):
        # An item that kills every worker it reaches is quarantined once
        # its deaths exceed the retry budget; the others complete.
        plan = FaultPlan.of(
            *[Fault(kind="kill", index=1, attempt=attempt) for attempt in (1, 2)]
        )
        report = run_with("queue", _square, retries=1, fault_plan=plan, processes=2)
        (failure,) = report.failures()
        assert failure.status == STATUS_POISON
        assert failure.attempts == 2
        assert report.partial_values() == {0: 0, 2: 4, 3: 9}


class TestSerialDegradation:
    def test_broken_pool_degrades_to_serial_bit_identically(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes for you")

        serial = run_with("serial", _square)
        monkeypatch.setattr(multiprocessing.get_context(), "Process", refuse)
        degraded = run_with("queue", _square, processes=2)
        assert degraded.degraded is True
        assert degraded.values() == serial.values()

    @pytest.mark.parametrize("executor_name", ["serial", "queue"])
    def test_serial_and_queue_executors_are_bit_identical(self, executor_name):
        report = run_with(executor_name, _square, processes=2)
        assert report.degraded is False
        assert report.executor == executor_name
        assert report.values() == [_square(item) for item in ITEMS]


class TestKillAndResume:
    """A parallel sweep SIGKILLed at item k resumes, replaying 0..k-1.

    No queue directory is configured: the campaign lives under the
    result store, which is what makes every ``--parallel`` run durable.
    """

    CHILD = textwrap.dedent(
        """
        import json, os, signal, sys

        from repro.api import Session

        def worker(args):
            if args == 3 and os.environ.get("CHAOS_KILL"):
                # Hard-kill the supervising process mid-sweep, then this
                # worker: the deterministic stand-in for a crashed run.
                os.kill(os.getppid(), signal.SIGKILL)
                os._exit(87)
            return args * args

        session = Session(
            parallel=True,
            processes=1,
            trace_cache_dir=None,
            result_cache_dir=os.environ["STORE_DIR"],
        )
        report = session.map_report(worker, list(range(6)))
        json.dump(
            {
                "executor": report.executor,
                "statuses": [item.status for item in report.items],
                "values": report.values(),
            },
            sys.stdout,
        )
        """
    )

    def _run_child(self, store_dir, chaos_kill):
        env = dict(os.environ)
        env["STORE_DIR"] = str(store_dir)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_QUEUE_DIR", None)
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
        # One worker process means in-order claims: items 0..2 were
        # published before item 3 took the supervisor down.
        queue_dir = store_dir / "queue"
        (campaign,) = [
            name for name in os.listdir(queue_dir) if name.startswith(CAMPAIGN_PREFIX)
        ]
        published = [
            name
            for name in os.listdir(queue_dir / campaign / "done")
            if name.endswith(RESULT_SUFFIX)
        ]
        assert len(published) == 3
        resumed_child = self._run_child(store_dir, chaos_kill=False)
        assert resumed_child.returncode == 0, resumed_child.stderr
        resumed = json.loads(resumed_child.stdout)
        assert resumed["executor"] == "queue"
        assert resumed["statuses"] == [STATUS_REPLAYED] * 3 + [STATUS_OK] * 3
        # The completed campaign retired its directory.
        assert not [
            name for name in os.listdir(queue_dir) if name.startswith(CAMPAIGN_PREFIX)
        ]
        # Bit-identical to a run that was never disturbed.
        undisturbed_child = self._run_child(tmp_path / "fresh", chaos_kill=False)
        assert undisturbed_child.returncode == 0, undisturbed_child.stderr
        undisturbed = json.loads(undisturbed_child.stdout)
        assert resumed["values"] == undisturbed["values"]
        assert undisturbed["statuses"] == [STATUS_OK] * 6

    def test_resume_keys_on_worker_and_arguments(self, tmp_path):
        # Published results of one worker function can never replay into
        # a sweep over a different worker or different arguments.
        plan = FaultPlan.of(
            *[Fault(kind="raise", index=3, attempt=attempt) for attempt in (1, 2, 3)]
        )
        common = dict(processes=1, queue_dir=str(tmp_path))
        executor = QueueExecutor()
        kept = execute_items(
            _square, ITEMS, serial_settings(fault_plan=plan, **common), executor
        )
        # The failure keeps the campaign, three published results in it.
        assert len(kept.failures()) == 1
        other = execute_items(
            _explode, ITEMS, serial_settings(retries=0, **common), executor
        )
        shifted = execute_items(
            _square, [item + 1 for item in ITEMS], serial_settings(**common), executor
        )
        for report in (other, shifted):
            assert not [item for item in report.items if item.status == STATUS_REPLAYED]
        assert shifted.values() == [_square(item + 1) for item in ITEMS]


class TestExecutorSelection:
    @pytest.mark.parametrize("parallel,name", [(False, "serial"), (True, "queue")])
    def test_the_session_parallel_setting_picks_the_executor(self, parallel, name):
        session = Session(
            parallel=parallel,
            processes=1,
            trace_cache_dir=None,
            result_cache_dir=None,
        )
        report = session.map_report(_square, ITEMS)
        assert report.executor == name
        assert report.values() == [0, 1, 4, 9]

    @pytest.mark.parametrize("outer,inner", [(True, False), (False, True)])
    def test_the_innermost_active_session_decides(self, outer, inner):
        # The experiment drivers sweep through current_session(), so a
        # nested session's setting, not the outer one's, must win.
        def session(parallel):
            return Session(
                parallel=parallel,
                processes=1,
                trace_cache_dir=None,
                result_cache_dir=None,
            )

        with session(outer).activate(), session(inner).activate():
            report = current_session().map_report(_square, ITEMS)
        assert report.executor == ("queue" if inner else "serial")
        assert report.values() == [0, 1, 4, 9]

    def test_the_session_processes_setting_sizes_the_queue(self):
        session = Session(
            parallel=True,
            processes=1,
            trace_cache_dir=None,
            result_cache_dir=None,
        )
        pids = set(session.map(_pid, ITEMS))
        assert len(pids) == 1 and os.getpid() not in pids

    def test_the_environment_switch_is_repro_parallel_alone(self, monkeypatch):
        # A leftover REPRO_EXECUTOR (a retired knob) cannot pick an
        # executor against REPRO_PARALLEL.
        for parallel, stale, name in (
            ("1", "serial", "queue"),
            ("0", "queue", "serial"),
        ):
            monkeypatch.setenv("REPRO_PARALLEL", parallel)
            monkeypatch.setenv("REPRO_EXECUTOR", stale)
            session = Session(processes=1, trace_cache_dir=None, result_cache_dir=None)
            assert session.map_report(_square, ITEMS).executor == name


class TestFaultPlans:
    def test_plan_round_trips_through_json(self):
        plan = FaultPlan.of(
            Fault(kind="kill", index=1),
            Fault(kind="raise", index=2, attempt=2, message="flaky"),
            Fault(kind="double-claim", index=3, seconds=1.5),
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
        for kind in ("meteor", "hang"):
            with pytest.raises(ValueError):
                Fault(kind=kind, index=0)
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

    def test_truncate_fault_damages_the_configured_result_store(self, tmp_path):
        from repro.api.runtime_config import activated
        from repro.results.store import (
            clear_result_store,
            load_result,
            result_store_info,
            store_result,
        )

        artifact = {
            "schema": 2,
            "experiment": "t",
            "title": "T",
            "tables": [],
            "primary": None,
            "frames": {},
            "payload": [],
        }
        store = tmp_path / "results"
        clear_result_store()
        # The fault resolves the store the run is using: the active
        # config's directory, with nothing joined under it.
        with activated(RuntimeConfig(result_cache_dir=str(store))):
            store_result("a" * 64, artifact)
            (entry,) = os.listdir(store)
            FaultPlan.of(
                Fault(kind="truncate", index=0, target="*.json", store="result-store")
            ).fire(0, 1, allow_exit=False)
            clear_result_store()  # Drop the memory layer; force a disk read.
            quarantined = result_store_info()["quarantined"]
            assert load_result("a" * 64) is None
        assert result_store_info()["quarantined"] == quarantined + 1
        assert not (store / entry).exists()
        assert [name for name in os.listdir(store) if name.endswith(".corrupt")]
        clear_result_store()


class TestShimsRemoved:
    """The deprecation cycle is complete: the module-level shims are gone."""

    def test_run_sweep_and_workload_trace_removed_from_common(self):
        import repro.experiments.common as common

        assert not hasattr(common, "run_sweep")
        assert not hasattr(common, "workload_trace")

    def test_canonical_homes_still_serve_the_replacements(self):
        from repro.api import current_session
        from repro.workloads import get_workload
        from repro.workloads.trace_cache import workload_trace

        assert current_session().map(_square, ITEMS) == [
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
