"""Tests for the durable filesystem work queue (the parallel executor).

Covers the lease primitives (exclusive claims, heartbeat renewal,
reclaim races, corrupt-lease quarantine), the queue-specific fault
kinds (``stale-lease``, ``double-claim``, ``slow-heartbeat``), poison
item quarantine, campaign resume after a SIGKILLed supervisor (only
successes replay; the campaign is keyed by the code), a supervisor
that wakes on publication, workers that stop when their supervisor
dies, and the external ``repro-frontend worker`` CLI -- every
robustness claim as a deterministic assertion.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro import durable
from repro.api.runtime_config import (
    RuntimeConfig,
    activated,
    current_trace_cache_dir,
)
from repro.exec import leases
from repro.exec import queue as queue_module
from repro.exec.executors import SerialExecutor, _worker_main
from repro.exec.faults import Fault, FaultPlan
from repro.exec.queue import (
    CAMPAIGN_PREFIX,
    DEFAULT_PRIORITY,
    FAILED_SUFFIX,
    INTERACTIVE_PRIORITY,
    RESULT_SUFFIX,
    QueueExecutor,
    QueueWorker,
    enqueue_campaign,
    load_published,
    publish_result,
    queue_info,
    reset_queue_info,
    worker_reference,
)
from repro.exec.results import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POISON,
    STATUS_REPLAYED,
)

#: Keeps every retry path fast; the short TTL keeps reclaim tests fast.
FAST = dict(retries=2, retry_delay=0.001, lease_ttl=1.0)


def settings(**overrides) -> RuntimeConfig:
    """A queue config: ``FAST`` plus overrides, a fault plan as its JSON."""
    merged = {**FAST, **overrides}
    if isinstance(merged.get("fault_plan"), FaultPlan):
        merged["fault_plan"] = merged["fault_plan"].to_json()
    return RuntimeConfig(**merged)


def double(args):
    return args * 2


def explode_on_three(args):
    if args == 3:
        raise ValueError("item three always fails")
    return args


def fail_two_while_marked(args):
    index, marker = args
    if index == 2 and os.path.exists(marker):
        raise RuntimeError("item two fails while its marker exists")
    return index * 2


def slow_double(args):
    time.sleep(0.02)
    return args * 2


def trace_cache_dir_of(args):
    return current_trace_cache_dir()


def _published(campaign) -> int:
    return len(
        [name for name in os.listdir(campaign.done_dir) if name.endswith(RESULT_SUFFIX)]
    )


def _supervise_one_worker(root) -> None:
    """A stand-in supervisor: one spawned queue worker, then wait."""
    worker = multiprocessing.get_context("fork").Process(
        target=_worker_main,
        args=(slow_double, root, os.getpid(), None, RuntimeConfig()),
    )
    worker.start()
    worker.join()


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_queue_info()
    leases.reset_lease_info()
    yield


class TestExecutionSettingsValidation:
    """Execution settings are RuntimeConfig fields, checked at construction."""

    def test_rejects_out_of_range_knobs(self):
        for bad in (
            dict(retry_delay=0),
            dict(retry_delay=-0.5),
            dict(retries=-1),
            dict(lease_ttl=0),
            dict(lease_ttl=-1.0),
        ):
            with pytest.raises(ValueError):
                settings(**bad)

    def test_valid_knobs_pass(self):
        built = settings()
        assert built.lease_ttl == 1.0
        assert built.retry_delay == 0.001


class TestLeases:
    def test_acquire_is_exclusive(self, tmp_path):
        path = str(tmp_path / "item.lease")
        assert leases.acquire(path, "a:1:x", ttl=5.0)
        assert not leases.acquire(path, "b:2:y", ttl=5.0)
        document = leases.read_lease(path)
        assert document["owner"] == "a:1:x"

    def test_renew_refuses_after_reclaim(self, tmp_path):
        path = str(tmp_path / "item.lease")
        assert leases.acquire(path, "a:1:x", ttl=5.0)
        assert leases.renew(path, "a:1:x", seq=1, ttl=5.0)
        taken = leases.reclaim(path, "reaper:2:y")
        assert taken["owner"] == "a:1:x"
        # The zombie's next heartbeat must not resurrect the claim.
        assert not leases.renew(path, "a:1:x", seq=2, ttl=5.0)
        assert leases.lease_info()["lost"] >= 1
        assert not os.path.exists(path)

    def test_release_only_by_owner(self, tmp_path):
        path = str(tmp_path / "item.lease")
        leases.acquire(path, "a:1:x", ttl=5.0)
        assert not leases.release(path, "b:2:y")
        assert os.path.exists(path)
        assert leases.release(path, "a:1:x")
        assert not os.path.exists(path)

    def test_reclaim_race_has_one_winner(self, tmp_path):
        path = str(tmp_path / "item.lease")
        leases.acquire(path, "a:1:x", ttl=5.0)
        first = leases.reclaim(path, "reaper:2:y")
        second = leases.reclaim(path, "reaper:3:z")
        assert first is not None
        assert second is None

    def test_corrupt_lease_is_quarantined_and_stale(self, tmp_path):
        path = str(tmp_path / "item.lease")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("not json {")
        document = leases.read_lease(path)
        assert document["corrupt"]
        assert leases.Reaper(ttl=100.0).is_stale(path, document)
        quarantined = [
            name for name in os.listdir(tmp_path) if name.endswith(".corrupt")
        ]
        assert quarantined

    def test_reaper_dead_pid_fast_path(self, tmp_path):
        path = str(tmp_path / "item.lease")
        # Spawn-and-reap a real process so the pid provably belongs to
        # no one, then hand the reaper a lease owned by it.
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        owner = f"{socket.gethostname()}:{probe.pid}:dead"
        leases.acquire(path, owner, ttl=100.0)
        reaper = leases.Reaper(ttl=100.0)
        assert reaper.is_stale(path, leases.read_lease(path))

    def test_reaper_old_timestamp(self, tmp_path):
        path = str(tmp_path / "item.lease")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(
                {"owner": "elsewhere:1:x", "seq": 5, "ts": time.time() - 60, "ttl": 1},
                stream,
            )
        assert leases.Reaper(ttl=1.0).is_stale(path, leases.read_lease(path))

    def test_reaper_frozen_sequence_on_own_clock(self, tmp_path):
        # A lease from a machine with a wildly skewed (future) clock:
        # the timestamp check is useless, the sequence observation on
        # the reaper's own monotonic clock still catches it.
        path = str(tmp_path / "item.lease")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(
                {"owner": "elsewhere:1:x", "seq": 7, "ts": time.time() + 3600, "ttl": 1},
                stream,
            )
        reaper = leases.Reaper(ttl=0.2)
        document = leases.read_lease(path)
        assert not reaper.is_stale(path, document)  # First observation.
        time.sleep(0.3)
        assert reaper.is_stale(path, document)


class TestQueueExecutor:
    def test_matches_serial_execution_bit_for_bit(self, tmp_path):
        items = [(index, index) for index in range(25)]
        queued = QueueExecutor().run(
            double, items, settings(processes=2, queue_dir=str(tmp_path))
        )
        serial = SerialExecutor().run(
            double, items, RuntimeConfig(retries=2, retry_delay=0.001)
        )
        assert [r.value for r in queued.results] == [r.value for r in serial.results]
        assert [r.index for r in queued.results] == [r.index for r in serial.results]
        assert not queued.degraded

    def test_successful_campaign_retires_its_directory(self, tmp_path):
        QueueExecutor().run(
            double,
            [(index, index) for index in range(4)],
            settings(processes=1, queue_dir=str(tmp_path)),
        )
        assert not [
            name for name in os.listdir(tmp_path) if name.startswith(CAMPAIGN_PREFIX)
        ]

    def test_failed_campaign_keeps_its_directory_as_evidence(self, tmp_path):
        out = QueueExecutor().run(
            explode_on_three,
            [(index, index) for index in range(5)],
            settings(processes=1, retries=1, queue_dir=str(tmp_path)),
        )
        failed = [r for r in out.results if not r.ok]
        assert [r.index for r in failed] == [3]
        assert "item three always fails" in failed[0].error
        assert failed[0].attempts == 2  # retries=1 -> two attempts.
        assert [
            name for name in os.listdir(tmp_path) if name.startswith(CAMPAIGN_PREFIX)
        ]

    def test_resume_replays_published_results_without_recompute(self, tmp_path):
        items = [(index, index) for index in range(6)]
        config = settings(processes=1, queue_dir=str(tmp_path))
        campaign = enqueue_campaign(double, items, config, str(tmp_path))
        # A previous (killed) run published items 0 and 1 with values a
        # recompute could never produce: replay must preserve them.
        for index in (0, 1):
            publish_result(
                campaign,
                campaign.names[index],
                {
                    "index": index,
                    "status": STATUS_OK,
                    "value": 990 + index,
                    "error": None,
                    "attempts": 1,
                },
            )
        out = QueueExecutor().run(double, items, config)
        by_index = {r.index: r for r in out.results}
        assert by_index[0].status == STATUS_REPLAYED
        assert by_index[0].value == 990
        assert by_index[1].status == STATUS_REPLAYED
        assert by_index[1].value == 991
        assert all(by_index[i].status == STATUS_OK for i in range(2, 6))
        assert [by_index[i].value for i in range(2, 6)] == [4, 6, 8, 10]

    def test_rerun_runs_failed_items_again(self, tmp_path):
        marker = tmp_path / "marker"
        marker.write_text("fail")
        items = [(index, (index, str(marker))) for index in range(4)]
        config = settings(processes=1, retries=0, queue_dir=str(tmp_path / "queue"))
        executor = QueueExecutor()
        first = executor.run(fail_two_while_marked, items, config)
        assert [r.status for r in first.results] == [STATUS_OK] * 2 + [
            STATUS_ERROR,
            STATUS_OK,
        ]
        # A rerun replays the successes but runs the failure again; the
        # old outcome and its failure ledger are kept as evidence.
        second = executor.run(fail_two_while_marked, items, config)
        assert [r.status for r in second.results] == [STATUS_REPLAYED] * 2 + [
            STATUS_ERROR,
            STATUS_REPLAYED,
        ]
        assert second.results[2].attempts == 1
        campaign = enqueue_campaign(fail_two_while_marked, items, config, config.queue_dir)
        failed = campaign.names[2]
        assert os.path.exists(campaign.result_path(failed) + FAILED_SUFFIX)
        assert os.path.exists(campaign.deaths_path(failed) + FAILED_SUFFIX)
        # Once the fault clears, the item succeeds instead of replaying
        # its old error, and the finished campaign retires.
        marker.unlink()
        third = executor.run(fail_two_while_marked, items, config)
        assert [r.status for r in third.results] == [STATUS_REPLAYED] * 2 + [
            STATUS_OK,
            STATUS_REPLAYED,
        ]
        assert [r.value for r in third.results] == [0, 2, 4, 6]
        assert not os.listdir(config.queue_dir)

    def test_campaign_directory_follows_the_code(self, tmp_path, monkeypatch):
        from repro.results import store

        items = [(index, index) for index in range(3)]
        before = enqueue_campaign(double, items, settings(), str(tmp_path))
        monkeypatch.setattr(store, "source_digest", lambda *packages: "0" * 64)
        after = enqueue_campaign(double, items, settings(), str(tmp_path))
        # Other code, other campaign: nothing published under the old
        # source can replay into a run of the new one.
        assert after.root != before.root

    def test_one_priority_leads_every_item_name(self, tmp_path):
        items = [(index, index) for index in range(3)]
        background = enqueue_campaign(double, items, settings(), str(tmp_path / "a"))
        interactive = enqueue_campaign(
            double,
            items,
            settings(),
            str(tmp_path / "b"),
            priority=INTERACTIVE_PRIORITY,
        )
        assert {name[:4] for name in background.names} == {f"p{DEFAULT_PRIORITY}-"}
        assert {name[:4] for name in interactive.names} == {
            f"p{INTERACTIVE_PRIORITY}-"
        }
        # Priority orders claims only: the same sweep keeps its item ids
        # and its content address.
        assert [name[4:] for name in interactive.names] == [
            name[4:] for name in background.names
        ]
        assert os.path.basename(interactive.root) == os.path.basename(background.root)

    def test_supervisor_wakes_on_publication(self, tmp_path, monkeypatch):
        # With the rescan interval far beyond the test's budget, only
        # the workers' announcements can finish the campaign in time.
        monkeypatch.setattr(queue_module, "QUEUE_POLL", 30.0)
        started = time.monotonic()
        out = QueueExecutor().run(
            double,
            [(index, index) for index in range(6)],
            settings(processes=2, queue_dir=str(tmp_path)),
        )
        assert time.monotonic() - started < 10.0
        assert [r.value for r in out.results] == [0, 2, 4, 6, 8, 10]

    def test_kill_fault_is_reclaimed_and_retried(self, tmp_path):
        plan = FaultPlan.of(Fault("kill", index=3))
        out = QueueExecutor().run(
            double,
            [(index, index) for index in range(6)],
            settings(processes=2, queue_dir=str(tmp_path), fault_plan=plan),
        )
        by_index = {r.index: r for r in out.results}
        assert [by_index[i].value for i in range(6)] == [0, 2, 4, 6, 8, 10]
        assert by_index[3].attempts == 2


class TestQueueWorkerInProcess:
    """Queue faults driven by in-process workers, where the process-wide
    counters are observable and every step is deterministic."""

    def _campaign(self, tmp_path, count=4, **overrides):
        config = settings(**overrides)
        return enqueue_campaign(
            double, [(index, index) for index in range(count)], config, str(tmp_path)
        )

    def test_sibling_reap_during_acquire_sees_a_whole_claim(
        self, tmp_path, monkeypatch
    ):
        # A sibling's reaper that runs while the claimant is inside
        # acquire() must find either no lease or the whole document:
        # an empty claim file would read as a torn write, be
        # quarantined, and leave the item free for a second claimant
        # running the same attempt.
        campaign = self._campaign(tmp_path, count=1)
        claimant = QueueWorker(campaign)
        sibling = QueueWorker(campaign)
        document = leases._lease_document

        def reap_while_acquiring(*args):
            sibling.reap()
            return document(*args)

        monkeypatch.setattr(leases, "_lease_document", reap_while_acquiring)
        path = campaign.lease_path(campaign.names[0])
        assert leases.acquire(path, claimant.owner, campaign.config.lease_ttl)
        lease = leases.read_lease(path)
        assert lease is not None and lease["owner"] == claimant.owner
        evidence = [
            name
            for _, _, names in os.walk(campaign.root)
            for name in names
            if name.endswith(durable.CORRUPT_SUFFIX)
        ]
        assert evidence == []
        assert sorted(os.listdir(campaign.leases_dir)) == [os.path.basename(path)]
        assert queue_info()["reclaims"] == 0

    def test_stale_lease_fault_exercises_foreign_reclaim(self, tmp_path):
        plan = FaultPlan.of(Fault("stale-lease", index=0))
        campaign = self._campaign(tmp_path, fault_plan=plan)
        QueueWorker(campaign).drain()
        for index, name in enumerate(campaign.names):
            payload = load_published(campaign, name)
            assert payload["status"] == STATUS_OK
            assert payload["value"] == index * 2
        # The abandoned foreign lease was reclaimed, not shortcut by
        # the same-host pid check, and the retry carried attempt 2.
        assert queue_info()["reclaims"] >= 1
        assert leases.lease_info()["reclaimed"] >= 1
        assert load_published(campaign, campaign.names[0])["attempts"] == 2

    def test_poison_item_quarantined_with_typed_report(self, tmp_path):
        plan = FaultPlan.of(
            *[Fault("stale-lease", index=1, attempt=a) for a in (1, 2, 3, 4)]
        )
        campaign = self._campaign(tmp_path, retries=1, fault_plan=plan)
        QueueWorker(campaign).drain()
        payload = load_published(campaign, campaign.names[1])
        assert payload["status"] == STATUS_POISON
        assert "poison item" in payload["error"]
        report_path = campaign.poison_report_path(campaign.names[1])
        with open(report_path, "r", encoding="utf-8") as stream:
            report = json.load(stream)
        assert report["index"] == 1
        assert report["reclaims"] > report["retries"] == 1
        assert report["ledger"]
        # The item file moved out of the queue: nothing claims it again.
        assert not os.path.exists(campaign.item_path(campaign.names[1]))
        assert queue_info()["poisoned"] == 1
        # The campaign still completed: every other item has a value.
        for index in (0, 2, 3):
            assert load_published(campaign, campaign.names[index])["value"] == index * 2

    def test_poison_surfaces_in_executor_results(self, tmp_path):
        plan = FaultPlan.of(
            *[Fault("stale-lease", index=1, attempt=a) for a in (1, 2, 3, 4)]
        )
        out = QueueExecutor().run(
            double,
            [(index, index) for index in range(3)],
            settings(processes=1, retries=1, queue_dir=str(tmp_path), fault_plan=plan),
        )
        by_index = {r.index: r for r in out.results}
        assert by_index[1].status == STATUS_POISON
        assert "quarantined" in by_index[1].error
        assert by_index[0].ok and by_index[2].ok

    def test_double_claim_resolves_first_writer_wins(self, tmp_path):
        plan = FaultPlan.of(Fault("double-claim", index=0, seconds=0.4))
        campaign = self._campaign(tmp_path, count=1, fault_plan=plan)
        first = QueueWorker(campaign)
        second = QueueWorker(campaign)
        threads = [
            threading.Thread(target=first.drain),
            threading.Thread(target=second.drain),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        payload = load_published(campaign, campaign.names[0])
        assert payload["status"] == STATUS_OK
        assert payload["value"] == 0
        # Both claimants published; identical bytes resolved as a
        # duplicate, never a second result file.
        info = queue_info()
        assert info["duplicates"] + info["conflicts"] >= 1
        assert not os.path.exists(campaign.item_path(campaign.names[0]))

    def test_slow_heartbeat_is_reclaimed_mid_run(self, tmp_path):
        # Worker one pauses its heartbeat and stalls past the TTL; a
        # sibling's reaper must reclaim and complete the item, and the
        # late publication must lose the compare-and-swap.
        plan = FaultPlan.of(Fault("slow-heartbeat", index=0, seconds=1.6))
        campaign = self._campaign(tmp_path, count=1, lease_ttl=0.4, fault_plan=plan)
        stalled = QueueWorker(campaign)
        sibling = QueueWorker(campaign)
        stall_thread = threading.Thread(target=stalled.drain)
        stall_thread.start()
        time.sleep(0.15)  # Let the stalled worker claim first.

        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            sibling.step()
            if load_published(campaign, campaign.names[0]) is not None:
                break
        stall_thread.join(timeout=30)
        payload = load_published(campaign, campaign.names[0])
        assert payload["status"] == STATUS_OK
        assert payload["value"] == 0
        # The sibling reclaimed the stalled claim (attempt 2 won) and
        # the stalled worker's late attempt-1 publication conflicted.
        assert queue_info()["reclaims"] >= 1
        assert payload["attempts"] == 2
        assert queue_info()["conflicts"] >= 1
        conflicts = [
            name
            for name in os.listdir(campaign.done_dir)
            if ".conflict" in name
        ]
        assert conflicts


class TestKillSupervisorAndResume:
    """The acceptance scenario: a 1000-item campaign survives SIGKILL
    of a worker AND the supervisor, resumes from a fresh process, and
    ends byte-identical to an undisturbed run."""

    CHILD = textwrap.dedent(
        """
        import json, os, signal, sys

        from repro.api.runtime_config import RuntimeConfig
        from repro.exec import QueueExecutor

        def worker(args):
            if args == 37 and os.environ.get("CHAOS_KILL"):
                # Take down the supervisor (our parent) and then this
                # worker process itself, both without cleanup.
                os.kill(os.getppid(), signal.SIGKILL)
                os._exit(87)
            return (args * 2654435761) % 1000003

        config = RuntimeConfig(
            processes=2,
            retries=2,
            retry_delay=0.001,
            lease_ttl=1.0,
            queue_dir=os.environ["QUEUE_DIR"],
        )
        out = QueueExecutor().run(
            worker, [(i, i) for i in range(1000)], config
        )
        json.dump(
            {
                "statuses": sorted({r.status for r in out.results}),
                "values": [r.value for r in out.results],
                "degraded": out.degraded,
            },
            sys.stdout,
        )
        """
    )

    def _run_child(self, queue_dir, chaos_kill):
        env = dict(os.environ)
        env["QUEUE_DIR"] = str(queue_dir)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if chaos_kill:
            env["CHAOS_KILL"] = "1"
        else:
            env.pop("CHAOS_KILL", None)
        return subprocess.run(
            [sys.executable, "-c", self.CHILD],
            env=env,
            timeout=300,
            capture_output=True,
            text=True,
        )

    def test_campaign_survives_killing_worker_and_supervisor(self, tmp_path):
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        killed = self._run_child(queue_dir, chaos_kill=True)
        assert killed.returncode == -signal.SIGKILL
        # The campaign directory survives the kill with work to do.
        campaigns = [
            name for name in os.listdir(queue_dir) if name.startswith(CAMPAIGN_PREFIX)
        ]
        assert len(campaigns) == 1
        items_dir = queue_dir / campaigns[0] / "items"
        assert any(name.endswith(".item") for name in os.listdir(items_dir))

        resumed = self._run_child(queue_dir, chaos_kill=False)
        assert resumed.returncode == 0, resumed.stderr
        report = json.loads(resumed.stdout)
        # The resume replayed the published subset and ran the rest:
        # both statuses present, nothing failed, nothing degraded.
        assert report["statuses"] == ["ok", "replayed"]
        assert not report["degraded"]

        reference = self._run_child(tmp_path / "fresh", chaos_kill=False)
        assert reference.returncode == 0, reference.stderr
        undisturbed = json.loads(reference.stdout)
        assert report["values"] == undisturbed["values"]
        assert undisturbed["statuses"] == ["ok"]
        # Both campaigns completed fully and retired their directories.
        assert not [
            name for name in os.listdir(queue_dir) if name.startswith(CAMPAIGN_PREFIX)
        ]


class TestRetiredCampaign:
    """A campaign retired under a running supervisor heals, not livelocks:
    another supervisor of the same sweep, sharing the queue directory,
    deletes the campaign when it finishes first."""

    CHILD = textwrap.dedent(
        """
        import json, os, shutil, sys

        from repro.api.runtime_config import RuntimeConfig
        from repro.exec import QueueExecutor

        queue_dir, marker = sys.argv[1], sys.argv[2]

        def worker(args):
            if args == 0 and os.path.exists(marker):
                # What the other supervisor does once it has finished.
                os.unlink(marker)
                for name in os.listdir(queue_dir):
                    shutil.rmtree(os.path.join(queue_dir, name))
            return args * 2

        config = RuntimeConfig(processes=1, retry_delay=0.001, queue_dir=queue_dir)
        out = QueueExecutor().run(
            worker, [(i, i) for i in range(4)], config
        )
        json.dump([r.value for r in out.results], sys.stdout)
        """
    )

    def test_supervisor_heals_a_campaign_retired_under_it(self, tmp_path):
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        marker = tmp_path / "marker"
        marker.write_text("retire once")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(queue_dir), str(marker)],
            env=env,
            timeout=60,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0, 2, 4, 6]
        assert not marker.exists()
        assert not os.listdir(queue_dir)


class TestWorkerConfig:
    def test_worker_main_runs_under_the_config_it_is_handed(self, tmp_path):
        campaign = enqueue_campaign(
            trace_cache_dir_of,
            [(index, index) for index in range(3)],
            settings(),
            str(tmp_path / "queue"),
        )
        config = RuntimeConfig(
            trace_cache_dir=str(tmp_path / "traces"), cache_namespace="ns"
        )
        _worker_main(trace_cache_dir_of, campaign.root, os.getpid(), None, config)
        expected = os.path.join(str(tmp_path / "traces"), "ns")
        for name in campaign.names:
            payload = load_published(campaign, name)
            assert payload["status"] == STATUS_OK
            assert payload["value"] == expected
        # The handed config is scoped to the drain.
        assert current_trace_cache_dir() != expected


class TestOrphanedWorker:
    def test_worker_stops_when_its_supervisor_is_a_zombie(self, tmp_path):
        campaign = enqueue_campaign(
            slow_double, [(index, index) for index in range(200)], settings(), str(tmp_path)
        )
        supervisor = multiprocessing.get_context("fork").Process(
            target=_supervise_one_worker, args=(campaign.root,)
        )
        supervisor.start()
        try:
            deadline = time.monotonic() + 60
            while _published(campaign) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _published(campaign) >= 3
            # SIGKILL the supervisor and leave it unreaped: a zombie,
            # which still answers kill(pid, 0) as if it were alive.
            os.kill(supervisor.pid, signal.SIGKILL)
            # The in-flight item may still publish; after that, nothing
            # (an undetected orphan drains all 200 items in about 4 s).
            settled = _published(campaign)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                time.sleep(1.0)
                if _published(campaign) == settled:
                    break
                settled = _published(campaign)
            assert _published(campaign) == settled < 200
        finally:
            supervisor.join(timeout=30)


class TestExternalCliWorker:
    def test_cli_worker_drains_a_campaign(self, tmp_path):
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        assert worker_reference(double) == "test_queue_executor:double"
        campaign = enqueue_campaign(
            double,
            [(index, index) for index in range(6)],
            settings(),
            str(queue_dir),
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        tests = os.path.dirname(__file__)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, tests, env.get("PYTHONPATH", "")]
        )
        env.setdefault("REPRO_TRACE_CACHE_DIR", "none")
        env.setdefault("REPRO_RESULT_CACHE_DIR", "none")
        done = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "worker",
                "--queue-dir",
                str(queue_dir),
                "--max-idle",
                "1",
            ],
            env=env,
            timeout=120,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "worker idle" in done.stderr
        for index, name in enumerate(campaign.names):
            payload = load_published(campaign, name)
            assert payload is not None, name
            assert payload["status"] == STATUS_OK
            assert payload["value"] == index * 2

    def test_a_campaign_manifest_overrides_the_worker_config(self, tmp_path):
        # A manifest written by older code also holds retry_delay and
        # heartbeat_interval; the three shared keys win over the opening
        # process's config, the rest are ignored.
        campaign = enqueue_campaign(
            double, [(0, 0)], settings(), str(tmp_path / "queue")
        )
        plan = FaultPlan.of(Fault("raise", index=0))
        manifest = {
            "version": 1,
            "worker": worker_reference(double),
            "total": 1,
            "settings": {
                "retries": 3,
                "retry_delay": 0.05,
                "lease_ttl": 2.0,
                "heartbeat_interval": 5.0,
                "fault_plan": plan.to_json(),
            },
        }
        with open(
            os.path.join(campaign.root, queue_module.CAMPAIGN_FILE), "w"
        ) as stream:
            json.dump(manifest, stream)
        with activated(RuntimeConfig(retries=0, lease_ttl=9.0)):
            opened = queue_module.open_campaign(campaign.root)
        assert opened.worker is double
        assert opened.config.retries == 3
        assert opened.config.lease_ttl == 2.0
        assert FaultPlan.from_spec(opened.config.fault_plan) == plan
        assert QueueWorker(opened).fault_plan == plan

    def test_cli_worker_requires_a_queue_dir(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_QUEUE_DIR", None)
        missing = subprocess.run(
            [sys.executable, "-m", "repro.cli", "worker"],
            env=env,
            timeout=60,
            capture_output=True,
            text=True,
        )
        assert missing.returncode == 2
        assert "--queue-dir" in missing.stderr
