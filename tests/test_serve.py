"""Tests for the always-on results service (``repro-frontend serve``).

Covers the wire contract (typed 400s/404s, format negotiation,
``columns``/``where`` slicing), warm serving straight from the store
(zero recomputes, bit-identical to the orchestrator's artifact, p50
handler latency under the acceptance bound), concurrent mixed-budget
isolation, the miss -> 202 -> worker -> poll pipeline (including a
SIGKILLed worker replaced by a fresh one), interactive queue priority,
and the namespace-scoped in-process caches behind request isolation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import List, Tuple

import pytest

from repro import counters
from repro.api import runtime_config as rc
from repro.exec.queue import (
    INTERACTIVE_PRIORITY,
    enqueue_campaign,
    enqueue_item,
    reset_queue_info,
    serve_queue,
    worker_reference,
)
from repro.results.orchestrator import experiment_key, get_spec, run_experiments
from repro.results.store import clear_result_store
from repro.serve import background_server
from repro.serve.wire import dump_json
from repro.workloads import get_workload
from repro.workloads.trace_cache import clear_trace_cache, trace_cache_info, workload_trace

TINY = 6_000


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_result_store()
    clear_trace_cache()
    reset_queue_info()
    yield
    clear_result_store()
    clear_trace_cache()


@pytest.fixture()
def serve_env(tmp_path, monkeypatch):
    """Disk-backed store + queue dirs and the pinned server config."""
    store = tmp_path / "store"
    queue = tmp_path / "queue"
    queue.mkdir()
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(store))
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", "none")
    monkeypatch.setenv("REPRO_LEASE_TTL", "1.0")
    config = rc.RuntimeConfig.from_environment(
        instructions=TINY, queue_dir=str(queue), serve_port=0
    )
    return config, str(queue)


def get(url: str, path: str) -> Tuple[int, str, bytes]:
    """One GET: (status, content type, body) -- errors included."""
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, response.headers.get("Content-Type"), response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), error.read()


def get_json(url: str, path: str):
    status, _, body = get(url, path)
    return status, json.loads(body)


class TestWireContract:
    def test_typed_errors(self, serve_env):
        config, queue = serve_env
        with background_server(config) as server:
            cases = [
                ("/experiment/fig5?instructions=abc", 400, "bad-parameter"),
                ("/experiment/fig5?instructions=0", 400, "bad-parameter"),
                ("/experiment/fig5?instructions=6000&instructions=7000", 400, "bad-parameter"),
                ("/experiment/fig5?format=xml", 400, "bad-parameter"),
                ("/experiment/fig5?wait=never", 400, "bad-parameter"),
                ("/experiment/nope", 404, "unknown-experiment"),
                ("/explore/nope", 404, "unknown-preset"),
                ("/nope", 404, "unknown-route"),
                ("/job/deadbeef", 404, "unknown-job"),
            ]
            for path, status, code in cases:
                got_status, body = get_json(server.url, path)
                assert got_status == status, path
                assert body["error"]["code"] == code, path

    def test_non_get_is_405(self, serve_env):
        config, queue = serve_env
        with background_server(config) as server:
            request = urllib.request.Request(
                server.url + "/healthz", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as raised:
                urllib.request.urlopen(request, timeout=30)
            assert raised.value.code == 405

    def test_healthz(self, serve_env):
        config, queue = serve_env
        with background_server(config) as server:
            status, body = get_json(server.url, "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["queue_dir"] == queue
            assert body["experiments"] >= 18


class TestWarmServing:
    def test_hit_is_bit_identical_to_the_orchestrator_artifact(self, serve_env):
        config, queue = serve_env
        report = run_experiments(["fig5"], instructions=TINY)
        outcome = report.outcome("fig5")
        frame = outcome.stored_frame()
        with background_server(config) as server:
            status, content_type, body = get(server.url, "/experiment/fig5")
            assert status == 200 and content_type == "application/json"
            expected = dump_json(
                {
                    "experiment": "fig5",
                    "key": outcome.key,
                    "frame": "suites",
                    "columns": list(frame.columns),
                    "rows": [list(row) for row in frame.data],
                }
            )
            assert body == expected

            status, content_type, body = get(
                server.url, "/experiment/fig5?format=csv"
            )
            assert status == 200 and content_type.startswith("text/csv")
            assert body == frame.to_csv().encode("utf-8")

    def test_slicing_matches_direct_frame_operations(self, serve_env):
        config, queue = serve_env
        report = run_experiments(["fig5"], instructions=TINY)
        frame = report.outcome("fig5").stored_frame("workloads")
        workload = frame.column("workload")[0]
        with background_server(config) as server:
            status, body = get_json(
                server.url,
                f"/experiment/fig5?frame=workloads&workload={workload}"
                "&columns=workload,tage-big",
            )
            assert status == 200
            direct = frame.select(workload=workload)
            assert body["columns"] == ["workload", "tage-big"]
            position = frame.columns.index("tage-big")
            assert body["rows"] == [
                [workload, row[position]] for row in direct.data
            ]
            status, body = get_json(
                server.url, "/experiment/fig5?frame=workloads&where=nope:1"
            )
            assert status == 400 and body["error"]["code"] == "unknown-column"

    def test_unknown_frame_is_a_key_error_and_a_typed_400(self, serve_env):
        """One stored-frame lookup: the outcome raises KeyError naming
        the stored frames, serve answers 400 unknown-frame with them."""
        config, queue = serve_env
        outcome = run_experiments(["fig5"], instructions=TINY).outcome("fig5")
        message = "artifact has no frame 'nope' (stored: suites, workloads)"
        with pytest.raises(KeyError) as raised:
            outcome.stored_frame("nope")
        assert raised.value.args[0] == message
        with background_server(config) as server:
            status, body = get_json(server.url, "/experiment/fig5?frame=nope")
        assert status == 400
        assert body["error"] == {"code": "unknown-frame", "message": message}

    def test_warm_requests_recompute_nothing_and_meet_latency_bound(self, serve_env):
        config, queue = serve_env
        run_experiments(["fig5"], instructions=TINY)
        with background_server(config) as server:
            get(server.url, "/experiment/fig5")  # prime any disk promotion
            before = counters.snapshot()
            for _ in range(20):
                status, _, _ = get(server.url, "/experiment/fig5")
                assert status == 200
            after = counters.snapshot()
            # Zero recomputes: nothing was enqueued, nothing was stored,
            # no trace or profile work ran -- every byte came from the
            # result store's read path.
            assert after["queue"]["enqueued"] == before["queue"]["enqueued"]
            assert after["results"]["cas_stores"] == before["results"]["cas_stores"]
            assert after["traces"]["misses"] == before["traces"]["misses"]
            assert after["profiles"]["misses"] == before["profiles"]["misses"]
            served = ("hits", "disk_hits")
            assert sum(after["results"][c] for c in served) >= 20 + sum(
                before["results"][c] for c in served
            )
            status, stats = get_json(server.url, "/stats")
            assert status == 200
            route = stats["serve"]["routes"]["experiment"]
            assert route["hits"] >= 21
            assert route["p50_ms"] < 5.0

    def test_stats_caches_are_the_counter_snapshot(self, serve_env):
        config, queue = serve_env
        with background_server(config) as server:
            status, stats = get_json(server.url, "/stats")
        assert status == 200
        snapshot = counters.snapshot()
        assert set(stats["caches"]) == set(snapshot)
        assert {"traces", "profiles", "results", "queue", "leases"} <= set(snapshot)
        for group, values in snapshot.items():
            assert set(stats["caches"][group]) == set(values)

    def test_concurrent_mixed_budget_requests_stay_isolated(self, serve_env):
        config, queue = serve_env
        budgets = (TINY, 9_000)
        references = {}
        for budget in budgets:
            outcome = run_experiments(["fig5"], instructions=budget).outcome("fig5")
            frame = outcome.stored_frame()
            references[budget] = dump_json(
                {
                    "experiment": "fig5",
                    "key": outcome.key,
                    "frame": "suites",
                    "columns": list(frame.columns),
                    "rows": [list(row) for row in frame.data],
                }
            )
        assert references[budgets[0]] != references[budgets[1]]
        with background_server(config) as server:
            def fetch(budget: int) -> Tuple[int, bytes]:
                status, _, body = get(
                    server.url, f"/experiment/fig5?instructions={budget}"
                )
                return budget, status, body

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(
                    pool.map(fetch, [budgets[i % 2] for i in range(24)])
                )
            for budget, status, body in results:
                assert status == 200
                assert body == references[budget]

    def test_explore_preset_route_serves_the_registered_experiment(self, serve_env):
        config, queue = serve_env
        outcome = run_experiments(["explore-smoke"], instructions=TINY).outcome(
            "explore-smoke"
        )
        with background_server(config) as server:
            status, body = get_json(server.url, "/explore/smoke?frame=pareto")
            assert status == 200
            assert body["experiment"] == "explore-smoke"
            assert body["key"] == outcome.key
            pareto = outcome.stored_frame("pareto")
            assert body["columns"] == list(pareto.columns)
            assert body["rows"] == [list(row) for row in pareto.data]


class TestMissAndJobs:
    def test_miss_enqueues_then_poll_serves_the_stored_frame(self, serve_env):
        config, queue = serve_env
        with background_server(config) as server:
            status, body = get_json(server.url, "/experiment/fig5")
            assert status == 202 and body["status"] == "pending"
            poll_path = body["poll"]
            key = body["key"]
            assert key == experiment_key(get_spec("fig5"), TINY)
            # Re-requesting the same miss is idempotent: same job.
            status, again = get_json(server.url, "/experiment/fig5")
            assert status == 202 and again["job"] == body["job"]
            status, pending = get_json(server.url, poll_path)
            assert status == 202 and pending["status"] == "pending"

            # A cooperating worker drains the queue (in-process here;
            # the CLI worker resolves the same importable reference).
            counters = serve_queue(queue, max_idle=0.5, poll=0.05)
            assert counters["completed"] >= 1

            status, content_type, served = get(server.url, poll_path)
            assert status == 200
            # The poll response is byte-identical to the warm request.
            status, _, warm = get(server.url, "/experiment/fig5")
            assert status == 200 and warm == served

    def test_wait_blocks_until_a_worker_publishes(self, serve_env):
        config, queue = serve_env
        drainer = threading.Thread(
            target=serve_queue, args=(queue,), kwargs={"max_idle": 5.0, "poll": 0.05}
        )
        drainer.start()
        try:
            with background_server(config) as server:
                status, _, body = get(server.url, "/experiment/table2?wait=60")
                assert status == 200
                payload = json.loads(body)
                assert payload["experiment"] == "table2"
                assert payload["rows"]
        finally:
            drainer.join(timeout=60)

    def test_sigkilled_worker_is_replaced_and_the_poller_completes(
        self, serve_env, tmp_path
    ):
        config, queue = serve_env
        with background_server(config) as server:
            # A budget large enough that the worker is mid-computation
            # for several seconds after claiming the item.
            status, body = get_json(
                server.url, "/experiment/fig5?instructions=400000"
            )
            assert status == 202
            poll_path = body["poll"]

            env = dict(os.environ)
            src = os.path.join(
                os.path.dirname(os.path.dirname(__file__)), "src"
            )
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            victim = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "worker",
                    "--queue-dir",
                    queue,
                    "--max-idle",
                    "30",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                # Kill the worker the moment it claims the item (the
                # lease file appears), i.e. mid-request.
                deadline = time.monotonic() + 60
                claimed = False
                while time.monotonic() < deadline:
                    for root, _dirs, files in os.walk(queue):
                        if os.path.basename(root) == "leases" and files:
                            claimed = True
                    if claimed:
                        break
                    time.sleep(0.02)
                assert claimed, "worker never claimed the item"
            finally:
                victim.kill()
                victim.wait(timeout=30)

            # The item is still unpublished: the poller sees pending.
            status, pending = get_json(server.url, poll_path)
            assert status == 202 and pending["status"] == "pending"

            # A replacement worker reclaims the dead worker's lease and
            # drains the item; the poller then completes.
            counters = serve_queue(queue, max_idle=2.0, poll=0.05)
            assert counters["completed"] >= 1
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status, _, body = get(server.url, poll_path)
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200
            payload = json.loads(body)
            assert payload["experiment"] == "fig5"
            assert payload["rows"]

    def test_without_a_queue_the_miss_is_a_typed_503(self, serve_env):
        config, _queue = serve_env
        with background_server(config.replace(queue_dir=None)) as server:
            status, body = get_json(server.url, "/experiment/fig5")
            assert status == 503
            assert body["error"]["code"] == "queue-unavailable"


#: Execution order observed by the in-process priority-test worker.
ORDER: List[int] = []


def record_order(args) -> int:
    ORDER.append(args)
    return args


class TestInteractivePriority:
    def test_interactive_item_is_claimed_before_batch_work(self, tmp_path):
        assert worker_reference(record_order) == "test_serve:record_order"
        queue = tmp_path / "queue"
        queue.mkdir()
        config = rc.RuntimeConfig(retries=0, lease_ttl=5.0)
        ORDER.clear()
        enqueue_campaign(
            record_order,
            [(index, index) for index in range(4)],
            config,
            str(queue),
        )
        campaign, item = enqueue_item(record_order, 99, config, str(queue))
        assert item.startswith(f"p{INTERACTIVE_PRIORITY:02d}-")
        serve_queue(str(queue), max_idle=0.3, poll=0.02)
        assert ORDER and ORDER[0] == 99
        assert sorted(ORDER) == [0, 1, 2, 3, 99]


class TestJobRegistry:
    def test_a_repeated_miss_is_one_job_and_one_campaign(self, tmp_path):
        from repro.exec.queue import CAMPAIGN_PREFIX
        from repro.serve.jobs import JOB_ID_LENGTH, JobRegistry
        from repro.serve.resolve import resolve_experiment

        queue = tmp_path / "queue"
        queue.mkdir()
        config = rc.RuntimeConfig(
            instructions=TINY, trace_cache_dir=None, result_cache_dir=None
        )
        resolved = resolve_experiment("table2", {}, config)
        registry = JobRegistry(str(queue))
        job = registry.submit(resolved)
        assert registry.submit(resolved) is job
        assert registry.get(job.id) is job and len(registry) == 1
        job_id = resolved.key[:JOB_ID_LENGTH]
        assert job.describe() == {
            "job": job_id,
            "experiment": "table2",
            "instructions": TINY,
            "key": resolved.key,
            "poll": f"/job/{job_id}",
        }
        campaigns = [
            name for name in os.listdir(queue) if name.startswith(CAMPAIGN_PREFIX)
        ]
        assert len(campaigns) == 1


class TestSharedInProcessCaches:
    """A trace-cache directory scopes the disk layer only: in memory,
    the configs of one process share a trace and a profile per key."""

    def test_directories_share_one_in_memory_trace(self, tmp_path):
        spec = get_workload("FT")
        base = rc.RuntimeConfig.from_environment()
        with rc.activated(base.replace(trace_cache_dir=str(tmp_path / "a"))):
            before = trace_cache_info()["misses"]
            first = workload_trace(spec, 20_000)
        with rc.activated(base.replace(trace_cache_dir=str(tmp_path / "b"))):
            assert workload_trace(spec, 20_000) is first
        assert trace_cache_info()["misses"] == before + 1

    def test_directories_share_one_profile(self, tmp_path):
        from repro.uarch.simulator import profile_cache_info, profile_workload_frontend

        spec = get_workload("FT")
        base = rc.RuntimeConfig.from_environment()
        with rc.activated(base.replace(trace_cache_dir=str(tmp_path / "a"))):
            first = profile_workload_frontend(spec, 20_000)
            hits = profile_cache_info()["hits"]
        with rc.activated(base.replace(trace_cache_dir=str(tmp_path / "b"))):
            assert profile_workload_frontend(spec, 20_000) is first
        assert profile_cache_info()["hits"] == hits + 1
