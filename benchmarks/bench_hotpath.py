"""Microbenchmarks of the trace-engine and simulator hot paths.

Times the three front-end hot paths -- trace generation, branch-record
materialization, and the full ``simulate_frontend`` walk -- at two
trace lengths, so speedups (and regressions) of the columnar engine
show up directly in the pytest-benchmark table:

    pytest benchmarks/bench_hotpath.py

Unlike the figure benchmarks these do not honour
``REPRO_BENCH_INSTRUCTIONS``; the two fixed sizes keep numbers
comparable across commits.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RuntimeConfig, Session
from repro.api.frame import ResultFrame
from repro.explore import frontend_grid
from repro.exec import QueueWorker, enqueue_campaign
from repro.frontend.configs import BASELINE_FRONTEND
from repro.frontend.simulation import simulate_frontend
from repro.power import evaluate_cmp_energy
from repro.trace.events import Trace
from repro.trace.execution import TraceGenerator
from repro.uarch import (
    STANDARD_CMP_CONFIGS,
    clear_profile_cache,
    profile_workload_frontend,
    run_on_cmp,
)
from repro.workloads import build_workload, get_workload, workload_trace

TRACE_LENGTHS = (60_000, 600_000)

#: One HPC and one desktop workload: long loopy blocks vs branchy code.
WORKLOAD = "FT"


def _workload():
    return build_workload(get_workload(WORKLOAD))


@pytest.mark.parametrize("instructions", TRACE_LENGTHS)
def test_trace_generation(benchmark, instructions):
    """Generate the dynamic trace through the compiled segment engine.

    This is the cold-trace path every workload uses
    (``SyntheticWorkload.trace`` routes through the compiled schedule);
    compilation itself is memoized and excluded by a warm-up run.
    """
    workload = _workload()
    compiled = workload.compiled  # compiles once (memoized on the program)
    seeds = iter(range(1_000, 100_000))

    def generate():
        return compiled.run(instructions, seed=next(seeds))

    trace = benchmark(generate)
    assert trace.instruction_count() >= instructions


@pytest.mark.parametrize("instructions", TRACE_LENGTHS)
def test_trace_generation_reference(benchmark, instructions):
    """Generate the same trace via the reference tree walk.

    Kept as the baseline the compiled engine is measured against (the
    two are asserted bit-identical in the test suite).
    """
    workload = _workload()
    seeds = iter(range(1_000, 100_000))

    def generate():
        generator = TraceGenerator(
            workload.program, workload.schedule, seed=next(seeds)
        )
        return generator.run(instructions)

    trace = benchmark(generate)
    assert trace.instruction_count() >= instructions


@pytest.mark.parametrize("instructions", TRACE_LENGTHS)
def test_branch_records(benchmark, instructions):
    """Materialize branch records from a fresh columnar view."""
    workload = _workload()
    source = workload.trace(instructions)

    def records():
        # Rebuild the Trace wrapper so per-trace caches start cold.
        trace = Trace.from_columns(
            source.program,
            source.block_ids,
            source.taken_column,
            source.target_column,
            source.section_column,
            name=source.name,
        )
        return trace.branch_records()

    result = benchmark(records)
    assert len(result) > 0


@pytest.mark.parametrize("instructions", TRACE_LENGTHS)
def test_simulate_frontend(benchmark, instructions):
    """Branch predictor + BTB + I-cache over one trace."""
    workload = _workload()
    trace = workload.trace(instructions)
    trace.branch_columns()  # steady-state: columns already gathered

    def frontend():
        return simulate_frontend(trace, BASELINE_FRONTEND)

    result = benchmark(frontend)
    assert result.branch.conditional_branches > 0
    assert result.icache.accesses > 0


@pytest.mark.parametrize("instructions", TRACE_LENGTHS)
def test_section_v_stack(benchmark, instructions):
    """The per-workload Section V pipeline: profile + schedule + power.

    Measures one workload's front-end profile (both core flavours, all
    sections, through the batched ``simulate_frontend_many`` engine)
    plus the CMP runs and energy evaluation for the four Figure 10
    chips.  The trace is pre-warmed in the shared cache and the profile
    cache is cleared each round, so the number reflects the simulation
    engine rather than trace generation or memoization.
    """
    spec = get_workload(WORKLOAD)
    workload_trace(spec, instructions)  # warm the shared trace cache

    def stack():
        clear_profile_cache()
        profile = profile_workload_frontend(spec, instructions)
        return [
            evaluate_cmp_energy(run_on_cmp(profile, cmp))
            for cmp in STANDARD_CMP_CONFIGS
        ]

    results = benchmark(stack)
    assert len(results) == len(STANDARD_CMP_CONFIGS)
    assert all(result.energy_j > 0 for result in results)


def _queue_identity(args):
    return args


def test_queue_item_cycle(benchmark, tmp_path):
    """Per-item overhead of the durable work-queue executor.

    Times the full queue lifecycle -- campaign enqueue to disk, lease
    claim, heartbeat start/stop, first-writer-wins publication, item
    retirement -- for a 64-item campaign drained by one in-process
    ``QueueWorker``.  The worker body is an identity function, so this
    is pure executor overhead: the price ``--parallel`` adds per item
    over a serial, in-process sweep.
    """
    items = [(index, float(index)) for index in range(64)]
    config = RuntimeConfig()
    rounds = iter(range(1_000))

    def cycle():
        queue_dir = str(tmp_path / f"queue-{next(rounds)}")
        campaign = enqueue_campaign(_queue_identity, items, config, queue_dir)
        return QueueWorker(campaign).drain()

    resolved = benchmark.pedantic(cycle, rounds=3, iterations=1)
    assert resolved == len(items)


def test_explore_grid(benchmark):
    """Configs/sec of the design-space exploration path.

    Compiles the 96-point ``frontend_grid()`` preset onto the batched
    ``simulate_frontend_many`` engine through ``Session.explore`` and
    times one full exploration of it -- chunked evaluation, grid-frame
    assembly, Pareto frontier, sensitivity tables -- with the result
    store disabled so every round re-simulates.  The trace is
    pre-warmed, so ``points / (min_ms / 1e3)`` is the configs/sec
    number tracked in BENCH_hotpath.json.
    """
    grid = frontend_grid()
    points = len(grid.points())
    session = Session(
        instructions=60_000, trace_cache_dir=None, result_cache_dir=None
    )
    plan = session.explore(grid, workloads=[WORKLOAD], use_store=False)
    plan.result()  # warm the shared trace cache and decoded streams

    def explore():
        return plan.result()

    result = benchmark(explore)
    assert result.chunks_computed == result.chunks_total
    assert len(result.frames["grid"].rows()) == points
    benchmark.extra_info["configs"] = points
    benchmark.extra_info["configs_per_s"] = round(
        points / benchmark.stats.stats.mean
    )


def test_serve_warm_request(benchmark, tmp_path, monkeypatch):
    """End-to-end latency of a warm ``GET /experiment/...`` request.

    Runs the orchestrator once so the result store holds ``fig5``, then
    times complete HTTP round trips against a live ``ResultsServer`` on
    the loopback interface -- connection, request parse, store load,
    frame encode, response.  Every request is served entirely from the
    store (the server has no queue, so a miss would be a 503 and fail
    the assertion); this is the number the PR 10 acceptance bound
    (p50 < 5 ms) tracks.
    """
    import urllib.request

    from repro.api import runtime_config as rc
    from repro.results.orchestrator import run_experiments
    from repro.results.store import clear_result_store
    from repro.serve import background_server

    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", "none")
    clear_result_store()
    config = rc.RuntimeConfig.from_environment(
        instructions=6_000, queue_dir=None, serve_port=0
    )
    with rc.activated(config):
        run_experiments(["fig5"], instructions=6_000)
    with background_server(config) as server:
        url = server.url + "/experiment/fig5"

        def request():
            with urllib.request.urlopen(url, timeout=30) as response:
                return response.status, response.read()

        status, body = benchmark(request)
    assert status == 200
    assert body.startswith(b'{"columns"')
    clear_result_store()


def test_serve_cold_miss_request(benchmark, tmp_path, monkeypatch):
    """Latency of a cold miss: resolve, enqueue, and answer 202.

    Each round asks for a budget no worker has computed, so the server
    resolves the request to a fresh store key, enqueues an interactive-
    priority item onto the durable queue, and returns the ``/job/<id>``
    polling URL.  This is the full price a client pays before a worker
    even starts -- the other half of the cold path measured by
    ``test_serve_warm_request``.
    """
    import urllib.request

    from repro.api import runtime_config as rc
    from repro.results.store import clear_result_store
    from repro.serve import background_server

    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", "none")
    clear_result_store()
    queue_dir = tmp_path / "queue"
    queue_dir.mkdir()
    config = rc.RuntimeConfig.from_environment(
        instructions=6_000, queue_dir=str(queue_dir), serve_port=0
    )
    budgets = iter(range(7_000, 1_000_000))
    with background_server(config) as server:

        def request():
            path = f"/experiment/fig5?instructions={next(budgets)}"
            with urllib.request.urlopen(server.url + path, timeout=30) as response:
                return response.status

        status = benchmark.pedantic(request, rounds=10, iterations=1)
    assert status == 202
    clear_result_store()


def test_frame_payload_round_trip(benchmark):
    """Serialize and re-validate a stored ResultFrame payload.

    The result store persists every experiment payload as versioned
    columnar JSON; this times the full round trip -- payload build,
    JSON encode, decode, schema validation -- on a per-workload frame
    scaled to ~8k rows (two orders above the largest real experiment,
    so store-layer regressions are visible well before they matter).
    """
    rows = [
        (f"workload-{index % 41}", metric, 1.0 + index / 7, 2.0 + index / 11)
        for index in range(2_000)
        for metric in ("execution time", "power", "energy", "energy-delay")
    ]
    frame = ResultFrame.from_rows(
        ("workload", "metric", "baseline", "tailored"), rows
    )

    def round_trip():
        return ResultFrame.from_payload(json.loads(json.dumps(frame.to_payload())))

    result = benchmark(round_trip)
    assert result.columns == frame.columns
    assert len(result.rows()) == len(rows)
