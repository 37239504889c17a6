"""Cold-path sweep benchmarks: trace generation end to end.

The hot-path microbenchmarks time individual engine stages; these time
what a user actually waits for on a fresh machine -- a figure sweep
whose every trace must be generated (or loaded from the shared disk
cache).  Each cold round starts from completely empty caches: the
in-process trace cache (so program synthesis and trace compilation are
included; nothing else keeps a built workload) and a scratch disk
cache directory.

    pytest benchmarks/bench_cold_sweep.py

Like ``bench_hotpath.py`` these use fixed sizes (not
``REPRO_BENCH_INSTRUCTIONS``) so numbers stay comparable across
commits.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.api.runtime_config import TRACE_CACHE_DIR_VARIABLE
from repro.experiments.fig05_branch_mpki import run_fig05
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import clear_trace_cache

#: Dynamic trace length per workload of the cold sweep.  Small enough
#: for a few benchmark rounds, long enough that generation dominates.
COLD_INSTRUCTIONS = 60_000

#: The sweep covers one full HPC suite (10 NPB workloads).
COLD_SUITES = (Suite.NPB,)


@pytest.fixture()
def scratch_cache_dir():
    """Point the disk trace cache at a fresh scratch directory."""
    directory = tempfile.mkdtemp(prefix="repro-bench-cache-")
    previous = os.environ.get(TRACE_CACHE_DIR_VARIABLE)
    os.environ[TRACE_CACHE_DIR_VARIABLE] = directory
    try:
        yield directory
    finally:
        if previous is None:
            os.environ.pop(TRACE_CACHE_DIR_VARIABLE, None)
        else:
            os.environ[TRACE_CACHE_DIR_VARIABLE] = previous
        shutil.rmtree(directory, ignore_errors=True)
        clear_trace_cache()


def test_cold_fig5_sweep(benchmark, scratch_cache_dir):
    """Figure 5 over NPB from empty caches (generation included)."""

    def reset():
        clear_trace_cache()
        shutil.rmtree(scratch_cache_dir, ignore_errors=True)
        os.makedirs(scratch_cache_dir, exist_ok=True)

    def sweep():
        return run_fig05(instructions=COLD_INSTRUCTIONS, suites=list(COLD_SUITES))

    result = benchmark.pedantic(sweep, setup=reset, rounds=3, iterations=1)
    assert len(result.per_workload) == 10


def test_warm_disk_fig5_sweep(benchmark, scratch_cache_dir):
    """Same sweep with a populated disk cache but a cold process.

    Measures what the second driver process on a machine pays: traces
    come from the shared ``.npz`` layer instead of being regenerated.
    """
    run_fig05(instructions=COLD_INSTRUCTIONS, suites=list(COLD_SUITES))

    def reset():
        clear_trace_cache()  # drop memory layers, keep the disk cache

    def sweep():
        return run_fig05(instructions=COLD_INSTRUCTIONS, suites=list(COLD_SUITES))

    result = benchmark.pedantic(sweep, setup=reset, rounds=3, iterations=1)
    assert len(result.per_workload) == 10
