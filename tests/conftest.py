"""Shared fixtures for the test suite.

Traces are expensive to generate, so the fixtures that need real
catalogued workloads are session-scoped and use short traces; unit
tests that only need a tiny program build one by hand instead.
"""

from __future__ import annotations

import os

# Keep the suite hermetic: parallel-sweep helpers default the disk
# trace cache to the real per-user directory (and the CLI does the same
# for the result store), which tests must never read or populate.
# Tests that exercise the disk layers activate a config naming a
# tmp_path (see the ``result_store_dir`` fixture); tests of the CLI and
# of ``Session()`` resolution may still monkeypatch the variables.
os.environ.setdefault("REPRO_TRACE_CACHE_DIR", "none")
os.environ.setdefault("REPRO_RESULT_CACHE_DIR", "none")

import pytest

from repro.api import runtime_config as rc
from repro.trace import Program
from repro.workloads import build_workload, get_workload

from trace_fixtures import build_tiny_program, trace_of

# Resolve the process snapshot now, right after pinning the cache
# variables, so no test's monkeypatched environment can become it.
rc.process_snapshot()

#: Trace length used by fixtures that exercise catalogued workloads.
SMALL_TRACE_INSTRUCTIONS = 60_000


@pytest.fixture(scope="session")
def tiny_program() -> Program:
    """Small hand-built program with known structure."""
    return build_tiny_program()


@pytest.fixture(scope="session")
def tiny_trace(tiny_program):
    """Trace of the tiny program (serial only)."""
    return trace_of(tiny_program)


@pytest.fixture(scope="session")
def ft_trace():
    """Short trace of the NPB FT workload (parallel HPC)."""
    return build_workload(get_workload("FT")).trace(SMALL_TRACE_INSTRUCTIONS)


@pytest.fixture(scope="session")
def gobmk_trace():
    """Trace of the SPEC CPU INT gobmk workload (desktop).

    Desktop workloads need a somewhat longer window than the HPC ones
    for their instruction working set to exceed the small cache sizes,
    which is the behaviour several tests assert on.
    """
    return build_workload(get_workload("gobmk")).trace(150_000)


@pytest.fixture(scope="session")
def coevp_trace():
    """Short trace of the ExMatEx CoEVP workload (large serial share)."""
    return build_workload(get_workload("CoEVP")).trace(SMALL_TRACE_INSTRUCTIONS)


@pytest.fixture
def result_store_dir(tmp_path):
    """Run the test under a config whose result store is ``tmp_path``.

    Forked worker processes inherit the activation, so multi-process
    writers share the same store.
    """
    with rc.activated(rc.RuntimeConfig(result_cache_dir=str(tmp_path))):
        yield tmp_path
