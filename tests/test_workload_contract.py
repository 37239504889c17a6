"""What trace production makes, pinned, and what it leaves behind.

Synthesis, layout, section-pass counting and the compiled engine may
change how they work, never what they produce.  One digest covers, for
every catalog workload, the five static block arrays, the schedule's
phases, every section pass count synthesis measures, and the event
columns of a seed-1 trace; it was recorded before the cold-build work
and must not move.

A built and compiled workload must also hold no reference cycle:
``build_workload`` and ``compile_schedule`` pause the cyclic collector
while they construct, so anything a cycle kept alive would wait for the
next full collection.

The trace cache keeps traces, not workloads: the program a cached trace
was generated from is dead once ``workload_trace`` returns, and the
trace builds a program again only when block objects are asked for.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np

from repro.api.runtime_config import RuntimeConfig, activated
from repro.trace.columns import STATIC_ARRAYS, program_columns
from repro.trace.instruction import CodeSection
from repro.workloads import synthesis
from repro.workloads.catalog import WORKLOADS, get_workload
from repro.workloads.trace_cache import clear_trace_cache, workload_trace

from trace_fixtures import record_builds

#: sha256 of the whole catalog's production (see ``_catalog_digest``).
CATALOG_DIGEST = "6794546f7ea8c8d863cfdaaba86783f78d601f025e4ae2dc1cc5136b980f2ad2"

#: Seeds ``build_workload`` measures each section's pass with.
PASS_SEEDS = {CodeSection.PARALLEL: 0x5EED, CodeSection.SERIAL: 0xC0FFEE}


def _update(digest, array) -> None:
    digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())


def _catalog_digest():
    digest = hashlib.sha256()
    passes = 0
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        workload = synthesis.build_workload(spec)
        digest.update(name.encode())
        columns = program_columns(workload.program)
        for array in STATIC_ARRAYS:
            _update(digest, getattr(columns, array))
        schedule = workload.schedule
        for phase in schedule.setup + schedule.steady:
            digest.update(
                f"{phase.function.name}/{int(phase.section)}/{phase.repeat};".encode()
            )
        if not spec.is_sequential:
            for phase in schedule.steady:
                count = synthesis._measure_pass_instructions(
                    phase.function, spec.seed ^ PASS_SEEDS[phase.section]
                )
                digest.update(f"{count};".encode())
                passes += 1
        trace = workload.trace(20_000, seed=1)
        for column in (
            trace.block_ids,
            trace.taken_column,
            trace.target_column,
            trace.section_column,
        ):
            _update(digest, column)
    return digest.hexdigest(), passes


def test_catalog_production_is_unchanged():
    digest, passes = _catalog_digest()
    assert passes == 58
    assert digest == CATALOG_DIGEST


def test_a_dropped_workload_leaves_no_cyclic_garbage():
    """Build, compile and trace gobmk with the collector off, then drop it."""
    spec = get_workload("gobmk")
    clear_trace_cache()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        trace = synthesis.build_workload(spec).trace(20_000)
        assert len(trace) > 0
        del trace
        clear_trace_cache()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_building_restores_the_collectors_state():
    """The pause never enables a collector its caller had disabled."""
    was_enabled = gc.isenabled()
    try:
        for enabled in (False, True):
            clear_trace_cache()
            if enabled:
                gc.enable()
            else:
                gc.disable()
            synthesis.build_workload(get_workload("FT")).trace(2_000)
            assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
        clear_trace_cache()


def test_a_cached_trace_leaves_its_program_dead(monkeypatch):
    """Generate gobmk through the cache with the collector off."""
    built = record_builds(monkeypatch)
    clear_trace_cache()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with activated(RuntimeConfig()):  # No disk layer: the key misses.
            trace = workload_trace(get_workload("gobmk"), 20_000)
        assert len(trace) > 0
        assert len(built) == 1
        assert built[0]() is None
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
        clear_trace_cache()


def test_a_cached_trace_builds_its_program_on_first_access(monkeypatch):
    built = record_builds(monkeypatch)
    clear_trace_cache()
    try:
        with activated(RuntimeConfig()):
            trace = workload_trace(get_workload("gobmk"), 20_000)
        assert len(built) == 1
        program = trace.program
        assert len(built) == 2 and built[1]() is program
        columns = program_columns(program)
        for name in STATIC_ARRAYS:
            assert np.array_equal(getattr(columns, name), getattr(trace.static, name))
        for event in trace.events[:100]:
            block = trace.blocks_for(event)
            assert block is program.blocks[event.block_id]
            assert block.address == trace.static.addresses[event.block_id]
        assert trace.program is program
        assert len(built) == 2
    finally:
        clear_trace_cache()
