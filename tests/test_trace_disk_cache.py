"""The disk trace cache loads traces without synthesizing their workloads.

A disk entry stores the event columns, the five static per-block arrays
and a fingerprint computed from the spec, the NumPy version and the
trace/workloads source.  These tests pin the consequences:

* a loaded trace answers every analysis and simulator without its
  ``Program`` (synthesis is patched to raise), with results equal to a
  freshly generated trace's, and its lazily built program agrees with
  the stored arrays;
* a stale entry (other spec, other source, older layout) is regenerated
  and overwritten, never quarantined;
* a parallel sweep synthesizes each workload once per machine;
* synthesis sizes its schedule with a counting context that agrees with
  the recording one on every section pass of the catalog.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis.characterization import characterize_workload
from repro.analysis.line_usefulness import analyze_line_usefulness
from repro.api import Session
from repro.api.runtime_config import RuntimeConfig, activated
from repro.experiments import fig05_branch_mpki, fig07_btb, fig08_icache
from repro.frontend.configs import (
    BranchPredictorConfig,
    BTBConfig,
    FrontEndConfig,
    ICacheConfig,
)
from repro.frontend.predictors.factory import predictor_configurations
from repro.frontend.simulation import simulate_branch_predictors, simulate_frontend_many
from repro.trace.columns import STATIC_ARRAYS, ProgramColumns
from repro.trace.execution import ExecutionContext
from repro.trace.instruction import CodeSection
from repro.workloads import synthesis, trace_cache
from repro.workloads.catalog import WORKLOADS, get_workload
from repro.workloads.trace_cache import (
    clear_trace_cache,
    trace_cache_info,
    trace_in_memory,
    trace_on_disk,
    workload_trace,
)

INSTRUCTIONS = 8_000

SECTIONS = (CodeSection.TOTAL, CodeSection.SERIAL, CodeSection.PARALLEL)

#: Every structure geometry of Figures 7 and 8, one front end each.
GEOMETRY_CONFIGS = [
    FrontEndConfig(
        name=f"btb{entries}x{btb_ways}-ic{size_kb}x{ic_ways}",
        btb=BTBConfig(entries=entries, associativity=btb_ways),
        icache=ICacheConfig(
            size_bytes=size_kb * 1024,
            line_bytes=fig08_icache.LINE_BYTES,
            associativity=ic_ways,
        ),
    )
    for (entries, btb_ways), (size_kb, ic_ways) in zip(
        fig07_btb.BTB_GEOMETRIES, fig08_icache.ICACHE_GEOMETRIES
    )
]


def _refuse_synthesis(*args, **kwargs):
    raise AssertionError("a disk-cached trace must load without synthesis")


def _everything(trace):
    """Every Section III-IV result the drivers compute from one trace."""
    predictors = [
        BranchPredictorConfig(kind, budget, with_loop)
        for _, kind, budget, with_loop in predictor_configurations()
    ]
    # Figures 1-4 and Table 1, for every section that executed.
    results = {"characterization": characterize_workload(trace)}
    for section in SECTIONS:
        results[section] = (
            [analyze_line_usefulness(trace, width, section) for width in (32, 64, 128)],
            simulate_branch_predictors(trace, predictors, section),
            simulate_frontend_many(trace, GEOMETRY_CONFIGS, (section,)),
        )
    return results


@pytest.fixture
def trace_dir(tmp_path):
    """A fresh disk trace cache, with empty in-memory layers around it."""
    clear_trace_cache()
    with activated(RuntimeConfig(trace_cache_dir=str(tmp_path))):
        yield tmp_path
    clear_trace_cache()


class TestLoadedTraceNeedsNoProgram:
    def test_analyses_and_simulators_run_without_synthesis(self, trace_dir, monkeypatch):
        names = ("FT", "gobmk", "CoEVP")
        specs = [get_workload(name) for name in names]
        expected = {}
        for spec in specs:
            fresh = workload_trace(spec, INSTRUCTIONS)
            expected[spec.name] = _everything(fresh)
        assert trace_cache_info()["disk_stores"] == len(specs)

        clear_trace_cache()
        monkeypatch.setattr(trace_cache, "build_workload", _refuse_synthesis)
        loaded = {spec.name: workload_trace(spec, INSTRUCTIONS) for spec in specs}
        assert trace_cache_info()["disk_hits"] == len(specs)
        for name, trace in loaded.items():
            assert trace.name == name
            assert _everything(trace) == expected[name], name

        monkeypatch.undo()
        for name, trace in loaded.items():
            built = ProgramColumns(trace.program)
            for array in ProgramColumns.__slots__:
                assert np.array_equal(
                    getattr(built, array), getattr(trace.static, array)
                ), (name, array)

    def test_a_held_trace_fills_another_directory(
        self, trace_dir, tmp_path_factory, monkeypatch
    ):
        # A trace held in memory is written to the current directory
        # when that directory lacks it, so a later process under that
        # directory loads it instead of synthesizing it again.
        spec = get_workload("FT")
        held = workload_trace(spec, INSTRUCTIONS)
        monkeypatch.setattr(trace_cache, "build_workload", _refuse_synthesis)
        other = tmp_path_factory.mktemp("other-traces")
        with activated(RuntimeConfig(trace_cache_dir=str(other))):
            assert workload_trace(spec, INSTRUCTIONS) is held
            assert trace_on_disk(spec, INSTRUCTIONS)
        assert trace_cache_info()["disk_stores"] == 2

    def test_trace_in_memory_reports_only_held_keys(self, trace_dir):
        # Sweep priming skips the keys this answers True for, so it must
        # track the process cache exactly, apart from the disk layer.
        spec = get_workload("FT")
        assert not trace_in_memory(spec, INSTRUCTIONS)
        workload_trace(spec, INSTRUCTIONS)
        assert trace_in_memory(spec, INSTRUCTIONS)
        assert not trace_in_memory(spec, INSTRUCTIONS, seed=1)
        assert not trace_in_memory(spec, INSTRUCTIONS + 1)
        assert not trace_in_memory(get_workload("LU"), INSTRUCTIONS)
        clear_trace_cache()
        assert trace_on_disk(spec, INSTRUCTIONS)
        assert not trace_in_memory(spec, INSTRUCTIONS)

    def test_an_entry_stores_the_static_arrays(self, trace_dir):
        spec = get_workload("FT")
        trace = workload_trace(spec, INSTRUCTIONS)
        with np.load(trace_dir / f"FT-{INSTRUCTIONS}-0.npz") as archive:
            for name in STATIC_ARRAYS:
                assert np.array_equal(archive[name], getattr(trace.static, name))
            assert str(archive["fingerprint"]) == trace_cache.trace_fingerprint(spec)


class TestStaleIsNotCorrupt:
    """Readable entries from other code or specs are overwritten in place."""

    @staticmethod
    def _assert_regenerated(trace_dir, spec, stale_trace=None):
        path = trace_dir / f"{spec.name}-{INSTRUCTIONS}-0.npz"
        assert path.exists()
        assert not trace_on_disk(spec, INSTRUCTIONS)
        clear_trace_cache()
        trace = workload_trace(spec, INSTRUCTIONS)
        info = trace_cache_info()
        assert info["disk_hits"] == 0
        assert info["disk_stores"] == 1
        assert info["quarantined"] == 0
        assert not [name for name in os.listdir(trace_dir) if "corrupt" in name]
        assert trace_on_disk(spec, INSTRUCTIONS)  # Overwritten with a current entry.
        fresh = synthesis.build_workload(spec).trace(INSTRUCTIONS)
        assert np.array_equal(trace.block_ids, fresh.block_ids)
        assert np.array_equal(trace.taken_column, fresh.taken_column)
        if stale_trace is not None:
            assert not np.array_equal(trace.block_ids, stale_trace.block_ids)

    def test_a_changed_spec_under_the_same_name(self, trace_dir):
        spec = get_workload("FT")
        original = workload_trace(spec, INSTRUCTIONS)
        changed = dataclasses.replace(
            spec, parallel=spec.parallel.scaled(hot_code_kb=spec.parallel.hot_code_kb * 2)
        )
        self._assert_regenerated(trace_dir, changed, stale_trace=original)

    def test_a_changed_source_digest(self, trace_dir, monkeypatch):
        spec = get_workload("FT")
        workload_trace(spec, INSTRUCTIONS)
        monkeypatch.setattr(trace_cache, "source_digest", lambda *packages: "edited")
        self._assert_regenerated(trace_dir, spec)

    def test_an_archive_in_the_previous_layout(self, trace_dir):
        """Four event columns plus a static-layout digest, no static arrays."""
        spec = get_workload("FT")
        trace = synthesis.build_workload(spec).trace(INSTRUCTIONS)
        np.savez_compressed(
            trace_dir / f"FT-{INSTRUCTIONS}-0.npz",
            block_ids=trace.block_ids,
            taken=trace.taken_column,
            targets=trace.target_column,
            sections=trace.section_column,
            fingerprint=np.str_("0" * 40),
        )
        self._assert_regenerated(trace_dir, spec)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the probe is inherited by forked workers only",
)
def test_a_parallel_sweep_synthesizes_each_workload_once(tmp_path, monkeypatch):
    clear_trace_cache()
    probe = tmp_path / "builds.log"
    layout = synthesis.layout_program

    def recording_layout(program):
        with open(probe, "a") as stream:
            stream.write(f"{os.getpid()} {program.name}\n")
        return layout(program)

    monkeypatch.setattr(synthesis, "layout_program", recording_layout)
    instructions = 6_000
    specs = [get_workload(name) for name in ("FT", "LULESH", "gobmk", "mcf")]
    session = Session(
        instructions=instructions,
        parallel=True,
        processes=2,
        trace_cache_dir=str(tmp_path / "traces"),
    )
    session.map(
        fig05_branch_mpki._workload_mpki,
        [(spec, instructions, 0, CodeSection.TOTAL) for spec in specs],
    )
    session.map(
        fig08_icache._workload_mpki,
        [(spec, instructions, 0, fig08_icache.ICACHE_GEOMETRIES) for spec in specs],
    )
    clear_trace_cache()
    built = [line.split()[1] for line in probe.read_text().splitlines()]
    assert sorted(built) == sorted(spec.name for spec in specs)


def _recorded_pass_instructions(function, seed: int) -> int:
    """The reference count: one pass recorded into an event buffer."""
    ctx = ExecutionContext(np.random.default_rng(seed), max_instructions=10**12)
    function.body.execute(ctx)
    ctx.emit(function.return_block, taken=True)
    return max(1, ctx.instructions_emitted)


def test_counting_a_section_pass_matches_recording_it():
    """Every section pass build_workload measures, across the catalog."""
    seeds = {CodeSection.PARALLEL: 0x5EED, CodeSection.SERIAL: 0xC0FFEE}
    compared = 0
    for spec in WORKLOADS.values():
        if spec.is_sequential:
            continue  # One phase, never measured.
        for phase in synthesis.build_workload(spec).schedule.steady:
            seed = spec.seed ^ seeds[phase.section]
            assert synthesis._measure_pass_instructions(
                phase.function, seed
            ) == _recorded_pass_instructions(phase.function, seed), spec.name
            compared += 1
    assert compared == 58
