"""Tests for the BTB, the I-cache, and the front-end configurations."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.fig07_btb import BTB_GEOMETRIES
from repro.experiments.fig08_icache import ICACHE_GEOMETRIES, LINE_BYTES
from repro.experiments.fig09_icache_lines import CACHE_SIZE_BYTES, LINE_GEOMETRIES
from repro.frontend import (
    BASELINE_FRONTEND,
    TAILORED_FRONTEND,
    BranchTargetBuffer,
    ICacheConfig,
    InstructionCache,
    simulate_btb,
    simulate_icache,
)
from repro.frontend.icache import line_stack_histogram
from repro.frontend.simulation import simulate_frontend
from repro.trace import CodeSection

#: (entries, ways) of every BTB the figures and the 1,080-point
#: explore-geometry benchmark grid simulate.
SWEPT_BTBS = sorted(
    set(BTB_GEOMETRIES)
    | {(entries, ways) for entries in (256, 512, 1024, 2048, 4096) for ways in (2, 4, 8)}
)

#: (size bytes, line bytes, ways) of every I-cache they simulate.
SWEPT_ICACHES = sorted(
    {(kb * 1024, LINE_BYTES, ways) for kb, ways in ICACHE_GEOMETRIES}
    | {(CACHE_SIZE_BYTES, line, ways) for line, ways in LINE_GEOMETRIES}
    | {(kb * 1024, 64, ways) for kb in (8, 16, 32, 64) for ways in (2, 4, 8)}
)


class TestBTB:
    def test_first_access_misses_then_hits(self):
        btb = BranchTargetBuffer(entries=64, associativity=4)
        assert not btb.access(0x4000, 0x5000)
        assert btb.access(0x4000, 0x5000)
        assert btb.miss_rate == pytest.approx(0.5)

    def test_target_change_counts_as_miss(self):
        btb = BranchTargetBuffer(entries=64, associativity=4)
        btb.access(0x4000, 0x5000)
        assert not btb.access(0x4000, 0x6000)
        assert btb.access(0x4000, 0x6000)

    def test_lru_eviction_within_a_set(self):
        btb = BranchTargetBuffer(entries=4, associativity=2)
        # Addresses mapping to the same set (2 sets -> stride of 8 bytes).
        a, b, c = 0x4000, 0x4008, 0x4010
        btb.access(a, 1)
        btb.access(b, 2)
        btb.access(c, 3)   # evicts a
        assert btb.lookup(a) is None
        assert btb.lookup(b) == 2

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=100, associativity=4)
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=64, associativity=3)

    def test_storage_bits_scale_with_entries(self):
        small = BranchTargetBuffer(entries=256).storage_bits()
        big = BranchTargetBuffer(entries=2048).storage_bits()
        assert big == 8 * small

    def test_reset_statistics(self):
        btb = BranchTargetBuffer(entries=64, associativity=4)
        btb.access(0x4000, 1)
        btb.reset_statistics()
        assert btb.lookups == 0 and btb.misses == 0

    def test_hpc_btb_mpki_is_insensitive_to_size(self, ft_trace):
        small = simulate_btb(ft_trace, entries=256, associativity=8).mpki
        large = simulate_btb(ft_trace, entries=1024, associativity=8).mpki
        assert small - large < 0.5  # Implication 2

    def test_desktop_benefits_from_a_bigger_btb(self, gobmk_trace):
        small = simulate_btb(gobmk_trace, entries=256, associativity=8).mpki
        large = simulate_btb(gobmk_trace, entries=1024, associativity=8).mpki
        assert large < small * 0.95

    def test_desktop_mpki_exceeds_hpc(self, ft_trace, gobmk_trace):
        hpc = simulate_btb(ft_trace, entries=512, associativity=4).mpki
        desktop = simulate_btb(gobmk_trace, entries=512, associativity=4).mpki
        assert desktop > hpc


class TestInstructionCache:
    def test_repeated_fetch_hits(self):
        cache = InstructionCache(size_bytes=1024, line_bytes=64, associativity=2)
        assert cache.fetch_range(0x4000, 128) == 2
        assert cache.fetch_range(0x4000, 128) == 0
        assert cache.accesses == 4

    def test_capacity_eviction(self):
        cache = InstructionCache(size_bytes=256, line_bytes=64, associativity=2)
        for start in range(0, 512, 64):
            cache.fetch_range(0x4000 + start, 64)
        # Working set is twice the capacity; re-fetching the start misses.
        assert cache.fetch_range(0x4000, 64) == 1

    def test_miss_rate_property(self):
        cache = InstructionCache(size_bytes=1024, line_bytes=64, associativity=2)
        assert cache.miss_rate == 0.0
        cache.fetch_range(0x4000, 64)
        assert cache.miss_rate == 1.0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            InstructionCache(size_bytes=1000, line_bytes=64, associativity=4)
        with pytest.raises(ValueError):
            InstructionCache(size_bytes=1024, line_bytes=48, associativity=4)

    def test_zero_byte_fetch(self):
        cache = InstructionCache(size_bytes=1024, line_bytes=64, associativity=2)
        assert cache.fetch_range(0x4000, 0) == 0

    def test_batch_paths_fetch_no_line_for_an_empty_range(self):
        # A zero-size range at an unaligned address and a negative size
        # are no access to fetch_range, so none to the batch paths.
        starts = np.array([70, 200, 70, 64, 0x4000])
        sizes = np.array([0, 8, 0, -100, 0])
        reference = InstructionCache(size_bytes=1024, line_bytes=64, associativity=2)
        misses = sum(
            reference.fetch_range(start, size)
            for start, size in zip(starts.tolist(), sizes.tolist())
        )
        batch = InstructionCache(size_bytes=1024, line_bytes=64, associativity=2)
        assert batch.fetch_ranges(starts, sizes) == misses == 1
        assert batch.accesses == reference.accesses == 1
        histogram = line_stack_histogram(starts, sizes, 64, batch.num_sets, 2)
        assert (histogram.accesses, histogram.misses(2)) == (1, 1)

    def test_storage_bits_exceed_data_bits(self):
        cache = InstructionCache(size_bytes=8192, line_bytes=64, associativity=4)
        assert cache.storage_bits() > 8192 * 8

    def test_hpc_fits_in_a_small_cache(self, ft_trace):
        mpki = simulate_icache(ft_trace, size_bytes=16 * 1024, line_bytes=128,
                               associativity=8).mpki
        assert mpki < 1.0  # Implication 3

    def test_desktop_needs_the_large_cache(self, gobmk_trace):
        small = simulate_icache(gobmk_trace, size_bytes=16 * 1024).mpki
        large = simulate_icache(gobmk_trace, size_bytes=32 * 1024).mpki
        assert small > 1.5 * large  # Figure 8: ~2.5x in the paper

    def test_wider_lines_help_hpc(self, ft_trace):
        narrow = simulate_icache(ft_trace, size_bytes=16 * 1024, line_bytes=32,
                                 associativity=8).mpki
        wide = simulate_icache(ft_trace, size_bytes=16 * 1024, line_bytes=128,
                               associativity=8).mpki
        assert wide <= narrow  # Figure 9 shape for HPC


class TestStackDistancePath:
    """Geometry-only calls answer from stack-distance histograms; a
    passed instance runs the reference simulator.  Both must agree."""

    @pytest.fixture(params=["ft_trace", "gobmk_trace", "coevp_trace"])
    def trace(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize(
        "section",
        [CodeSection.TOTAL, CodeSection.SERIAL, CodeSection.PARALLEL],
        ids=lambda section: section.name,
    )
    def test_swept_geometries_match_reference(self, trace, section):
        for entries, ways in SWEPT_BTBS:
            reference = simulate_btb(trace, BranchTargetBuffer(entries, ways), section)
            shared = simulate_btb(
                trace, section=section, entries=entries, associativity=ways
            )
            assert dataclasses.asdict(shared) == dataclasses.asdict(reference)
        for size_bytes, line_bytes, ways in SWEPT_ICACHES:
            cache = InstructionCache(size_bytes, line_bytes, ways)
            reference = simulate_icache(trace, cache, section)
            shared = simulate_icache(
                trace,
                section=section,
                size_bytes=size_bytes,
                line_bytes=line_bytes,
                associativity=ways,
            )
            assert dataclasses.asdict(shared) == dataclasses.asdict(reference)

    def test_sweep_covers_the_benchmark_grid(self):
        assert len(SWEPT_BTBS) == 15
        # fig7 and fig8 lie inside the grid; fig9 adds its 32B and 128B lines.
        assert len(SWEPT_ICACHES) == 12 + 6

    def test_invalid_geometry_still_raises(self, ft_trace):
        with pytest.raises(ValueError):
            simulate_btb(ft_trace, entries=100, associativity=4)
        with pytest.raises(ValueError):
            simulate_icache(ft_trace, size_bytes=1000)

    def test_warm_cache_reports_this_calls_accesses(self, ft_trace):
        cache = InstructionCache(16 * 1024, 64, 4)
        cold = simulate_icache(ft_trace, cache)
        warm = simulate_icache(ft_trace, cache)
        assert warm.accesses == cold.accesses
        assert warm.misses < cold.misses
        assert warm.miss_rate == warm.misses / cold.accesses
        assert cache.accesses == 2 * cold.accesses


class TestConfigs:
    def test_baseline_matches_the_paper(self):
        assert BASELINE_FRONTEND.icache.size_bytes == 32 * 1024
        assert BASELINE_FRONTEND.icache.line_bytes == 64
        assert BASELINE_FRONTEND.predictor.budget == "big"
        assert BASELINE_FRONTEND.btb.entries == 2048

    def test_tailored_matches_the_paper(self):
        assert TAILORED_FRONTEND.icache.size_bytes == 16 * 1024
        assert TAILORED_FRONTEND.icache.line_bytes == 128
        assert TAILORED_FRONTEND.predictor.with_loop
        assert TAILORED_FRONTEND.btb.entries == 256

    def test_config_builders(self):
        cache = ICacheConfig(size_bytes=8192, line_bytes=64, associativity=2).build()
        assert isinstance(cache, InstructionCache)
        assert "8KB" in ICacheConfig(size_bytes=8192).label

    def test_describe_mentions_all_structures(self):
        text = BASELINE_FRONTEND.describe()
        assert "I-cache" in text and "BP" in text and "BTB" in text

    def test_simulate_frontend_returns_all_components(self, ft_trace):
        result = simulate_frontend(ft_trace, TAILORED_FRONTEND, CodeSection.PARALLEL)
        assert result.config_name == "tailored"
        assert result.branch.mpki >= 0.0
        assert result.btb.mpki >= 0.0
        assert result.icache.mpki >= 0.0
