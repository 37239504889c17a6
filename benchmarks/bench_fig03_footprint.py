"""Benchmark: regenerate Figure 3: static and 99%-dynamic instruction footprints."""

from repro.experiments import run_fig03, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig03_footprint(benchmark):
    """Figure 3: static and 99%-dynamic instruction footprints."""
    result = run_once(benchmark, run_fig03, instructions=BENCH_INSTRUCTIONS)
    show("Figure 3: static and 99%-dynamic instruction footprints", render_blocks(result.tables()))
