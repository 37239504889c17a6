"""Benchmark: regenerate Figure 9: I-cache MPKI versus line width for selected workloads."""

from repro.experiments import run_fig09, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig09_icache_lines(benchmark):
    """Figure 9: I-cache MPKI versus line width for selected workloads."""
    result = run_once(benchmark, run_fig09, instructions=BENCH_INSTRUCTIONS)
    show("Figure 9: I-cache MPKI versus line width for selected workloads", render_blocks(result.tables()))
