"""Benchmark: regenerate Figure 6: gshare branch MPKI breakdown for selected workloads."""

from repro.experiments import run_fig06, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig06_mpki_breakdown(benchmark):
    """Figure 6: gshare branch MPKI breakdown for selected workloads."""
    result = run_once(benchmark, run_fig06, instructions=BENCH_INSTRUCTIONS)
    show("Figure 6: gshare branch MPKI breakdown for selected workloads", render_blocks(result.tables()))
