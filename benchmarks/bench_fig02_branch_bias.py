"""Benchmark: regenerate Figure 2: conditional branch direction distribution per suite."""

from repro.experiments import run_fig02, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig02_branch_bias(benchmark):
    """Figure 2: conditional branch direction distribution per suite."""
    result = run_once(benchmark, run_fig02, instructions=BENCH_INSTRUCTIONS)
    show("Figure 2: conditional branch direction distribution per suite", render_blocks(result.tables()))
