"""Benchmark: regenerate Figure 1: dynamic branch instruction breakdown per suite."""

from repro.experiments import run_fig01, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig01_branch_mix(benchmark):
    """Figure 1: dynamic branch instruction breakdown per suite."""
    result = run_once(benchmark, run_fig01, instructions=BENCH_INSTRUCTIONS)
    show("Figure 1: dynamic branch instruction breakdown per suite", render_blocks(result.tables()))
