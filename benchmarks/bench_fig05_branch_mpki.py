"""Benchmark: regenerate Figure 5: branch MPKI per predictor configuration and suite."""

from repro.experiments import run_fig05, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig05_branch_mpki(benchmark):
    """Figure 5: branch MPKI per predictor configuration and suite."""
    result = run_once(benchmark, run_fig05, instructions=BENCH_INSTRUCTIONS)
    show("Figure 5: branch MPKI per predictor configuration and suite", render_blocks(result.tables()))
