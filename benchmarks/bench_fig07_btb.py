"""Benchmark: regenerate Figure 7: BTB MPKI versus entries and associativity."""

from repro.experiments import run_fig07, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig07_btb(benchmark):
    """Figure 7: BTB MPKI versus entries and associativity."""
    result = run_once(benchmark, run_fig07, instructions=BENCH_INSTRUCTIONS)
    show("Figure 7: BTB MPKI versus entries and associativity", render_blocks(result.tables()))
