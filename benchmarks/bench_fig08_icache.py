"""Benchmark: regenerate Figure 8: I-cache MPKI versus size and associativity."""

from repro.experiments import run_fig08, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig08_icache(benchmark):
    """Figure 8: I-cache MPKI versus size and associativity."""
    result = run_once(benchmark, run_fig08, instructions=BENCH_INSTRUCTIONS)
    show("Figure 8: I-cache MPKI versus size and associativity", render_blocks(result.tables()))
