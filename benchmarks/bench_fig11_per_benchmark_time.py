"""Benchmark: regenerate Figure 11: per-benchmark execution time per CMP configuration."""

from repro.experiments import run_fig11, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig11_per_benchmark_time(benchmark):
    """Figure 11: per-benchmark execution time per CMP configuration."""
    result = run_once(benchmark, run_fig11, instructions=BENCH_INSTRUCTIONS)
    show("Figure 11: per-benchmark execution time per CMP configuration", render_blocks(result.tables()))
