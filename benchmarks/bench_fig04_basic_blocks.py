"""Benchmark: regenerate Figure 4: basic-block length and taken-branch distance."""

from repro.experiments import run_fig04, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig04_basic_blocks(benchmark):
    """Figure 4: basic-block length and taken-branch distance."""
    result = run_once(benchmark, run_fig04, instructions=BENCH_INSTRUCTIONS)
    show("Figure 4: basic-block length and taken-branch distance", render_blocks(result.tables()))
