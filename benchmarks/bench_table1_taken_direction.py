"""Benchmark: regenerate Table I: backward vs forward taken branches per suite."""

from repro.experiments import run_table1, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_table1_taken_direction(benchmark):
    """Table I: backward vs forward taken branches per suite."""
    result = run_once(benchmark, run_table1, instructions=BENCH_INSTRUCTIONS)
    show("Table I: backward vs forward taken branches per suite", render_blocks(result.tables()))
