"""Benchmark: regenerate Table III: front-end area and power at the core level."""

from repro.experiments import run_table3, render_blocks

from bench_common import run_once, show


def test_table3_area_power(benchmark):
    """Table III: front-end area and power at the core level."""
    result = run_once(benchmark, run_table3)
    show("Table III: front-end area and power at the core level", render_blocks(result.tables()))
