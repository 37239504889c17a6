"""Benchmark: regenerate Table II: branch predictor size parameters and cost."""

from repro.experiments import run_table2, render_blocks

from bench_common import run_once, show


def test_table2_predictor_budgets(benchmark):
    """Table II: branch predictor size parameters and cost."""
    result = run_once(benchmark, run_table2)
    show("Table II: branch predictor size parameters and cost", render_blocks(result.tables()))
