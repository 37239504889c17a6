"""Benchmark: regenerate Figure 10: normalized time/power/energy/ED per CMP configuration."""

from repro.experiments import run_fig10, render_blocks

from bench_common import BENCH_INSTRUCTIONS, run_once, show


def test_fig10_cmp_configs(benchmark):
    """Figure 10: normalized time/power/energy/ED per CMP configuration."""
    result = run_once(benchmark, run_fig10, instructions=BENCH_INSTRUCTIONS)
    show("Figure 10: normalized time/power/energy/ED per CMP configuration", render_blocks(result.tables()))
