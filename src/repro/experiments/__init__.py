"""Experiment drivers: one module per table and figure of the paper.

Every module exposes a ``run_*`` function that regenerates the data of
the corresponding table or figure (per-suite or per-benchmark rows and
series) and a module-level ``SPEC`` -- the
:class:`~repro.results.spec.ExperimentSpec` the orchestrator
(:mod:`repro.results.orchestrator`) registers the driver behind.  The
result renders itself: ``result.tables()`` gives the table blocks the
CLI prints and the manifest emits as CSV/JSON, and
``render_blocks(result.tables())`` the text.  The benchmark harness
under ``benchmarks/`` simply calls these functions, so the mapping from
paper artefact to code is one-to-one.
"""

from repro.experiments.common import (
    DEFAULT_EXPERIMENT_INSTRUCTIONS,
    default_workload_names,
    normalize_to_reference,
    render_blocks,
)
from repro.experiments.fig01_branch_mix import run_fig01
from repro.experiments.fig02_branch_bias import run_fig02
from repro.experiments.table1_taken_direction import run_table1
from repro.experiments.fig03_footprint import run_fig03
from repro.experiments.fig04_basic_blocks import run_fig04
from repro.experiments.table2_predictor_budgets import run_table2
from repro.experiments.fig05_branch_mpki import run_fig05
from repro.experiments.fig06_mpki_breakdown import run_fig06
from repro.experiments.fig07_btb import run_fig07
from repro.experiments.fig08_icache import run_fig08
from repro.experiments.fig09_icache_lines import run_fig09
from repro.experiments.table3_area_power import run_table3
from repro.experiments.fig10_cmp_configs import run_fig10
from repro.experiments.fig11_per_benchmark_time import run_fig11
from repro.experiments.cmp_sweep import run_cmpsweep
from repro.experiments.explore_presets import (
    run_explore_preset,
    run_explore_frontend,
    run_explore_smoke,
    run_explore_cmp,
)

__all__ = [
    "DEFAULT_EXPERIMENT_INSTRUCTIONS",
    "default_workload_names",
    "normalize_to_reference",
    "render_blocks",
    "run_fig01",
    "run_fig02",
    "run_table1",
    "run_fig03",
    "run_fig04",
    "run_table2",
    "run_fig05",
    "run_fig06",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_table3",
    "run_fig10",
    "run_fig11",
    "run_cmpsweep",
    "run_explore_preset",
    "run_explore_frontend",
    "run_explore_smoke",
    "run_explore_cmp",
]
