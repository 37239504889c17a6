"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's figures: they sweep the knobs behind the
tailored front-end (loop-predictor capacity, TAGE table count for the
small budget, I-cache line width beyond 128B, and the serial-fraction
sensitivity of the asymmetric CMP benefit).
"""

from __future__ import annotations

from repro.experiments.common import format_table
from repro.frontend.predictors import (
    GsharePredictor,
    LoopPredictor,
    PredictorWithLoop,
    TagePredictor,
)
from repro.frontend.simulation import simulate_branch_predictor, simulate_icache
from repro.uarch import ASYMMETRIC_PLUS_CMP, BASELINE_CMP, profile_workload_frontend, run_on_cmp
from repro.workloads import get_workload
from repro.workloads.trace_cache import workload_trace

from bench_common import BENCH_INSTRUCTIONS, run_once, show

HPC_SAMPLE = ("FT", "botsspar", "imagick", "CoMD")
DESKTOP_SAMPLE = ("gobmk", "astar")


def _trace(name):
    return workload_trace(get_workload(name), BENCH_INSTRUCTIONS)


def _loop_predictor_sweep():
    rows = []
    for entries in (16, 32, 64, 128):
        mpki_values = []
        for name in HPC_SAMPLE:
            predictor = PredictorWithLoop(GsharePredictor(13), LoopPredictor(entries=entries))
            mpki_values.append(simulate_branch_predictor(_trace(name), predictor).mpki)
        rows.append([f"{entries}-entry LBP",
                     f"{sum(mpki_values) / len(mpki_values):.2f}"])
    return format_table(["loop predictor", "HPC branch MPKI (gshare-small base)"], rows)


def test_ablation_loop_predictor_entries(benchmark):
    """Loop predictor capacity versus HPC branch MPKI."""
    show("Ablation: loop predictor entries", run_once(benchmark, _loop_predictor_sweep))


def _tage_table_sweep():
    rows = []
    for tables in (1, 2, 4, 6):
        mpki_values = []
        for name in HPC_SAMPLE + DESKTOP_SAMPLE:
            predictor = TagePredictor(
                num_tables=tables, entries_per_table=256, tag_bits=9,
                min_history=4, max_history=max(16, 8 * tables), base_entries=4096,
            )
            mpki_values.append(simulate_branch_predictor(_trace(name), predictor).mpki)
        kb = predictor.storage_kb()
        rows.append([f"{tables} tagged tables", f"{kb:.2f}",
                     f"{sum(mpki_values) / len(mpki_values):.2f}"])
    return format_table(["small TAGE", "budget [KB]", "avg branch MPKI"], rows)


def test_ablation_tage_tables(benchmark):
    """Tagged-table count of the ~2KB TAGE versus MPKI."""
    show("Ablation: small-TAGE tagged tables", run_once(benchmark, _tage_table_sweep))


def _line_width_sweep():
    rows = []
    for line_bytes in (32, 64, 128, 256):
        hpc = [
            simulate_icache(_trace(name), size_bytes=16 * 1024,
                            line_bytes=line_bytes, associativity=8).mpki
            for name in HPC_SAMPLE
        ]
        desktop = [
            simulate_icache(_trace(name), size_bytes=16 * 1024,
                            line_bytes=line_bytes, associativity=8).mpki
            for name in DESKTOP_SAMPLE
        ]
        rows.append([f"{line_bytes}B lines",
                     f"{sum(hpc) / len(hpc):.2f}",
                     f"{sum(desktop) / len(desktop):.2f}"])
    return format_table(["16KB I-cache", "HPC MPKI", "desktop MPKI"], rows)


def test_ablation_icache_line_width(benchmark):
    """I-cache line width beyond the paper's 128B."""
    show("Ablation: I-cache line width", run_once(benchmark, _line_width_sweep))


def _serial_fraction_sweep():
    rows = []
    for name in ("FT", "CoMD", "CoEVP"):
        spec = get_workload(name)
        profile = profile_workload_frontend(spec, BENCH_INSTRUCTIONS)
        baseline = run_on_cmp(profile, BASELINE_CMP).execution_seconds
        plus = run_on_cmp(profile, ASYMMETRIC_PLUS_CMP).execution_seconds
        rows.append([name, f"{spec.serial_fraction:.2f}", f"{plus / baseline:.3f}"])
    return format_table(
        ["workload", "serial fraction", "Asymmetric++ time (normalized)"], rows
    )


def test_ablation_serial_fraction(benchmark):
    """Serial-section share versus the Asymmetric++ CMP benefit."""
    show("Ablation: serial fraction sensitivity", run_once(benchmark, _serial_fraction_sweep))
