"""Tests for the timing (Sniper substitute) and power (McPAT substitute) models."""

import pytest

from repro.frontend.simulation import simulate_frontend
from repro.power import (
    core_area_power,
    evaluate_cmp_energy,
    frontend_area_power,
    sram_for_btb,
    sram_for_icache,
    sram_for_predictor,
)
from repro.power.cmp_power import cmp_area_mm2
from repro.trace import CodeSection
from repro.uarch import (
    ASYMMETRIC_CMP,
    ASYMMETRIC_PLUS_CMP,
    BASELINE_CMP,
    BASELINE_CORE,
    STANDARD_CMP_CONFIGS,
    TAILORED_CMP,
    TAILORED_CORE,
    CmpConfig,
    cpi_for_section,
    profile_workload_frontend,
    run_on_cmp,
)
from repro.workloads import get_workload

SMALL = 60_000


@pytest.fixture(scope="module")
def ft_profile():
    return profile_workload_frontend(get_workload("FT"), SMALL)


@pytest.fixture(scope="module")
def gobmk_profile():
    # A longer window than for the HPC workloads so the desktop working
    # set exceeds the tailored front-end's capacity (as in the paper).
    return profile_workload_frontend(get_workload("gobmk"), 150_000)


class TestCpi:
    def test_cpi_stack_components_add_up(self, ft_trace):
        result = simulate_frontend(ft_trace, BASELINE_CORE.frontend, CodeSection.PARALLEL)
        stack = cpi_for_section(BASELINE_CORE, result)
        assert stack.total == pytest.approx(
            stack.base + stack.memory + stack.branch + stack.btb + stack.icache
        )
        assert stack.frontend == pytest.approx(stack.branch + stack.btb + stack.icache)
        assert stack.as_dict()["total"] == pytest.approx(stack.total)

    def test_frontend_penalties_scale_with_mpki(self, gobmk_trace):
        result = simulate_frontend(gobmk_trace, TAILORED_CORE.frontend)
        stack = cpi_for_section(TAILORED_CORE, result)
        expected = result.branch.mpki / 1000.0 * TAILORED_CORE.branch_penalty_cycles
        assert stack.branch == pytest.approx(expected)


class TestCmpConfigs:
    def test_standard_configurations(self):
        assert BASELINE_CMP.total_cores == 8
        assert TAILORED_CMP.total_cores == 8
        assert ASYMMETRIC_CMP.total_cores == 8
        assert ASYMMETRIC_PLUS_CMP.total_cores == 9
        assert len(STANDARD_CMP_CONFIGS) == 4

    def test_master_core_selection(self):
        assert BASELINE_CMP.master_core is BASELINE_CORE
        assert TAILORED_CMP.master_core is TAILORED_CORE
        assert ASYMMETRIC_CMP.master_core is BASELINE_CORE

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            CmpConfig(name="empty", baseline_cores=0, tailored_cores=0)
        with pytest.raises(ValueError):
            CmpConfig(name="negative", baseline_cores=-1, tailored_cores=2)

    def test_describe(self):
        assert "1B+7T" in ASYMMETRIC_CMP.describe().replace(" ", "")


class TestTimingModel:
    def test_profile_contains_expected_sections(self, ft_profile, gobmk_profile):
        assert not ft_profile.is_sequential
        assert gobmk_profile.is_sequential
        ft_profile.result_for(BASELINE_CORE, CodeSection.PARALLEL)
        gobmk_profile.result_for(TAILORED_CORE, CodeSection.TOTAL)
        with pytest.raises(KeyError):
            gobmk_profile.result_for(TAILORED_CORE, CodeSection.PARALLEL)

    def test_asymmetric_plus_is_fastest_for_hpc(self, ft_profile):
        times = {
            cmp.name: run_on_cmp(ft_profile, cmp).execution_seconds
            for cmp in STANDARD_CMP_CONFIGS
        }
        assert times["Asymmetric++ CMP"] < times["Baseline CMP"]

    def test_asymmetric_plus_improvement_is_near_the_core_count_ratio(self, ft_profile):
        baseline = run_on_cmp(ft_profile, BASELINE_CMP).execution_seconds
        plus = run_on_cmp(ft_profile, ASYMMETRIC_PLUS_CMP).execution_seconds
        assert 0.80 < plus / baseline < 0.98  # paper: 12% average reduction

    def test_tailoring_does_not_slow_hpc_down_much(self, ft_profile):
        baseline = run_on_cmp(ft_profile, BASELINE_CMP).execution_seconds
        tailored = run_on_cmp(ft_profile, TAILORED_CMP).execution_seconds
        assert tailored / baseline < 1.05  # SPEC OMP / NPB: <1% in the paper

    def test_sequential_workload_gains_nothing_from_extra_cores(self, gobmk_profile):
        baseline = run_on_cmp(gobmk_profile, BASELINE_CMP).execution_seconds
        plus = run_on_cmp(gobmk_profile, ASYMMETRIC_PLUS_CMP).execution_seconds
        assert plus == pytest.approx(baseline, rel=1e-6)

    def test_sequential_workload_suffers_on_tailored_cores(self, gobmk_profile):
        baseline = run_on_cmp(gobmk_profile, BASELINE_CMP).execution_seconds
        tailored = run_on_cmp(gobmk_profile, TAILORED_CMP).execution_seconds
        assert tailored > baseline  # desktop needs the big front-end

    def test_serial_plus_parallel_time(self, ft_profile):
        run = run_on_cmp(ft_profile, BASELINE_CMP)
        assert run.execution_seconds == pytest.approx(
            run.serial_seconds + run.parallel_seconds
        )
        assert run.serial_seconds >= 0 and run.parallel_seconds > 0


class TestPowerModels:
    def test_sram_scaling(self):
        small = sram_for_predictor(2 * 8192)
        big = sram_for_predictor(16 * 8192)
        assert big.area_mm2 > 4 * small.area_mm2
        assert big.leakage_w > small.leakage_w
        assert big.energy_per_access_nj > small.energy_per_access_nj

    def test_wider_lines_reduce_icache_accesses(self):
        narrow = sram_for_icache(16 * 1024, 64)
        wide = sram_for_icache(16 * 1024, 128)
        assert wide.accesses_per_instruction < narrow.accesses_per_instruction

    def test_btb_array_size(self):
        assert sram_for_btb(2048).storage_bits == 2048 * 52

    def test_core_area_and_power_match_table_iii(self):
        baseline = core_area_power(BASELINE_CORE)
        tailored = core_area_power(TAILORED_CORE)
        assert baseline.total_area_mm2 == pytest.approx(2.49, rel=0.05)
        assert baseline.active_power_w == pytest.approx(0.85, rel=0.08)
        assert tailored.total_area_mm2 == pytest.approx(2.11, rel=0.05)
        assert tailored.active_power_w == pytest.approx(0.79, rel=0.08)

    def test_tailored_core_saves_area_and_power(self):
        baseline = core_area_power(BASELINE_CORE)
        tailored = core_area_power(TAILORED_CORE)
        area_saving = 1.0 - tailored.total_area_mm2 / baseline.total_area_mm2
        power_saving = 1.0 - tailored.active_power_w / baseline.active_power_w
        assert 0.10 < area_saving < 0.22   # paper: 16%
        assert 0.04 < power_saving < 0.15  # paper: 7%

    def test_frontend_area_breakdown(self):
        frontend = frontend_area_power(BASELINE_CORE.frontend)
        assert frontend.total_area_mm2 == pytest.approx(
            frontend.icache_area_mm2 + frontend.predictor_area_mm2 + frontend.btb_area_mm2
        )
        rows = frontend.as_rows()
        assert set(rows) == {"I-cache", "BP", "BTB"}

    def test_idle_power_is_a_fraction_of_active(self):
        budget = core_area_power(BASELINE_CORE)
        assert 0 < budget.idle_power_w < budget.active_power_w

    def test_asymmetric_plus_fits_the_baseline_core_area_budget(self):
        baseline_area = cmp_area_mm2(BASELINE_CMP, include_l2=False)
        plus_area = cmp_area_mm2(ASYMMETRIC_PLUS_CMP, include_l2=False)
        assert plus_area <= baseline_area * 1.02  # same budget (within 2%)
        assert cmp_area_mm2(BASELINE_CMP) > baseline_area

    def test_cmp_energy_results(self, ft_profile):
        baseline = evaluate_cmp_energy(run_on_cmp(ft_profile, BASELINE_CMP))
        plus = evaluate_cmp_energy(run_on_cmp(ft_profile, ASYMMETRIC_PLUS_CMP))
        assert baseline.energy_j == pytest.approx(
            baseline.average_power_w * baseline.execution_seconds
        )
        # Figure 10: Asymmetric++ draws a bit more power but saves energy-delay.
        assert plus.average_power_w > baseline.average_power_w
        assert plus.energy_delay < baseline.energy_delay
