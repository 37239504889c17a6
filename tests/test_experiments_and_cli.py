"""Tests for the experiment drivers and the command-line interface.

The drivers are exercised on reduced workload sets and short traces so
the suite stays fast; the full-scale runs live in ``benchmarks/``.
"""

import pytest

from repro import experiments
from repro.cli import main as cli_main
from repro.trace import CodeSection
from repro.workloads import Suite

TINY = 40_000
SUITES = [Suite.NPB, Suite.SPEC_CPU_INT]


class TestCharacterizationExperiments:
    def test_fig01_shapes_and_format(self):
        result = experiments.run_fig01(instructions=TINY, suites=SUITES)
        npb = result.branch_fraction[Suite.NPB][CodeSection.PARALLEL]
        desktop = result.branch_fraction[Suite.SPEC_CPU_INT][CodeSection.TOTAL]
        assert desktop > 2 * npb  # Characteristic 1
        text = experiments.render_blocks(result.tables())
        assert "direct branch" in text and "NPB" in text

    def test_fig02_bias_shape(self):
        result = experiments.run_fig02(instructions=TINY, suites=SUITES)
        npb = result.strongly_biased(Suite.NPB, CodeSection.PARALLEL)
        desktop = result.strongly_biased(Suite.SPEC_CPU_INT, CodeSection.TOTAL)
        assert npb > desktop  # Characteristic 2
        assert "0-10%" in experiments.render_blocks(result.tables())

    def test_table1_backward_share(self):
        result = experiments.run_table1(instructions=TINY, suites=SUITES)
        npb = result.backward[Suite.NPB][CodeSection.PARALLEL]
        desktop = result.backward[Suite.SPEC_CPU_INT][CodeSection.TOTAL]
        assert npb > desktop
        assert result.forward(Suite.NPB, CodeSection.PARALLEL) == pytest.approx(1 - npb)
        assert "backward" in experiments.render_blocks(result.tables())

    def test_fig03_footprints(self):
        result = experiments.run_fig03(instructions=TINY, suites=SUITES)
        npb = result.dynamic99_kb[Suite.NPB][CodeSection.PARALLEL]
        desktop = result.dynamic99_kb[Suite.SPEC_CPU_INT][CodeSection.TOTAL]
        assert npb < desktop  # Characteristic 3
        assert "KB" in experiments.render_blocks(result.tables())

    def test_fig04_block_lengths(self):
        result = experiments.run_fig04(instructions=TINY, suites=SUITES)
        npb = result.block_bytes[Suite.NPB][CodeSection.PARALLEL]
        desktop = result.block_bytes[Suite.SPEC_CPU_INT][CodeSection.TOTAL]
        assert npb > 2 * desktop  # Characteristic 4
        assert "BBL" in experiments.render_blocks(result.tables())


class TestStructureExperiments:
    def test_table2_budgets(self):
        result = experiments.run_table2()
        assert result.storage_kb("gshare", "small") == pytest.approx(2.0, rel=0.05)
        assert result.storage_kb("gshare", "big") == pytest.approx(16.0, rel=0.05)
        assert result.loop_predictor_bits > 0
        assert "gshare" in experiments.render_blocks(result.tables())

    def test_fig05_runs_on_a_subset(self):
        result = experiments.run_fig05(instructions=TINY, suites=[Suite.NPB])
        assert len(result.configurations) == 9
        values = result.mpki[Suite.NPB]
        assert all(v >= 0 for v in values.values())
        assert "gshare-small" in experiments.render_blocks(result.tables())

    def test_fig06_breakdown(self):
        result = experiments.run_fig06(instructions=TINY, workloads=["FT", "gobmk"])
        total = result.total_mpki("FT", "gshare-small")
        assert total == pytest.approx(
            sum(result.breakdown["FT"]["gshare-small"].values())
        )
        assert "gobmk" in experiments.render_blocks(result.tables())

    def test_fig07_btb_sweep(self):
        result = experiments.run_fig07(
            instructions=TINY, suites=[Suite.NPB], geometries=[(256, 4), (1024, 4)]
        )
        values = result.mpki[Suite.NPB]
        assert values[(1024, 4)] <= values[(256, 4)] + 0.1
        assert "256e/4w" in experiments.render_blocks(result.tables())

    def test_fig08_icache_sweep(self):
        result = experiments.run_fig08(
            instructions=TINY, suites=[Suite.NPB], geometries=[(8, 4), (32, 4)]
        )
        values = result.mpki[Suite.NPB]
        assert values[(32, 4)] <= values[(8, 4)]
        assert "8KB/4w" in experiments.render_blocks(result.tables())

    def test_fig09_line_width(self):
        result = experiments.run_fig09(instructions=TINY, workloads=["CoGL", "omnetpp"])
        assert set(result.workloads) == {"CoGL", "omnetpp"}
        assert 0.0 < result.usefulness_128["CoGL"] <= 1.0
        assert "usefulness" in experiments.render_blocks(result.tables())

    def test_table3_area_power(self):
        result = experiments.run_table3()
        assert result.area_ratio() == pytest.approx(0.84, abs=0.04)
        assert result.power_ratio() == pytest.approx(0.93, abs=0.05)
        assert "Total core" in experiments.render_blocks(result.tables())


class TestCmpExperiments:
    def test_fig10_normalization(self):
        result = experiments.run_fig10(instructions=TINY, suites=[Suite.NPB])
        data = result.normalized[Suite.NPB]
        assert data["execution time"]["Baseline CMP"] == pytest.approx(1.0)
        assert data["execution time"]["Asymmetric++ CMP"] < 1.0
        assert data["power"]["Asymmetric++ CMP"] > 1.0
        assert "energy-delay" in experiments.render_blocks(result.tables())

    def test_fig11_per_benchmark(self):
        result = experiments.run_fig11(instructions=TINY, workloads=["FT", "gobmk"])
        assert result.normalized_time["FT"]["Baseline CMP"] == pytest.approx(1.0)
        assert result.normalized_time["FT"]["Asymmetric++ CMP"] < 1.0
        assert result.normalized_time["gobmk"]["Asymmetric++ CMP"] == pytest.approx(1.0)
        assert "gobmk" in experiments.render_blocks(result.tables())


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig1" in output and "table3" in output

    def test_run_table2(self, capsys):
        assert cli_main(["table2"]) == 0
        assert "gshare" in capsys.readouterr().out

    def test_run_fig6_with_instruction_override(self, capsys):
        assert cli_main(["table3", "--instructions", "20000"]) == 0
        assert "Total core" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli_main(["figure99"])

    @pytest.mark.parametrize("budget", ["0", "-5", "many"])
    def test_bad_instruction_budget_is_a_usage_error(self, budget, capsys):
        with pytest.raises(SystemExit) as raised:
            cli_main(["fig1", "--instructions", budget])
        assert raised.value.code == 2
        assert "--instructions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["serve", "--port", "-1"], "--port"),
            (["explore", "--smoke", "--retries", "two"], "--retries"),
            (["fig5", "--retries", "-1"], "--retries"),
            (["serve", "--port", "70000"], "--port"),
            (["fig5", "--parallel", "--processes", "0"], "--processes"),
        ],
    )
    def test_out_of_range_flags_are_usage_errors(self, argv, flag, tmp_path, capsys):
        """Rejected by the parser (exit 2) before anything runs, not a
        traceback from deep inside the run or a silent clamp."""
        argv = argv + ["--instructions", "2000", "--queue-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as raised:
            cli_main(argv)
        assert raised.value.code == 2
        assert flag in capsys.readouterr().err
