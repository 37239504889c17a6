"""Tests for the batched multi-configuration engine and the CMP sweep layer.

Covers the bit-identity contract of ``simulate_frontend_many`` /
``simulate_branch_predictors`` against the per-config paths, the
trace/profile cache routing of the Section V stack, the ``run_on_cmp``
activity accounting, ``evaluate_cmp_energy``, the shared normalization
helper, and the ``cmpsweep`` scenario subsystem end to end (driver and
CLI).
"""

import dataclasses
from collections import Counter

import pytest

from repro import experiments
from repro.api import Session
from repro.cli import main as cli_main
from repro.experiments.common import default_workload_names
from repro.experiments.explore_presets import run_explore_frontend
from repro.experiments import normalize_to_reference
from repro.frontend.configs import (
    BASELINE_FRONTEND,
    TAILORED_FRONTEND,
    BranchPredictorConfig,
    BTBConfig,
    FrontEndConfig,
    ICacheConfig,
)
from repro.frontend import predictors, simulation
from repro.frontend.predictors import make_predictor
from repro.frontend.predictors.factory import predictor_configurations
from repro.frontend.predictors.hybrid import PredictorWithLoop
from repro.frontend.predictors.loop import LoopPredictor
from repro.frontend.simulation import (
    simulate_branch_predictor,
    simulate_branch_predictors,
    simulate_frontend,
    simulate_frontend_many,
)
from repro.power.cmp_power import evaluate_cmp_energy
from repro.power.core_power import (
    L2_AREA_MM2,
    L2_POWER_W,
    core_area_power,
    l2_area_mm2,
    l2_power_w,
)
from repro.trace import CodeSection
from repro.uarch import (
    ASYMMETRIC_CMP,
    BASELINE_CMP,
    BASELINE_CORE,
    STANDARD_CMP_CONFIGS,
    TAILORED_CORE,
    get_scenario,
    mix_config,
    profile_workload_frontend,
    standard_scenarios,
)
from repro.uarch.simulator import (
    NOMINAL_INSTRUCTIONS,
    CmpRunResult,
    CoreActivity,
    run_on_cmp,
)
from repro.uarch.sweep import SweepScenario
from repro.workloads import Suite, build_workload, get_workload
from repro.workloads.trace_cache import clear_trace_cache, trace_cache_info

SMALL = 60_000


@pytest.fixture(scope="module")
def ft_profile():
    return profile_workload_frontend(build_workload(get_workload("FT")), SMALL)


@pytest.fixture(scope="module")
def gobmk_profile():
    return profile_workload_frontend(build_workload(get_workload("gobmk")), 150_000)

#: A third front-end that shares sub-configurations with the standard
#: two, exercising the engine's per-structure memoization.
MIXED_FRONTEND = FrontEndConfig(
    name="mixed",
    icache=ICacheConfig(size_bytes=16 * 1024, line_bytes=128, associativity=8),
    predictor=BranchPredictorConfig(kind="tournament", budget="big", with_loop=False),
    btb=BTBConfig(entries=2048, associativity=4),
)

#: Figure 5's nine configurations, then two static predictors without
#: and with the loop predictor: every hybrid comes after its base.
MEMO_CONFIGS = tuple(
    BranchPredictorConfig(kind, budget, with_loop)
    for _, kind, budget, with_loop in predictor_configurations()
) + tuple(
    BranchPredictorConfig(kind, "small", with_loop)
    for kind in ("btfn", "always-taken")
    for with_loop in (False, True)
)


class TestSimulateFrontendMany:
    @pytest.mark.parametrize(
        "section", [CodeSection.TOTAL, CodeSection.SERIAL, CodeSection.PARALLEL]
    )
    def test_bit_identical_to_per_config_simulation(self, ft_trace, section):
        configs = [BASELINE_FRONTEND, TAILORED_FRONTEND, MIXED_FRONTEND]
        batched = simulate_frontend_many(ft_trace, configs, [section])
        for config in configs:
            single = simulate_frontend(ft_trace, config, section)
            many = batched[(config.name, section)]
            assert dataclasses.asdict(many) == dataclasses.asdict(single)

    def test_multi_section_batch(self, ft_trace):
        sections = [CodeSection.SERIAL, CodeSection.PARALLEL]
        batched = simulate_frontend_many(ft_trace, [BASELINE_FRONTEND], sections)
        assert set(batched) == {("baseline", s) for s in sections}
        for section in sections:
            assert batched[("baseline", section)].section is section

    def test_shared_subconfigs_are_simulated_once(self, ft_trace):
        # MIXED shares the big-tournament predictor and the 2K BTB with
        # BASELINE and the tailored I-cache geometry with TAILORED, so
        # the engine must reuse those result objects.
        configs = [BASELINE_FRONTEND, TAILORED_FRONTEND, MIXED_FRONTEND]
        batched = simulate_frontend_many(ft_trace, configs, [CodeSection.TOTAL])
        baseline = batched[("baseline", CodeSection.TOTAL)]
        tailored = batched[("tailored", CodeSection.TOTAL)]
        mixed = batched[("mixed", CodeSection.TOTAL)]
        assert mixed.branch is baseline.branch
        assert mixed.btb is baseline.btb
        assert mixed.icache is tailored.icache

    @pytest.mark.parametrize("workload", ["ft_trace", "gobmk_trace", "coevp_trace"])
    def test_branch_predictor_batch_matches_per_predictor(self, request, workload):
        trace = request.getfixturevalue(workload)
        for section in (CodeSection.TOTAL, CodeSection.SERIAL, CodeSection.PARALLEL):
            reference = {
                config: dataclasses.asdict(
                    simulate_branch_predictor(trace, config.build(), section)
                )
                for config in MEMO_CONFIGS
            }
            # In order every hybrid follows its base; reversed it comes
            # first.  Each order starts from an empty memo.
            for configs in (MEMO_CONFIGS, MEMO_CONFIGS[::-1]):
                simulation._STREAMS.pop(trace, None)
                batched = simulate_branch_predictors(trace, configs, section)
                assert [dataclasses.asdict(result) for result in batched] == [
                    reference[config] for config in configs
                ]


class TestOnePassPerComponent:
    """Figures 5 and 6 and the front-end preset share predictor passes."""

    #: A trace budget no other test uses: no earlier run filled the
    #: shared memo of these traces.
    INSTRUCTIONS = 6_013

    def test_each_predictor_and_the_loop_run_once_per_stream(self, monkeypatch):
        passes = Counter()
        loop_passes = Counter()

        def stream_key(addresses, taken):
            return hash((addresses.tobytes(), taken.tobytes()))

        def counted(original):
            def simulate_sequence(self, addresses, taken, targets=None):
                key = (type(self).__name__, self.storage_bits())
                passes[key + (stream_key(addresses, taken),)] += 1
                return original(self, addresses, taken, targets)

            return simulate_sequence

        for value in vars(predictors).values():
            if isinstance(value, type) and "simulate_sequence" in vars(value):
                monkeypatch.setattr(
                    value, "simulate_sequence", counted(value.simulate_sequence)
                )
        simulate_overrides = LoopPredictor.simulate_overrides

        def counted_overrides(self, addresses, taken):
            loop_passes[stream_key(addresses, taken)] += 1
            return simulate_overrides(self, addresses, taken)

        monkeypatch.setattr(LoopPredictor, "simulate_overrides", counted_overrides)

        session = Session(
            instructions=self.INSTRUCTIONS,
            parallel=False,
            trace_cache_dir=None,
            result_cache_dir=None,
        )
        with session.activate():
            experiments.run_fig05()
            experiments.run_fig06()
            run_explore_frontend()

        streams = {stream for *_, stream in passes}
        assert len(streams) == len(default_workload_names())
        # Six loop-free predictors (three families, two budgets) per
        # stream, each run once; no hybrid ever runs its own pass.
        assert set(passes.values()) == {1}
        assert Counter(stream for *_, stream in passes) == dict.fromkeys(streams, 6)
        assert {name for name, _, _ in passes} == {
            "GsharePredictor",
            "TournamentPredictor",
            "TagePredictor",
        }
        assert loop_passes == dict.fromkeys(streams, 1)


class TestProfileCacheRouting:
    def test_fig10_and_fig11_hit_the_trace_cache(self):
        clear_trace_cache()
        experiments.run_fig10(instructions=20_000, suites=[Suite.NPB])
        first = trace_cache_info()
        assert first["misses"] > 0
        # A second fig10 run and a fig11 run over a subset of the same
        # workloads must reuse the cached traces, not regenerate them.
        experiments.run_fig10(instructions=20_000, suites=[Suite.NPB])
        experiments.run_fig11(instructions=20_000, workloads=["FT"])
        second = trace_cache_info()
        assert second["hits"] > first["hits"]
        assert second["misses"] == first["misses"]

    def test_profile_is_memoized_and_reuses_the_cached_trace(self):
        clear_trace_cache()
        spec = get_workload("FT")
        profile = profile_workload_frontend(spec, 20_000)
        again = profile_workload_frontend(spec, 20_000)
        assert again is profile
        assert trace_cache_info()["entries"] == 1

    def test_spec_and_workload_arguments_are_equivalent(self):
        clear_trace_cache()
        spec = get_workload("FT")
        by_spec = profile_workload_frontend(spec, 20_000)
        by_workload = profile_workload_frontend(build_workload(spec), 20_000)
        assert by_workload is by_spec


class TestRunOnCmpActivityAccounting:
    def test_master_flavour_spreads_serial_time(self, ft_profile):
        run = run_on_cmp(ft_profile, ASYMMETRIC_CMP)
        by_name = {activity.core.name: activity for activity in run.activities}
        master = by_name[ASYMMETRIC_CMP.master_core.name]
        # One baseline core: its busy time is its parallel share plus
        # the whole serial phase.
        parallel_share = (
            (NOMINAL_INSTRUCTIONS * (1 - ft_profile.serial_fraction))
            / ASYMMETRIC_CMP.total_cores
            * ft_profile.cpi(BASELINE_CORE, CodeSection.PARALLEL).total
            / BASELINE_CORE.cycles_per_second()
        )
        assert master.count == 1
        assert master.busy_seconds_per_core == pytest.approx(
            parallel_share + run.serial_seconds
        )
        # Tailored workers only run their parallel share.
        tailored = by_name[TAILORED_CORE.name]
        tailored_share = (
            (NOMINAL_INSTRUCTIONS * (1 - ft_profile.serial_fraction))
            / ASYMMETRIC_CMP.total_cores
            * ft_profile.cpi(TAILORED_CORE, CodeSection.PARALLEL).total
            / TAILORED_CORE.cycles_per_second()
        )
        assert tailored.busy_seconds_per_core == pytest.approx(tailored_share)
        assert run.parallel_seconds == pytest.approx(
            max(parallel_share, tailored_share)
        )

    def test_sequential_workload_keeps_workers_idle(self, gobmk_profile):
        run = run_on_cmp(gobmk_profile, ASYMMETRIC_CMP)
        by_name = {activity.core.name: activity for activity in run.activities}
        assert run.parallel_seconds == 0.0
        assert by_name[BASELINE_CORE.name].busy_seconds_per_core == pytest.approx(
            run.serial_seconds
        )
        assert by_name[TAILORED_CORE.name].busy_seconds_per_core == 0.0

    def test_no_core_is_busier_than_the_run(self, ft_profile):
        for cmp in STANDARD_CMP_CONFIGS:
            run = run_on_cmp(ft_profile, cmp)
            for activity in run.activities:
                assert 0.0 <= activity.busy_seconds_per_core <= (
                    run.execution_seconds * (1 + 1e-12)
                )


class TestEvaluateCmpEnergy:
    def test_energy_matches_hand_computed_activity_integral(self):
        baseline_budget = core_area_power(BASELINE_CORE)
        execution = 2.0
        run = CmpRunResult(
            workload_name="synthetic",
            cmp=BASELINE_CMP,
            serial_seconds=0.5,
            parallel_seconds=1.5,
            activities=[
                CoreActivity(core=BASELINE_CORE, count=8, busy_seconds_per_core=1.25)
            ],
        )
        result = evaluate_cmp_energy(run)
        per_core = (
            baseline_budget.active_power_w * 1.25
            + baseline_budget.idle_power_w * (execution - 1.25)
        )
        expected = 8 * (per_core + l2_power_w(BASELINE_CMP.l2_kb_per_core) * execution)
        assert result.energy_j == pytest.approx(expected)
        assert result.average_power_w == pytest.approx(expected / execution)
        assert result.energy_delay == pytest.approx(result.energy_j * execution)

    def test_zero_execution_time_is_rejected(self):
        run = CmpRunResult(
            workload_name="broken",
            cmp=BASELINE_CMP,
            serial_seconds=0.0,
            parallel_seconds=0.0,
            activities=[],
        )
        with pytest.raises(ValueError):
            evaluate_cmp_energy(run)

    def test_l2_scaling_is_anchored_at_the_reference_size(self):
        assert l2_power_w(256) == L2_POWER_W
        assert l2_area_mm2(256) == L2_AREA_MM2
        assert l2_power_w(512) > L2_POWER_W > l2_power_w(128)
        assert l2_area_mm2(512) == pytest.approx(2 * L2_AREA_MM2)


class TestNormalization:
    def test_normalizes_to_named_reference(self):
        normalized = normalize_to_reference({"a": 2.0, "b": 3.0}, "a")
        assert normalized == {"a": 1.0, "b": 1.5}

    def test_zero_reference_guard(self):
        normalized = normalize_to_reference({"a": 0.0, "b": 3.0}, "a")
        assert normalized == {"a": 0.0, "b": 0.0}


class TestSweepScenarios:
    def test_mix_config_grid_points(self):
        assert mix_config("baseline", 4).baseline_cores == 4
        assert mix_config("tailored", 4).tailored_cores == 4
        asymmetric = mix_config("asymmetric", 8)
        assert (asymmetric.baseline_cores, asymmetric.tailored_cores) == (1, 7)
        plus = mix_config("asymmetric++", 8)
        assert (plus.baseline_cores, plus.tailored_cores) == (1, 8)
        assert mix_config("asymmetric", 1) is None

    def test_mix_config_validation(self):
        with pytest.raises(ValueError):
            mix_config("baseline", 0)
        with pytest.raises(ValueError):
            mix_config("baseline", 65)
        with pytest.raises(ValueError):
            mix_config("quantum", 8)

    def test_cmp_grid_cross_product(self):
        from repro.explore import GridSpec

        grid = GridSpec.cmp(
            (1, 8), mixes=("baseline", "asymmetric"), l2_kb=(256, 512)
        ).configs()
        # Nesting l2 x cores x mix; asymmetric does not exist at one core.
        assert [cmp.name for cmp in grid] == [
            "1B+0T",
            "8B+0T",
            "1B+7T",
            "1B+0T 512KB-L2",
            "8B+0T 512KB-L2",
            "1B+7T 512KB-L2",
        ]
        assert [cmp.l2_kb_per_core for cmp in grid] == [256] * 3 + [512] * 3

    def test_cmp_grid_deduplicates_overlapping_mixes(self):
        # asymmetric++ at N cores is the same chip as asymmetric at N+1;
        # the grid must emit it once so SweepScenario accepts the result.
        from repro.explore import GridSpec

        grid = GridSpec.cmp((2, 3), mixes=("asymmetric", "asymmetric++")).configs()
        assert [cmp.name for cmp in grid] == ["1B+1T", "1B+2T", "1B+3T"]
        SweepScenario(name="dedup", description="", cmps=tuple(grid))

    def test_standard_scenarios_are_well_formed(self):
        scenarios = standard_scenarios()
        assert {"paper", "core-scaling", "l2-scaling"} <= set(scenarios)
        assert get_scenario("paper").cmps == tuple(STANDARD_CMP_CONFIGS)
        assert max(
            cmp.total_cores for cmp in get_scenario("core-scaling").cmps
        ) >= 64
        with pytest.raises(KeyError):
            get_scenario("missing")
        with pytest.raises(ValueError):
            SweepScenario(name="empty", description="", cmps=())

    def test_run_cmpsweep_normalizes_per_scenario(self):
        result = experiments.run_cmpsweep(
            instructions=SMALL,
            scenario_names=["paper"],
            workloads=["FT", "gobmk"],
        )
        paper = result.per_workload["paper"]
        assert paper["FT"]["time"]["Baseline CMP"] == pytest.approx(1.0)
        assert paper["FT"]["time"]["Asymmetric++ CMP"] < 1.0
        assert paper["gobmk"]["time"]["Asymmetric++ CMP"] == pytest.approx(1.0)
        summary = result.summary["paper"]
        assert summary["time"]["Baseline CMP"] == pytest.approx(1.0)
        text = experiments.render_blocks(result.tables())
        assert "scenario paper" in text and "Asymmetric++ CMP" in text

    def test_run_cmpsweep_with_explicit_scenario_objects(self, ft_profile):
        scenario = SweepScenario(
            name="tiny",
            description="two points",
            cmps=(BASELINE_CMP, ASYMMETRIC_CMP),
        )
        result = experiments.run_cmpsweep(
            instructions=SMALL, scenarios=[scenario], workloads=["FT"]
        )
        assert list(result.summary) == ["tiny"]
        assert result.summary["tiny"]["energy"]["Asymmetric CMP"] < 1.0


class TestParallelSweeps:
    def test_fig11_parallel_matches_serial(self):
        serial = experiments.run_fig11(instructions=20_000, workloads=["FT", "gobmk"])
        with Session(parallel=True, processes=2).activate():
            parallel = experiments.run_fig11(
                instructions=20_000, workloads=["FT", "gobmk"]
            )
        assert parallel.normalized_time == serial.normalized_time

    def test_table2_and_table3_compute_in_process(self):
        from repro.exec.queue import queue_info

        serial2, serial3 = experiments.run_table2(), experiments.run_table3()
        enqueued = queue_info()["enqueued"]
        with Session(parallel=True, processes=2).activate():
            parallel2, parallel3 = experiments.run_table2(), experiments.run_table3()
        # Pure arithmetic: a parallel session starts no queue campaign.
        assert queue_info()["enqueued"] == enqueued
        assert parallel2.storage_bits == serial2.storage_bits
        assert parallel3.cores == serial3.cores


class TestCliSweep:
    def test_cmpsweep_command(self, capsys):
        assert cli_main(["cmpsweep", "--instructions", "20000", "--scenarios", "paper"]) == 0
        output = capsys.readouterr().out
        assert "scenario paper" in output and "Baseline CMP" in output

    def test_parallel_flag_now_supported_everywhere(self, capsys):
        # --parallel is a session setting that every sweep follows, so
        # it is never reported as ignored.
        assert cli_main(["fig6", "--instructions", "20000", "--parallel"]) == 0
        captured = capsys.readouterr()
        assert "--parallel ignored" not in captured.err
        assert "gobmk" in captured.out

    def test_parallel_flag_silent_when_supported(self, capsys):
        assert cli_main(["table3", "--parallel"]) == 0
        assert "--parallel ignored" not in capsys.readouterr().err

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["cmpsweep", "--scenarios", "quantum"])
        assert "unknown sweep scenario" in capsys.readouterr().err

    def test_scenarios_flag_warns_when_unsupported(self, capsys):
        assert cli_main(["table3", "--scenarios", "paper"]) == 0
        captured = capsys.readouterr()
        assert "--scenarios ignored" in captured.err and "table3" in captured.err

    def test_run_cmpsweep_rejects_unknown_scenario_names(self):
        with pytest.raises(KeyError, match="unknown sweep scenario"):
            experiments.run_cmpsweep(
                instructions=20_000, scenario_names=["quantum"], workloads=["FT"]
            )


class TestImplicitOptionalFixes:
    def test_predictor_with_loop_defaults_to_a_loop_predictor(self):
        hybrid = PredictorWithLoop(make_predictor("gshare", "small"))
        assert isinstance(hybrid.loop, LoopPredictor)

    def test_no_implicit_optional_annotations_remain(self):
        import ast
        import pathlib

        package = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in package.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                positional = node.args.posonlyargs + node.args.args
                defaulted = positional[len(positional) - len(node.args.defaults):]
                pairs = list(zip(defaulted, node.args.defaults))
                pairs += [
                    (arg, default)
                    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if default is not None
                ]
                for arg, default in pairs:
                    if arg.annotation is None:
                        continue
                    is_none = isinstance(default, ast.Constant) and default.value is None
                    annotation = ast.unparse(arg.annotation)
                    if is_none and "Optional" not in annotation and "None" not in annotation:
                        offenders.append(
                            f"{path.name}:{node.lineno}: {node.name}({arg.arg}: {annotation} = None)"
                        )
        assert offenders == []
