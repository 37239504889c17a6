"""Design-space exploration: grids, Pareto frontiers, resumable plans.

Covers the declarative :class:`GridSpec` compiler (cross products,
constraints, CMP dedup semantics), the vectorized Pareto extraction
against a brute-force O(n^2) reference, per-axis sensitivity tables,
:meth:`Session.explore` end to end (including a >=1000-point grid
through the batched engine), chunk-level store resume, and the CLI
``explore`` subcommand.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExplorePlan, GridSpec, ParetoFrontier, Session
from repro.api.frame import ResultFrame
from repro.cli import main as cli_main
from repro.explore import (
    GRID_PRESETS,
    Axis,
    cmp_exploration_grid,
    frontend_grid,
    get_grid,
    pareto_frontier,
    pareto_mask,
    sensitivity_frame,
    sensitivity_summary,
    smoke_grid,
)
import repro.explore.plan as explore_plan
from repro.explore.plan import EXPLORE_CHUNK_EXPERIMENT
from repro.frontend.predictors import GsharePredictor, TournamentPredictor
from repro.results.store import clear_result_store, load_result, result_key
from repro.trace.instruction import CodeSection

SMALL = 20_000


class TestGridSpec:
    def test_frontend_cross_product_order_and_defaults(self):
        grid = GridSpec.frontend(
            predictor_budget=("small", "big"),
            btb_entries=(256, 2048),
        )
        points = grid.points()
        assert grid.size == 4 and len(points) == 4
        # Canonical axis order regardless of keyword order; first axis
        # is the outermost loop.
        assert grid.axis_names == ("predictor_budget", "btb_entries")
        assert [p.parameters() for p in points] == [
            {"predictor_budget": "small", "btb_entries": 256},
            {"predictor_budget": "small", "btb_entries": 2048},
            {"predictor_budget": "big", "btb_entries": 256},
            {"predictor_budget": "big", "btb_entries": 2048},
        ]
        # Unswept parameters take the baseline values.
        for point in points:
            assert point.config.icache.size_bytes == 32 * 1024
            assert point.config.predictor.kind == "tournament"
        # Point names are unique and key the batched engine results.
        assert len({p.name for p in points}) == 4
        assert all(p.name == p.config.name for p in points)

    def test_constraints_filter_before_compilation(self):
        grid = GridSpec.frontend(
            predictor_budget=("small", "big"),
            btb_entries=(256, 2048),
            constraints=(
                lambda p: p["btb_entries"] == 2048 or p["predictor_budget"] == "small",
            ),
        )
        assert [p.parameters() for p in grid.points()] == [
            {"predictor_budget": "small", "btb_entries": 256},
            {"predictor_budget": "small", "btb_entries": 2048},
            {"predictor_budget": "big", "btb_entries": 2048},
        ]

    def test_unknown_axes_and_values_are_rejected(self):
        with pytest.raises(ValueError, match="unknown front-end axis"):
            GridSpec.frontend(warp_speed=(1, 2))
        with pytest.raises(ValueError, match="unknown cmp axis"):
            GridSpec(kind="cmp", axes=(Axis("warp", (1,)),))
        with pytest.raises(ValueError, match="predictor_kind"):
            GridSpec.frontend(predictor_kind=("oracle",)).points()
        with pytest.raises(ValueError, match="no values"):
            GridSpec.frontend(btb_entries=())
        with pytest.raises(ValueError, match="duplicate"):
            GridSpec.frontend(btb_entries=(256, 256))

    def test_cmp_grid_semantics(self):
        grid = GridSpec.cmp(cores=(1, 2, 3), mixes=("asymmetric", "asymmetric++"))
        points = grid.points()
        # asymmetric needs >=2 cores; asymmetric++ at N is asymmetric at
        # N+1, so the overlap is emitted once (first occurrence wins).
        names = [p.name for p in points]
        assert len(names) == len(set(names))
        assert "1B+1T" in names and "1B+2T" in names
        # The surviving point keeps the axis values of its first
        # occurrence in l2 x cores x mix order: asymmetric++ at 2 cores
        # comes before asymmetric at 3 cores.
        first = {p.name: p.parameters() for p in points}
        assert first["1B+2T"] == {"l2_kb": 256, "cores": 2, "mix": "asymmetric++"}

    def test_presets_compile(self):
        assert len(frontend_grid().points()) == 96
        assert len(smoke_grid().points()) == 8
        assert len(cmp_exploration_grid().points()) > 40
        assert set(GRID_PRESETS) == {"frontend", "smoke", "cmp"}
        assert get_grid("smoke").name == "smoke"
        with pytest.raises(KeyError, match="unknown grid preset"):
            get_grid("galaxy")


@st.composite
def point_matrices(draw, max_rows=60, max_objectives=4):
    """(n, objectives) matrices drawn from a few values, so ties,
    duplicates, NaN and +/-inf all occur."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    objectives = draw(st.integers(min_value=1, max_value=max_objectives))
    size = rows * objectives
    cells = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    points = np.array(cells, dtype=float).reshape(rows, objectives)
    if size:
        specials = st.sampled_from((np.nan, np.inf, -np.inf))
        for cell, value in draw(
            st.lists(st.tuples(st.integers(0, size - 1), specials), max_size=4)
        ):
            points.flat[cell] = value
    return points


def brute_force_pareto(points) -> list:
    """O(n^2) reference: the definition, straight from the paper text."""
    keep = []
    for mine in points:
        dominated = False
        for other in points:
            if all(o <= m for o, m in zip(other, mine)) and any(
                o < m for o, m in zip(other, mine)
            ):
                dominated = True
                break
        keep.append(not dominated)
    return keep


class TestParetoMask:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 2), (40, 3), (120, 2), (64, 1)])
    def test_matches_brute_force_on_random_points(self, seed, shape):
        rng = np.random.default_rng(seed)
        # Low-resolution values force ties and duplicates.
        points = rng.integers(0, 5, size=shape).astype(float)
        assert pareto_mask(points).tolist() == brute_force_pareto(points.tolist())

    def test_duplicates_do_not_dominate_each_other(self):
        mask = pareto_mask([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0]])
        assert mask.tolist() == [True, True, False]

    @settings(max_examples=200, deadline=None)
    @given(point_matrices())
    def test_property_matches_brute_force(self, points):
        assert pareto_mask(points).tolist() == brute_force_pareto(points.tolist())

    @settings(max_examples=100, deadline=None)
    @given(point_matrices(max_objectives=3), st.data())
    def test_property_grouped_frontier_matches_brute_force(self, points, data):
        groups = data.draw(
            st.lists(
                st.sampled_from(("a", "b", "c")),
                min_size=len(points),
                max_size=len(points),
            )
        )
        objectives = [f"m{column}" for column in range(points.shape[1])]
        frame = ResultFrame.from_rows(
            ["group"] + objectives,
            [[group] + list(row) for group, row in zip(groups, points.tolist())],
        )
        frontier = ParetoFrontier.from_frame(frame, objectives, group_by=["group"])
        expected = [False] * len(points)
        for name in set(groups):
            indices = [i for i, group in enumerate(groups) if group == name]
            verdicts = brute_force_pareto([points[i].tolist() for i in indices])
            for index, keep in zip(indices, verdicts):
                expected[index] = keep
        assert list(frontier.mask) == expected
        assert frontier.frame.data == tuple(
            row for row, keep in zip(frame.data, expected) if keep
        )

    def test_shape_validation(self):
        assert pareto_mask(np.empty((0, 2))).tolist() == []
        with pytest.raises(ValueError, match="matrix"):
            pareto_mask([1.0, 2.0])

    def test_frontier_groups_independently(self):
        frame = ResultFrame.from_rows(
            ("workload", "cost"),
            [["a", 1.0], ["a", 2.0], ["b", 5.0], ["b", 9.0]],
        )
        grouped = ParetoFrontier.from_frame(frame, ["cost"], group_by=["workload"])
        # b's cheapest point survives even though a's points beat it.
        assert grouped.mask == (True, False, True, False)
        assert len(grouped) == 2
        ungrouped = pareto_frontier(frame, ["cost"])
        assert ungrouped.mask == (True, False, False, False)
        with pytest.raises(ValueError, match="objective"):
            ParetoFrontier.from_frame(frame, [])


class TestSensitivity:
    FRAME = ResultFrame.from_rows(
        ("budget", "btb", "mpki"),
        [
            ["small", 256, 4.0],
            ["small", 2048, 2.0],
            ["big", 256, 3.0],
            ["big", 2048, 1.0],
        ],
    )

    def test_per_axis_statistics(self):
        table = sensitivity_frame(self.FRAME, ["budget", "btb"], ["mpki"])
        assert table.columns == ("axis", "value", "metric", "mean", "min", "max")
        records = {(r["axis"], r["value"]): r for r in table.records()}
        assert records[("budget", "small")]["mean"] == pytest.approx(3.0)
        assert records[("budget", "small")]["max"] == pytest.approx(4.0)
        assert records[("btb", 2048)]["mean"] == pytest.approx(1.5)
        assert records[("btb", 2048)]["min"] == pytest.approx(1.0)

    def test_summary_spread_ranks_axes(self):
        table = sensitivity_frame(self.FRAME, ["budget", "btb"], ["mpki"])
        summary = sensitivity_summary(table)
        spreads = {r["axis"]: r["spread"] for r in summary.records()}
        # btb moves the mean by 2.0 (3.5 -> 1.5), budget only by 1.0.
        assert spreads["btb"] == pytest.approx(2.0)
        assert spreads["budget"] == pytest.approx(1.0)


class TestExplorePlan:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(
            instructions=SMALL, trace_cache_dir=None, result_cache_dir=None
        )

    def test_plan_is_declarative_and_validated(self, session):
        plan = session.explore("smoke", workloads=["FT"])
        assert isinstance(plan, ExplorePlan)
        assert plan.grid.describe()["name"] == "smoke"
        with pytest.raises(KeyError, match="unknown objective"):
            session.explore("smoke", workloads=["FT"], objectives=["latency"])
        with pytest.raises(ValueError, match="workload"):
            session.explore("smoke", workloads=[])
        with pytest.raises(TypeError, match="GridSpec"):
            session.explore(42)
        with pytest.raises(KeyError):
            session.explore("galaxy")
        # Bad values fail at declaration, before any chunk is queued.
        with pytest.raises(ValueError, match="instructions"):
            session.explore("smoke", workloads=["FT"], instructions=0)
        with pytest.raises(ValueError, match="seed"):
            session.explore("smoke", workloads=["FT"], seed=-1)
        # A cmp exploration reads its traces at the plan's seed, as a
        # front-end one does.
        assert session.explore("cmp", workloads=["FT"], seed=7).seed == 7
        with pytest.raises(ValueError, match="section"):
            session.explore("smoke", workloads=["FT"], sections=())
        with pytest.raises(TypeError, match="CodeSection"):
            session.explore("smoke", workloads=["FT"], sections=["TOTAL"])
        with pytest.raises(ValueError, match="duplicate workload"):
            session.explore("smoke", workloads=["FT", "FT"])
        with pytest.raises(ValueError, match="duplicate section"):
            session.explore(
                "smoke",
                workloads=["FT"],
                sections=(CodeSection.TOTAL, CodeSection.TOTAL),
            )
        with pytest.raises(ValueError, match="duplicate objective"):
            session.explore(
                "smoke", workloads=["FT"], objectives=["power_w", "power_w"]
            )
        with pytest.raises(TypeError, match="string"):
            session.explore("smoke", workloads=["FT"], objectives="total_mpki")
        assert session.explore(
            "smoke", workloads=["FT"], objectives=["total_mpki"]
        ).objectives == ("total_mpki",)

    def test_frontend_exploration_matches_direct_simulation(self, session):
        grid = smoke_grid()
        plan = session.explore(grid, workloads=["FT"], use_store=False)
        result = plan.result()
        frame = result.frames["grid"]
        points = grid.points()
        assert len(frame) == len(points)
        # Spot-check: the grid rows are exactly what the batched engine
        # reports for the same configs on the same trace.
        direct = session.frontend_many("FT", grid.configs(), instructions=SMALL)
        for point in points:
            row = frame.select(point=point.name).records()[0]
            reference = direct[(point.config.name, CodeSection.TOTAL)]
            assert row["branch_mpki"] == reference.branch.mpki
            assert row["btb_mpki"] == reference.btb.mpki
            assert row["icache_mpki"] == reference.icache.mpki
        # Frontier rows are a subset of grid rows, per the reference.
        objectives = plan.resolved_objectives
        matrix = [
            [record[name] for name in objectives] for record in frame.records()
        ]
        expected = brute_force_pareto(matrix)
        assert list(ParetoFrontier.from_frame(
            frame, objectives, group_by=("workload", "section")
        ).mask) == expected

    def test_plan_protocol_outcome(self, session):
        # The plan's outcome is its result: the frames and their
        # provenance.  Without a store every chunk is computed, and
        # execute() is the grid frame.
        plan = session.explore("smoke", workloads=["FT"], use_store=False)
        result = plan.result()
        assert result.points == 8
        assert result.chunks_computed == result.chunks_total > 0
        assert result.chunks_cached == 0
        assert plan.execute() == result.frames["grid"]

    def test_cmp_exploration(self, session):
        grid = GridSpec.cmp(cores=(1, 4), mixes=("baseline", "asymmetric"))
        result = session.explore(grid, workloads=["FT"], use_store=False).result()
        frame = result.frames["grid"]
        assert frame.columns == (
            "workload",
            "point",
            "l2_kb",
            "cores",
            "mix",
            "time_s",
            "power_w",
            "energy_j",
            "area_mm2",
        )
        assert len(frame) == 3  # no 1-core asymmetric chip
        baseline = frame.select(point="4B+0T").records()[0]
        asymmetric = frame.select(point="1B+3T").records()[0]
        assert asymmetric["area_mm2"] < baseline["area_mm2"]
        assert result.frames["pareto"].columns == frame.columns

    def test_thousand_point_grid_through_batched_engine(self, session):
        grid = GridSpec.frontend(
            name="dense",
            predictor_kind=("gshare", "tournament"),
            predictor_budget=("small", "big"),
            predictor_loop=(False, True),
            btb_entries=(64, 128, 256, 512, 1024, 2048),
            btb_associativity=(2, 4),
            icache_kb=(8, 16, 32),
            icache_line_bytes=(64, 128),
            icache_associativity=(2, 4),
        )
        points = grid.points()
        assert len(points) == 2 * 2 * 2 * 6 * 2 * 3 * 2 * 2 == 1152
        plan = session.explore(grid, workloads=["FT"], use_store=False)
        result = plan.result()
        frame = result.frames["grid"]
        assert len(frame) == 1152
        assert result.points == 1152
        # The frontier over the full grid matches the brute-force
        # reference definition.
        objectives = plan.resolved_objectives
        matrix = [
            [record[name] for name in objectives] for record in frame.records()
        ]
        assert [bool(k) for k in pareto_mask(matrix)] == brute_force_pareto(matrix)
        frontier = result.frames["pareto"]
        assert 0 < len(frontier) < len(frame)
        # Sensitivity covers every swept axis value.
        sensitivity = result.frames["sensitivity"]
        axis_values = {(r["axis"], r["value"]) for r in sensitivity.records()}
        assert ("btb_entries", 512) in axis_values
        assert ("icache_kb", 8) in axis_values


class TestCrossChunkSharing:
    """Chunks of one workload share the trace's simulation work."""

    #: 2 predictors x 6 BTBs (4 set counts) x 4 I-caches (3 set counts).
    GRID = GridSpec.frontend(
        name="sharing",
        predictor_kind=("gshare", "tournament"),
        btb_entries=(256, 512, 1024),
        btb_associativity=(2, 4),
        icache_kb=(8, 16),
        icache_associativity=(2, 4),
    )

    def test_chunk_size_does_not_change_the_frames(self, monkeypatch):
        session = Session(
            instructions=SMALL, trace_cache_dir=None, result_cache_dir=None
        )
        points = len(self.GRID.points())
        plan = session.explore(self.GRID, workloads=["FT", "gobmk"], use_store=False)
        results = []
        for chunk_points in (1, 64, points):
            monkeypatch.setattr(explore_plan, "CHUNK_POINTS", chunk_points)
            results.append(plan.result())
        assert [r.chunks_computed for r in results] == [2 * points, 2, 2]
        for name in ("grid", "pareto", "sensitivity"):
            assert results[0].frames[name] == results[1].frames[name]
            assert results[0].frames[name] == results[2].frames[name]

    def test_one_pass_per_set_count_and_one_run_per_predictor(self, monkeypatch):
        from collections import Counter

        from repro.frontend import simulation

        calls = {"icache": [], "btb": [], "predictor": []}

        def counted(kind, kernel, key):
            def wrapper(*args):
                calls[kind].append(key(*args))
                return kernel(*args)

            return wrapper

        monkeypatch.setattr(
            simulation,
            "line_stack_histogram",
            counted(
                "icache",
                simulation.line_stack_histogram,
                lambda starts, sizes, line_bytes, sets, depth: (line_bytes, sets),
            ),
        )
        monkeypatch.setattr(
            simulation,
            "btb_stack_histogram",
            counted(
                "btb",
                simulation.btb_stack_histogram,
                lambda addresses, targets, sets, depth: sets,
            ),
        )
        for predictor_class in (GsharePredictor, TournamentPredictor):
            monkeypatch.setattr(
                predictor_class,
                "simulate_sequence",
                counted(
                    "predictor",
                    predictor_class.simulate_sequence,
                    lambda predictor, *rest: predictor.name,
                ),
            )
        # A trace budget no other test uses: no earlier simulation has
        # filled these traces' shared histograms.
        session = Session(
            instructions=SMALL + 17,
            parallel=False,
            trace_cache_dir=None,
            result_cache_dir=None,
        )
        workloads = ["FT", "CoEVP"]
        sections = (CodeSection.SERIAL, CodeSection.PARALLEL)
        monkeypatch.setattr(explore_plan, "CHUNK_POINTS", 5)
        result = session.explore(
            self.GRID,
            workloads=workloads,
            sections=sections,
            use_store=False,
        ).result()
        assert result.chunks_computed == len(workloads) * 10

        configs = self.GRID.configs()
        runs = len(workloads) * len(sections)
        icache_sets = {
            (c.icache.line_bytes, c.icache.build().num_sets) for c in configs
        }
        btb_sets = {c.btb.build().sets for c in configs}
        predictors = {c.predictor.build().name for c in configs}
        assert (len(icache_sets), len(btb_sets), len(predictors)) == (3, 4, 2)
        assert Counter(calls["icache"]) == {key: runs for key in icache_sets}
        assert Counter(calls["btb"]) == {key: runs for key in btb_sets}
        assert Counter(calls["predictor"]) == {key: runs for key in predictors}

    def test_assembly_builds_each_predictor_config_at_most_once(self, monkeypatch):
        from collections import Counter

        from repro.frontend.configs import BranchPredictorConfig

        session = Session(
            instructions=SMALL, trace_cache_dir=None, result_cache_dir=None
        )
        plan = session.explore(self.GRID, workloads=["FT"], use_store=False)
        first = plan.result()
        # The chunks of a second result are answered from the trace's
        # memoized passes, so every predictor built now is assembly's.
        builds = Counter()
        build = BranchPredictorConfig.build

        def counted(config):
            builds[config] += 1
            return build(config)

        monkeypatch.setattr(BranchPredictorConfig, "build", counted)
        second = plan.result()
        configs = {config.predictor for config in self.GRID.configs()}
        assert len(self.GRID.points()) == 24 * len(configs)
        assert set(builds) <= configs
        assert all(count == 1 for count in builds.values())
        for name in ("grid", "pareto", "sensitivity"):
            assert second.frames[name] == first.frames[name]


class TestExploreResume:
    def _session(self, tmp_path):
        return Session(
            instructions=SMALL,
            trace_cache_dir=None,
            result_cache_dir=str(tmp_path / "results"),
        )

    def test_warm_rerun_is_served_from_store(self, tmp_path, monkeypatch):
        clear_result_store()  # hermetic: drop entries leaked by other tests
        monkeypatch.setattr(explore_plan, "CHUNK_POINTS", 3)
        session = self._session(tmp_path)
        plan = session.explore("smoke", workloads=["FT", "gobmk"])
        cold = plan.result()
        assert (cold.chunks_cached, cold.chunks_computed) == (0, 6)
        clear_result_store()  # drop the in-memory layer: disk must serve
        warm = plan.result()
        assert (warm.chunks_cached, warm.chunks_computed) == (6, 0)
        for name in ("grid", "pareto", "sensitivity"):
            assert warm.frames[name] == cold.frames[name]

    def test_interrupted_exploration_replays_only_missing_chunks(
        self, tmp_path, monkeypatch
    ):
        clear_result_store()  # hermetic: drop entries leaked by other tests
        monkeypatch.setattr(explore_plan, "CHUNK_POINTS", 2)
        session = self._session(tmp_path)
        plan = session.explore("smoke", workloads=["FT"])
        cold = plan.result()
        assert cold.chunks_total == 4
        # Simulate an interruption that lost part of the store: delete
        # two chunk entries from disk.
        entries = sorted((tmp_path / "results").rglob("*.json"))
        assert len(entries) == 4
        for entry in entries[:2]:
            entry.unlink()
        clear_result_store()
        resumed = plan.result()
        assert resumed.chunks_cached == 2
        assert resumed.chunks_computed == 2
        assert resumed.frames["grid"] == cold.frames["grid"]

    def test_chunks_are_stored_under_their_chunk_key(self, tmp_path, monkeypatch):
        clear_result_store()  # hermetic: drop entries leaked by other tests
        monkeypatch.setattr(explore_plan, "CHUNK_POINTS", 3)
        session = self._session(tmp_path)
        plan = session.explore("smoke", workloads=["FT", "gobmk"])
        plan.result()
        points = plan.grid.points()
        for spec in plan.workloads:
            for start in range(0, len(points), 3):
                chunk = points[start : start + 3]
                # The key is the chunk's full configuration material.
                key = result_key(
                    EXPLORE_CHUNK_EXPERIMENT,
                    {
                        "grid_kind": "frontend",
                        "points": [dataclasses.asdict(p.config) for p in chunk],
                        "sections": ["TOTAL"],
                        "instructions": SMALL,
                    },
                    [spec.name],
                    seed=0,
                )
                assert plan.chunk_key(spec, chunk) == key
                assert load_result(key, EXPLORE_CHUNK_EXPERIMENT) is not None

    def test_store_disabled_always_computes(self, tmp_path, monkeypatch):
        session = self._session(tmp_path)
        monkeypatch.setattr(explore_plan, "CHUNK_POINTS", 4)
        plan = session.explore("smoke", workloads=["FT"], use_store=False)
        keyed = []
        monkeypatch.setattr(
            "repro.results.store.result_key", lambda *args, **kw: keyed.append(args)
        )
        first = plan.result()
        second = plan.result()
        assert first.chunks_computed == second.chunks_computed == 2
        assert not list((tmp_path / "results").rglob("*.json"))
        assert keyed == []  # Without a store no chunk is keyed.


class TestExploreCli:
    def test_explore_smoke_cold_then_warm_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "store"))
        clear_result_store()
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        run = ["explore-smoke", "--smoke", "--strict", "--out"]
        assert cli_main(run + [str(cold_dir)]) == 0
        clear_result_store()
        assert cli_main(run + [str(warm_dir)]) == 0
        for name in ("explore-smoke.csv", "explore-smoke.json"):
            assert (cold_dir / name).read_bytes() == (warm_dir / name).read_bytes()
        cold_manifest = json.loads((cold_dir / "manifest.json").read_text())
        warm_manifest = json.loads((warm_dir / "manifest.json").read_text())
        assert set(cold_manifest["experiments"]) == {"explore-smoke"}
        assert cold_manifest["experiments"]["explore-smoke"]["status"] == "computed"
        assert warm_manifest["experiments"]["explore-smoke"]["status"] == "cached"
        payload = json.loads((cold_dir / "explore-smoke.json").read_text())
        assert payload["experiment"] == "explore-smoke"
        titles = [table["title"] for table in payload["tables"]]
        assert any("Pareto frontier" in title for title in titles)
        assert any("sensitivity" in title for title in titles)

    def test_explore_is_not_a_subcommand_and_presets_reject_scenarios(self, capsys):
        # The registered explore-<preset> experiments are the one CLI
        # spelling of an exploration.
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["explore", "--smoke"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        for preset in ("explore-cmp", "explore-frontend", "explore-smoke"):
            assert preset in err
        rc = cli_main(["explore-smoke", "--scenarios", "paper", "--strict"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--scenarios" in err
