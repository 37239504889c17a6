"""The Session/Plan/ResultFrame layer and its legacy-shim equivalence."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import counters
from repro.api import ResultFrame, RuntimeConfig, Session, current_session, default_session
from repro.experiments import run_fig06
from repro.frontend.configs import BASELINE_FRONTEND, TAILORED_FRONTEND
from repro.frontend.simulation import simulate_frontend, simulate_frontend_many
from repro.results.artifacts import write_artifact_csv
from repro.trace.instruction import CodeSection
from repro.uarch.core import BASELINE_CORE, TAILORED_CORE
from repro.uarch.simulator import profile_workload_frontend
from repro.workloads import build_workload, get_workload
from repro.workloads.trace_cache import clear_trace_cache, workload_trace

INSTRUCTIONS = 30_000


def _artifact(*tables):
    """A literal stored (v2) artifact holding ``tables`` and no frames."""
    return {
        "schema": 2,
        "experiment": "t",
        "title": "T",
        "tables": list(tables),
        "primary": None,
        "frames": {},
        "payload": [],
    }


def _table(headers, rows, name=None):
    return {"title": None, "name": name, "headers": headers, "rows": rows}


class TestResultFrame:
    def test_named_columns_and_rows(self):
        frame = ResultFrame.from_rows(
            ["workload", "mpki"], [["FT", 1.5], ["LU", 2.5]]
        )
        assert len(frame) == 2
        assert frame.column("workload") == ["FT", "LU"]
        assert frame.column("mpki") == [1.5, 2.5]
        assert frame.rows() == [("FT", 1.5), ("LU", 2.5)]
        assert frame.records()[0] == {"workload": "FT", "mpki": 1.5}
        with pytest.raises(KeyError):
            frame.column("nope")

    def test_row_width_is_validated(self):
        with pytest.raises(ValueError):
            ResultFrame.from_rows(["a", "b"], [["only-one"]])

    def test_duplicate_columns_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate column"):
            ResultFrame.from_rows(["a", "a"], [[1, 2]])

    def test_select_unknown_column_names_the_frame_columns(self):
        frame = ResultFrame.from_rows(["config"], [["tailored"]])
        with pytest.raises(KeyError, match="frame has config"):
            frame.select(confg="tailored")

    def test_select(self):
        frame = ResultFrame.from_rows(
            ["config", "v"], [["base", 1], ["tail", 2], ["base", 3]]
        )
        picked = frame.select(config="base")
        assert picked.column("v") == [1, 3]

    def test_csv_and_json_roundtrip(self, tmp_path):
        frame = ResultFrame.from_rows(["a", "b"], [["x", 1], ["y", 2]])
        text = frame.to_csv()
        assert text.splitlines() == ["a,b", "x,1", "y,2"]
        path = tmp_path / "frame.csv"
        frame.to_csv(str(path))
        assert path.read_bytes() == text.encode()
        payload = frame.to_json()
        assert '"columns"' in payload and '"rows"' in payload

    def test_artifact_csv_bytes_match_legacy_writer(self, tmp_path):
        """write_artifact_csv emits the historical bytes (CRLF per the
        csv module): a plain table, one shared header for blocks that
        agree on it, and a header per block otherwise."""
        single = _artifact(_table(["h1", "h2"], [["a", "b"], ["c", "d"]]))
        multi_shared = _artifact(
            _table(["h"], [["1"]], name="one"), _table(["h"], [["2"]], name="two")
        )
        multi_mixed = _artifact(
            _table(["h"], [["1"]], name="one"),
            _table(["g", "gg"], [["2", "3"]], name="two"),
        )
        for artifact, expected in (
            (single, b"h1,h2\r\na,b\r\nc,d\r\n"),
            (multi_shared, b"table,h\r\none,1\r\ntwo,2\r\n"),
            (multi_mixed, b"table,h\r\none,1\r\ntable,g,gg\r\ntwo,2,3\r\n"),
        ):
            path = tmp_path / "artifact.csv"
            write_artifact_csv(artifact, str(path))
            assert path.read_bytes() == expected


class TestSessionConfig:
    def test_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "111")
        session = Session(instructions=222)
        assert session.config.instructions == 222

    def test_config_object_plus_overrides(self):
        base = RuntimeConfig(instructions=10, parallel=True)
        session = Session(base, instructions=20)
        assert session.config.instructions == 20
        assert session.config.parallel is True

    def test_default_session_is_the_process_snapshot(self, monkeypatch):
        """current_config() and the default session resolve REPRO_*
        once; only a new Session() sees a later environment change."""
        from repro.api import runtime_config as rc

        snapshot = rc.current_config()
        assert default_session().config is snapshot
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "777")
        assert rc.current_config() is snapshot
        assert default_session().config is snapshot
        assert snapshot.instructions != 777
        assert Session().config.instructions == 777

    def test_non_positive_budget_is_rejected_at_construction(self, monkeypatch):
        # A typed error here, not a SweepError from every sweep item later.
        for budget in (0, -5):
            with pytest.raises(ValueError, match="instructions"):
                Session(instructions=budget)
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "0")
        assert Session().config.instructions == RuntimeConfig().instructions

    def test_current_session_tracks_activation(self):
        session = Session(instructions=INSTRUCTIONS)
        assert current_session() is default_session()
        with session.activate():
            assert current_session() is session
        assert current_session() is default_session()

    def test_cache_namespace_isolates_concurrent_sessions_on_disk(self, tmp_path):
        """Two namespaced sessions sharing cache roots never collide:
        the trace cache and the result store each land in a per-
        namespace subdirectory."""
        from repro.results.store import clear_result_store, store_result

        traces_root = tmp_path / "traces"
        results_root = tmp_path / "results"
        written = {}
        for namespace in ("alpha", "beta"):
            clear_trace_cache()
            clear_result_store()
            session = Session(
                instructions=INSTRUCTIONS,
                trace_cache_dir=str(traces_root),
                result_cache_dir=str(results_root),
                cache_namespace=namespace,
            )
            assert session.config.cache_namespace == namespace
            with session.activate():
                workload_trace(get_workload("FT"), INSTRUCTIONS)
                store_result("0" * 64, {"schema": 1, "payload": {}, "tables": []})
            written[namespace] = {
                "traces": sorted(p.name for p in (traces_root / namespace).iterdir()),
                "results": sorted(
                    p.name for p in (results_root / namespace).iterdir()
                ),
            }
        clear_trace_cache()
        clear_result_store()
        for namespace, files in written.items():
            assert files["traces"], namespace
            assert files["results"], namespace
        # Nothing leaked into the shared roots themselves.
        assert sorted(p.name for p in traces_root.iterdir()) == ["alpha", "beta"]
        assert sorted(p.name for p in results_root.iterdir()) == ["alpha", "beta"]


class TestSessionPipeline:
    def test_omitted_instructions_resolve_through_the_session(self):
        """workload_trace(spec) with no budget honours the active session."""
        clear_trace_cache()
        session = Session(instructions=INSTRUCTIONS)
        with session.activate():
            trace = workload_trace(get_workload("FT"))
        assert trace.instruction_count() >= INSTRUCTIONS
        assert trace.instruction_count() < 2 * INSTRUCTIONS
        clear_trace_cache()

    def test_trace_matches_legacy_entry_point(self):
        session = Session(instructions=INSTRUCTIONS)
        trace = session.trace("FT")
        legacy = workload_trace(get_workload("FT"), INSTRUCTIONS)
        assert np.array_equal(trace.block_ids, legacy.block_ids)
        assert np.array_equal(trace.taken_column, legacy.taken_column)

    def test_session_trace_matches_the_reference_generator(self):
        from repro.trace import TraceGenerator
        from repro.workloads import build_workload

        clear_trace_cache()
        compiled = Session(instructions=INSTRUCTIONS).trace("CoMD")
        clear_trace_cache()
        workload = build_workload(get_workload("CoMD"))
        reference = TraceGenerator(
            workload.program, workload.schedule, seed=workload.spec.seed
        ).run(INSTRUCTIONS, name="CoMD")
        assert np.array_equal(compiled.block_ids, reference.block_ids)
        assert np.array_equal(compiled.taken_column, reference.taken_column)
        assert np.array_equal(compiled.target_column, reference.target_column)

    def test_frontend_matches_direct_simulation(self):
        session = Session(instructions=INSTRUCTIONS)
        result = session.frontend("FT", BASELINE_FRONTEND)
        direct = simulate_frontend(session.trace("FT"), BASELINE_FRONTEND)
        assert result.branch.mispredictions == direct.branch.mispredictions
        assert result.btb.misses == direct.btb.misses
        assert result.icache.misses == direct.icache.misses

    def test_sweep_plan_is_bit_identical_to_per_config_simulation(self):
        session = Session(instructions=INSTRUCTIONS)
        plan = session.sweep(
            workloads=["FT", "gobmk"],
            sections=(CodeSection.TOTAL,),
        )
        frame = plan.execute()
        assert frame.columns == (
            "workload",
            "suite",
            "section",
            "config",
            "branch_mpki",
            "btb_mpki",
            "icache_mpki",
        )
        assert len(frame) == 4  # 2 workloads x 1 section x 2 configs
        for name in ("FT", "gobmk"):
            trace = session.trace(name)
            for config in (BASELINE_FRONTEND, TAILORED_FRONTEND):
                direct = simulate_frontend(trace, config, CodeSection.TOTAL)
                row = frame.select(workload=name, config=config.name)
                assert row.column("branch_mpki") == [direct.branch.mpki]
                assert row.column("btb_mpki") == [direct.btb.mpki]
                assert row.column("icache_mpki") == [direct.icache.mpki]

    def test_sweep_rejects_duplicate_config_names(self):
        session = Session(instructions=INSTRUCTIONS)
        from dataclasses import replace

        clashing = replace(TAILORED_FRONTEND, name=BASELINE_FRONTEND.name)
        with pytest.raises(ValueError, match="duplicate front-end config name"):
            session.sweep(workloads=["FT"], configs=[BASELINE_FRONTEND, clashing])

    def test_sweep_rejects_unknown_metrics(self):
        session = Session(instructions=INSTRUCTIONS)
        with pytest.raises(KeyError, match="unknown sweep metric"):
            session.sweep(workloads=["FT"], metrics=["mpki_per_parsec"])

    def test_sweep_plan_describe(self):
        session = Session(instructions=INSTRUCTIONS)
        description = session.sweep(workloads=["FT"]).describe()
        assert description["kind"] == "frontend-sweep"
        assert description["workloads"] == ["FT"]
        assert description["instructions"] == INSTRUCTIONS
        assert description["runtime"]["instructions"] == INSTRUCTIONS

    def test_experiment_plan_matches_direct_driver(self):
        """A single-experiment execute() is frame(): the driver's
        primary frame after the stored artifact's JSON round trip."""
        plan = Session(instructions=INSTRUCTIONS).experiment("fig6", use_store=False)
        frame = plan.execute()
        assert frame == plan.frame()
        direct = run_fig06(instructions=INSTRUCTIONS)
        stored = json.loads(json.dumps(direct.serialized_frames()[direct.PRIMARY]))
        assert frame == ResultFrame.from_payload(stored)
        assert frame.columns[:2] == ("workload", "config")

    def test_experiment_plan_execute_returns_frame(self):
        session = Session(instructions=INSTRUCTIONS)
        frame = session.experiment("table3", use_store=False).execute()
        assert "core" in frame.columns
        assert len(frame) > 0

    def test_multi_experiment_execute_raises_and_points_at_report(self):
        plan = Session(instructions=INSTRUCTIONS).experiments(
            ["table2", "table3"], use_store=False
        )
        with pytest.raises(ValueError, match=r"\(table2, table3\).*report\(\)"):
            plan.execute()

    def test_parallel_sweep_primes_the_plan_seed(self, tmp_path):
        """A non-zero-seed parallel sweep primes seed-N traces, not seed-0."""
        import os

        clear_trace_cache()
        session = Session(
            instructions=INSTRUCTIONS,
            parallel=True,
            processes=2,
            trace_cache_dir=str(tmp_path),
        )
        session.sweep(workloads=["FT", "LU"], seed=2).execute()
        cached = sorted(os.listdir(tmp_path))
        assert cached == [f"FT-{INSTRUCTIONS}-2.npz", f"LU-{INSTRUCTIONS}-2.npz"]
        clear_trace_cache()

    def test_priming_pool_gets_only_traces_this_process_lacks(
        self, monkeypatch, tmp_path
    ):
        """A trace held in memory under another directory is written by
        the parent, not synthesized again by the priming pool."""
        from repro.api import session as session_module

        pooled = []

        def recording_map(function, items, processes=None):
            pooled.extend(spec.name for _, spec, _, _ in items)
            return [function(item) for item in items]

        monkeypatch.setattr(session_module, "parallel_map", recording_map)
        clear_trace_cache()
        Session(instructions=INSTRUCTIONS, trace_cache_dir=str(tmp_path / "a")).trace("FT")
        session = Session(instructions=INSTRUCTIONS, trace_cache_dir=str(tmp_path / "b"))
        keys = [(get_workload(name), INSTRUCTIONS, 0) for name in ("FT", "LU", "CG")]
        with session.activate():
            session_module._prime_shared_traces(keys, session.config)
        assert sorted(pooled) == ["CG", "LU"]
        assert sorted(os.listdir(tmp_path / "b")) == [
            f"{name}-{INSTRUCTIONS}-0.npz" for name in ("CG", "FT", "LU")
        ]
        clear_trace_cache()

    def test_driver_honours_active_session_budget(self):
        """run_fig06() under an activated session uses its budget, like
        session.experiment('fig6') does."""
        session = Session(instructions=INSTRUCTIONS)
        with session.activate():
            direct = run_fig06()
        assert direct.instructions == INSTRUCTIONS

    def test_disabled_trace_cache_keeps_parallel_sweeps_off_disk(
        self, monkeypatch, tmp_path
    ):
        """A parallel session whose trace cache is disabled writes no
        trace anywhere, the per-user directory included."""
        import os

        import repro.api.runtime_config as rc_module

        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        clear_trace_cache()
        session = Session(
            instructions=INSTRUCTIONS,
            parallel=True,
            processes=2,
            trace_cache_dir=None,
        )
        specs = [get_workload("FT"), get_workload("LU")]
        arguments = [(spec, INSTRUCTIONS) for spec in specs]
        assert session.map(_shim_worker, arguments) == [
            _shim_worker(args) for args in arguments
        ]
        assert not os.path.exists(rc_module.default_trace_cache_dir())
        assert os.listdir(tmp_path) == []
        clear_trace_cache()

    def test_parallel_session_does_not_leak_environment(self, monkeypatch, tmp_path):
        import os

        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        session = Session(
            instructions=INSTRUCTIONS,
            parallel=True,
            processes=2,
            trace_cache_dir=str(tmp_path),
        )
        session.sweep(workloads=["FT", "LU"]).execute()
        assert os.environ.get("REPRO_TRACE_CACHE_DIR") is None

    def test_session_parallel_matches_serial(self):
        serial = Session(instructions=INSTRUCTIONS).sweep(
            workloads=["FT", "LU", "CoMD"]
        ).execute()
        parallel = Session(
            instructions=INSTRUCTIONS,
            parallel=True,
            processes=2,
            trace_cache_dir=None,
        ).sweep(workloads=["FT", "LU", "CoMD"]).execute()
        assert serial.rows() == parallel.rows()


def _trace_dirs_seen(_args):
    """Worker: the trace directory a queue worker resolves, and the
    directory and namespace its environment holds."""
    from repro.api.runtime_config import current_trace_cache_dir

    return (
        current_trace_cache_dir(),
        os.environ.get("REPRO_TRACE_CACHE_DIR"),
        os.environ.get("REPRO_CACHE_NAMESPACE"),
    )


class TestWorkersRunUnderTheSessionConfig:
    """Queue and priming workers receive the sweep's config as an object.

    A fork server keeps the environment it started with, so a worker
    that resolved its cache directories from the environment would
    follow the first parallel session of its process forever.
    """

    CHILD = textwrap.dedent(
        """
        import multiprocessing, os, sys

        from repro.api import Session

        multiprocessing.set_start_method("forkserver")
        root, case = sys.argv[1], sys.argv[2]

        def sweep(names, **caches):
            Session(
                instructions=20_000,
                parallel=True,
                processes=2,
                result_cache_dir=None,
                **caches,
            ).sweep(workloads=names).execute()

        if case == "directories":
            sweep(["FT", "LU"], trace_cache_dir=os.path.join(root, "a"))
            sweep(["CG", "MG"], trace_cache_dir=os.path.join(root, "b"))
        else:
            shared = os.path.join(root, "shared")
            sweep(["FT", "LU"], trace_cache_dir=shared, cache_namespace="alpha")
            sweep(["CG", "MG"], trace_cache_dir=shared, cache_namespace="beta")
        """
    )

    #: Per case, the trace directories of the first and second session.
    DIRECTORIES = {
        "directories": (("a",), ("b",)),
        "namespaces": (("shared", "alpha"), ("shared", "beta")),
    }

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs the forkserver start method",
    )
    @pytest.mark.parametrize("case", sorted(DIRECTORIES))
    def test_forkserver_workers_follow_each_session(self, case, tmp_path):
        env = {
            name: value
            for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["XDG_CACHE_HOME"] = str(tmp_path / "xdg")
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(tmp_path), case],
            env=env,
            timeout=300,
            capture_output=True,
            text=True,
        )
        assert child.returncode == 0, child.stderr

        def traces(parts):
            names = os.listdir(tmp_path.joinpath(*parts))
            return sorted(name for name in names if name.endswith(".npz"))

        first, second = self.DIRECTORIES[case]
        assert (traces(first), traces(second)) == (
            ["FT-20000-0.npz", "LU-20000-0.npz"],
            ["CG-20000-0.npz", "MG-20000-0.npz"],
        )
        assert not (tmp_path / "xdg").exists()

    def test_queue_workers_get_the_config_not_an_environment_export(self, tmp_path):
        session = Session(
            parallel=True,
            processes=2,
            trace_cache_dir=str(tmp_path / "traces"),
            cache_namespace="ns",
            result_cache_dir=None,
        )
        seen = session.map(_trace_dirs_seen, list(range(4)))
        expected = os.path.join(str(tmp_path / "traces"), "ns")
        assert [resolved for resolved, _, _ in seen] == [expected] * 4
        # Nothing of this session reached the workers' environment.
        for _, directory, namespace in seen:
            assert str(tmp_path) not in (directory or "")
            assert namespace != ""

    def test_priming_worker_stores_under_the_config_it_is_handed(self, tmp_path):
        from repro.api.runtime_config import activated
        from repro.api.session import _prime_worker

        handed = RuntimeConfig(trace_cache_dir=str(tmp_path), cache_namespace="ns")
        clear_trace_cache()
        # The caller's own config keeps traces off disk; the handed one
        # decides where the primed trace goes.
        with activated(RuntimeConfig(trace_cache_dir=None)):
            _prime_worker((handed, get_workload("FT"), INSTRUCTIONS, 0))
        assert os.listdir(tmp_path) == ["ns"]
        assert os.listdir(tmp_path / "ns") == [f"FT-{INSTRUCTIONS}-0.npz"]
        clear_trace_cache()


class TestCliSession:
    def test_cli_honours_runtime_environment_variables(self, monkeypatch):
        """Omitted CLI flags fall through to REPRO_* (flags > env > default)."""
        import repro.cli as cli
        from repro.api import session as session_module

        monkeypatch.setenv("REPRO_PARALLEL", "1")
        monkeypatch.setenv("REPRO_PROCESSES", "2")
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "15000")
        captured = {}
        original = session_module.Session

        class Probe(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.setdefault("config", self.config)

        monkeypatch.setattr(session_module, "Session", Probe)
        assert cli.main(["table3"]) == 0
        config = captured["config"]
        assert config.parallel is True
        assert config.processes == 2
        assert config.instructions == 15000

    def test_cli_flags_beat_environment(self, monkeypatch, capsys):
        import repro.cli as cli
        from repro.api import session as session_module

        monkeypatch.setenv("REPRO_INSTRUCTIONS", "15000")
        captured = {}
        original = session_module.Session

        class Probe(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.setdefault("config", self.config)

        monkeypatch.setattr(session_module, "Session", Probe)
        assert cli.main(["fig6", "--instructions", "20000"]) == 0
        assert captured["config"].instructions == 20000

    def test_cli_run_defaults_the_per_user_result_store(self, monkeypatch, tmp_path):
        """An unset REPRO_RESULT_CACHE_DIR becomes the per-user store in
        the CLI's one session; the trace cache keeps its own setting."""
        import repro.cli as cli
        from repro.api import runtime_config as rc
        from repro.api import session as session_module

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.delenv(rc.RESULT_CACHE_DIR_VARIABLE, raising=False)
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, "none")
        captured = {}
        original = session_module.Session

        class Probe(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.setdefault("config", self.config)

        monkeypatch.setattr(session_module, "Session", Probe)
        assert cli.main(["table3", "--instructions", "6000"]) == 0
        assert captured["config"].result_cache_dir == rc.default_result_cache_dir()
        assert captured["config"].trace_cache_dir is None

    @staticmethod
    def _run_worker(monkeypatch, tmp_path):
        """Run ``repro-frontend worker`` with ``serve_queue`` replaced by
        a probe; return what the probe saw."""
        import repro.cli as cli
        from repro.api import runtime_config as rc
        from repro.exec import queue as queue_module

        seen = {}

        def probe(queue_dir, max_idle=30.0, poll=0.2):
            seen["queue_dir"] = queue_dir
            seen["config"] = rc.current_config()
            seen["session"] = current_session()
            counters = ("completed", "reclaims", "duplicates", "conflicts", "poisoned")
            return dict.fromkeys(counters, 0)

        monkeypatch.setattr(queue_module, "serve_queue", probe)
        queue_dir = str(tmp_path / "queue")
        assert cli.main(["worker", "--queue-dir", queue_dir, "--max-idle", "0"]) == 0
        assert seen["queue_dir"] == queue_dir == seen["config"].queue_dir
        assert seen["session"].config is seen["config"]
        return seen["config"]

    def test_worker_serves_under_both_shared_cache_defaults(
        self, monkeypatch, tmp_path
    ):
        from repro.api import runtime_config as rc

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.delenv(rc.TRACE_CACHE_DIR_VARIABLE, raising=False)
        monkeypatch.delenv(rc.RESULT_CACHE_DIR_VARIABLE, raising=False)
        config = self._run_worker(monkeypatch, tmp_path)
        assert config.trace_cache_dir == rc.default_trace_cache_dir()
        assert config.result_cache_dir == rc.default_result_cache_dir()

    def test_worker_keeps_cache_settings_the_environment_names(
        self, monkeypatch, tmp_path
    ):
        from repro.api import runtime_config as rc

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, "none")
        monkeypatch.setenv(rc.RESULT_CACHE_DIR_VARIABLE, str(tmp_path / "results"))
        config = self._run_worker(monkeypatch, tmp_path)
        assert config.trace_cache_dir is None
        assert config.result_cache_dir == str(tmp_path / "results")


class TestLegacyShimsRemoved:
    def test_common_no_longer_exports_sweep_shims(self):
        """The deprecation cycle is complete: the shims are gone."""
        import repro.experiments.common as common

        assert not hasattr(common, "run_sweep")
        assert not hasattr(common, "workload_trace")
        assert "run_sweep" not in common.__all__
        assert "workload_trace" not in common.__all__

    def test_session_map_covers_the_old_run_sweep_contract(self):
        """Session.map is the replacement: serial == parallel rows."""
        specs = [get_workload("FT"), get_workload("LU")]
        arguments = [(spec, INSTRUCTIONS) for spec in specs]
        serial = default_session().map(_shim_worker, arguments)
        with Session(parallel=True, processes=2).activate() as parallel_session:
            parallel = parallel_session.map(_shim_worker, arguments)
        assert serial == [_shim_worker(args) for args in arguments]
        assert serial == parallel


class TestCounterRegistry:
    def test_redeclaring_a_group_replaces_it(self):
        first = counters.Counters("api-test-group", ("value",))
        first.add("value")
        second = counters.Counters("api-test-group", ("value",))
        second.add("value", 2)
        try:
            # One name, one snapshot: the second declaration's.
            assert counters.snapshot()["api-test-group"] == {"value": 2}
        finally:
            counters._GROUPS.pop("api-test-group", None)


def _changed_ft():
    """FT at half its parallel branch fraction, still named ``FT``."""
    ft = get_workload("FT")
    return dataclasses.replace(
        ft,
        parallel=dataclasses.replace(
            ft.parallel, branch_fraction=ft.parallel.branch_fraction * 0.5
        ),
    )


class TestSpecKeyedCaches:
    """A changed spec under a catalog name never gets the catalog entry."""

    def test_session_trace_of_a_changed_spec(self):
        session = Session(instructions=20_000, trace_cache_dir=None)
        session.trace("FT")
        changed = _changed_ft()
        trace = session.trace(changed)
        fresh = build_workload(changed).trace(20_000)
        for column in ("block_ids", "taken_column", "target_column", "section_column"):
            assert np.array_equal(getattr(trace, column), getattr(fresh, column)), column

    def test_profile_of_a_changed_spec(self):
        original = profile_workload_frontend(get_workload("FT"), 20_000)
        changed = _changed_ft()
        profile = profile_workload_frontend(changed, 20_000)
        assert profile is not original
        assert profile.results != original.results
        expected = simulate_frontend_many(
            build_workload(changed).trace(20_000),
            [core.frontend for core in (BASELINE_CORE, TAILORED_CORE)],
            [CodeSection.SERIAL, CodeSection.PARALLEL],
        )
        assert profile.results == expected


def _shim_worker(args):
    spec, instructions = args
    trace = workload_trace(spec, instructions)
    return (spec.name, int(trace.block_ids.shape[0]))
