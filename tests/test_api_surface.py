"""API-surface snapshot: the public shape of ``repro.api`` is pinned.

These tests fail when the public surface changes *silently*: growing
``__all__``, renaming a Session method, changing a signature, or
breaking the README quickstart.  Intentional API changes update the
snapshots here in the same commit.
"""

from __future__ import annotations

import inspect
import pathlib

import repro.api
from repro.api import ResultFrame, RuntimeConfig, Session
from repro.api.plan import ExperimentPlan, FrontendSweepPlan
from repro.api.runtime_config import ENVIRONMENT_VARIABLES
from repro.explore.grid import GridSpec
from repro.explore.pareto import ParetoFrontier
from repro.explore.plan import ExplorePlan

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


class TestPublicSurface:
    def test_all_is_pinned(self):
        assert repro.api.__all__ == [
            "ENVIRONMENT_VARIABLES",
            "ExperimentPlan",
            "ExplorePlan",
            "FrontendSweepPlan",
            "GridSpec",
            "ParetoFrontier",
            "ResultFrame",
            "RuntimeConfig",
            "Session",
            "current_session",
        ]

    def test_every_export_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_environment_variables_are_pinned(self):
        assert ENVIRONMENT_VARIABLES == (
            "REPRO_TRACE_CACHE_DIR",
            "REPRO_RESULT_CACHE_DIR",
            "REPRO_PARALLEL",
            "REPRO_PROCESSES",
            "REPRO_INSTRUCTIONS",
            "REPRO_RETRIES",
            "REPRO_FAULT_PLAN",
            "REPRO_QUEUE_DIR",
            "REPRO_LEASE_TTL",
            "REPRO_SERVE_HOST",
            "REPRO_SERVE_PORT",
        )

    def test_runtime_config_fields_are_pinned(self):
        assert [
            (field.name, field.default)
            for field in RuntimeConfig.__dataclass_fields__.values()
        ] == [
            ("trace_cache_dir", None),
            ("result_cache_dir", None),
            ("parallel", False),
            ("processes", None),
            ("instructions", 150_000),
            ("retries", 2),
            ("fault_plan", None),
            ("queue_dir", None),
            ("lease_ttl", 30.0),
            ("serve_host", "127.0.0.1"),
            ("serve_port", 8757),
        ]

    def test_executors_and_result_key_are_pinned(self):
        from repro.api import runtime_config
        from repro.exec import QueueExecutor, SerialExecutor
        from repro.results.store import result_key

        # The session's ``parallel`` setting picks the executor; there
        # is no executor knob to name one.
        assert not hasattr(runtime_config, "EXECUTORS")
        assert (SerialExecutor.name, QueueExecutor.name) == ("serial", "queue")
        assert list(inspect.signature(result_key).parameters) == [
            "experiment",
            "config",
            "workloads",
            "seed",
        ]

    def test_only_runtime_config_reads_the_environment(self):
        # REPRO_* is resolved once per Session or per process; no other
        # module may consult the process environment behind its back.
        package = pathlib.Path(repro.api.__file__).resolve().parent.parent
        readers = sorted(
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            if any(
                needle in path.read_text(encoding="utf-8")
                for needle in ("os.environ", "getenv(")
            )
        )
        assert readers == ["api/runtime_config.py"]

    def test_session_method_signatures(self):
        def parameters(callable_):
            return list(inspect.signature(callable_).parameters)

        assert parameters(Session.__init__) == ["self", "config", "overrides"]
        assert parameters(Session.sweep) == [
            "self",
            "workloads",
            "configs",
            "metrics",
            "sections",
            "instructions",
            "seed",
        ]
        assert parameters(Session.experiments) == [
            "self",
            "names",
            "scenario_names",
            "instructions",
        ]
        assert parameters(Session.map) == ["self", "worker", "arguments"]
        assert parameters(Session.map_report) == parameters(Session.map)
        assert parameters(Session.trace) == [
            "self",
            "workload",
            "instructions",
            "seed",
        ]
        assert parameters(Session.explore) == [
            "self",
            "grid",
            "workloads",
            "sections",
            "instructions",
            "seed",
            "objectives",
            "use_store",
        ]

    def test_grid_spec_signatures(self):
        def parameters(callable_):
            return list(inspect.signature(callable_).parameters)

        assert parameters(GridSpec.frontend) == ["name", "constraints", "axes"]
        assert parameters(GridSpec.cmp) == [
            "cores",
            "mixes",
            "l2_kb",
            "name",
            "constraints",
        ]
        assert parameters(ParetoFrontier.from_frame) == [
            "frame",
            "objectives",
            "group_by",
        ]

    def test_plan_and_frame_shapes(self):
        assert set(FrontendSweepPlan.__dataclass_fields__) == {
            "session",
            "workloads",
            "configs",
            "sections",
            "metrics",
            "instructions",
            "seed",
        }
        assert set(ExperimentPlan.__dataclass_fields__) == {
            "session",
            "names",
            "scenario_names",
            "instructions",
        }
        assert set(ExplorePlan.__dataclass_fields__) == {
            "session",
            "grid",
            "workloads",
            "sections",
            "instructions",
            "seed",
            "objectives",
            "use_store",
        }
        for method in ("rows", "records", "column", "select", "to_csv", "to_json"):
            assert callable(getattr(ResultFrame, method)), method

    def test_plan_protocol_is_shared(self):
        # Every plan executes to its primary frame; the store-backed
        # plans also return their provenance.
        for plan_type in (FrontendSweepPlan, ExperimentPlan, ExplorePlan):
            assert callable(plan_type.execute), plan_type
        assert callable(ExperimentPlan.report)
        assert callable(ExplorePlan.result)

    def test_py_typed_marker_ships(self):
        package_dir = pathlib.Path(inspect.getfile(repro.api)).parent.parent
        assert (package_dir / "py.typed").is_file()


def readme_quickstart_source() -> str:
    """The verbatim python code block of the README's Python API section."""
    text = README.read_text(encoding="utf-8")
    _, _, after = text.partition("## Python API")
    assert after, "README lost its '## Python API' section"
    _, _, block = after.partition("```python\n")
    code, fence, _ = block.partition("```")
    assert fence, "README Python API section lost its code block"
    return code


class TestReadmeQuickstart:
    def test_quickstart_runs_verbatim(self, capsys):
        code = readme_quickstart_source()
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
        out = capsys.readouterr().out
        assert "workload" in out  # frame.columns printed
        assert "core" in out  # table3 CSV printed
