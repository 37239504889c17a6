"""RuntimeConfig resolution: explicit kwarg > environment > default.

Every field of :class:`repro.api.runtime_config.RuntimeConfig` is
checked through the full precedence chain, including the ``none``-
disables-cache semantics of both cache directories and the activation
scoping the Session layer builds on.
"""

from __future__ import annotations

import pytest

from repro.api import runtime_config as rc


class TestPrecedence:
    """Explicit argument beats environment variable beats default."""

    def test_defaults_with_clean_environment(self, monkeypatch):
        for name in rc.ENVIRONMENT_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        config = rc.RuntimeConfig.from_environment()
        assert config.trace_engine == "compiled"
        assert config.trace_cache_dir is None
        assert config.result_cache_dir is None
        assert config.parallel is False
        assert config.processes is None
        assert config.instructions == rc.DEFAULT_INSTRUCTIONS

    def test_trace_engine(self, monkeypatch):
        monkeypatch.delenv(rc.TRACE_ENGINE_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().trace_engine == "compiled"
        monkeypatch.setenv(rc.TRACE_ENGINE_VARIABLE, "reference")
        assert rc.RuntimeConfig.from_environment().trace_engine == "reference"
        # Explicit beats the environment.
        assert (
            rc.RuntimeConfig.from_environment(trace_engine="compiled").trace_engine
            == "compiled"
        )
        # Unknown *environment* spellings resolve to the default engine
        # (lenient, the historical env-var contract) ...
        monkeypatch.setenv(rc.TRACE_ENGINE_VARIABLE, "warp-drive")
        assert rc.RuntimeConfig.from_environment().trace_engine == "compiled"
        # ... but an unknown *explicit* engine raises: the typed API
        # must not swallow typos.
        with pytest.raises(ValueError):
            rc.RuntimeConfig.from_environment(trace_engine="referense")
        with pytest.raises(ValueError):
            rc.RuntimeConfig(trace_engine="bogus")
        with pytest.raises(ValueError):
            rc.RuntimeConfig().replace(trace_engine="bogus")

    @pytest.mark.parametrize(
        "field,variable",
        [
            ("trace_cache_dir", rc.TRACE_CACHE_DIR_VARIABLE),
            ("result_cache_dir", rc.RESULT_CACHE_DIR_VARIABLE),
        ],
    )
    def test_cache_dirs(self, monkeypatch, tmp_path, field, variable):
        env_dir = str(tmp_path / "from-env")
        explicit_dir = str(tmp_path / "explicit")

        monkeypatch.delenv(variable, raising=False)
        assert getattr(rc.RuntimeConfig.from_environment(), field) is None

        monkeypatch.setenv(variable, env_dir)
        assert getattr(rc.RuntimeConfig.from_environment(), field) == env_dir
        # Explicit path beats the environment path.
        config = rc.RuntimeConfig.from_environment(**{field: explicit_dir})
        assert getattr(config, field) == explicit_dir
        # Explicit None (and every disable spelling) disables even when
        # the environment names a directory.
        config = rc.RuntimeConfig.from_environment(**{field: None})
        assert getattr(config, field) is None
        for spelling in ("none", "NONE", "off", "0", "", "disabled"):
            config = rc.RuntimeConfig.from_environment(**{field: spelling})
            assert getattr(config, field) is None, spelling

        # Environment disable spellings resolve to None too.
        monkeypatch.setenv(variable, "none")
        assert getattr(rc.RuntimeConfig.from_environment(), field) is None
        # ... and an explicit path still beats an environment disable.
        config = rc.RuntimeConfig.from_environment(**{field: explicit_dir})
        assert getattr(config, field) == explicit_dir

    def test_parallel_defaults_the_shared_trace_cache(self, monkeypatch, tmp_path):
        """Parallel with a fully unset trace cache auto-enables the
        per-user shared directory (the legacy run_sweep behaviour);
        explicit or environment settings still win."""
        monkeypatch.delenv(rc.TRACE_CACHE_DIR_VARIABLE, raising=False)
        config = rc.RuntimeConfig.from_environment(parallel=True)
        assert config.trace_cache_dir == rc.default_trace_cache_dir()
        # An environment disable wins over the parallel default.
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, "none")
        assert (
            rc.RuntimeConfig.from_environment(parallel=True).trace_cache_dir is None
        )
        # So does an explicit disable or an explicit directory.
        monkeypatch.delenv(rc.TRACE_CACHE_DIR_VARIABLE, raising=False)
        config = rc.RuntimeConfig.from_environment(
            parallel=True, trace_cache_dir=None
        )
        assert config.trace_cache_dir is None
        config = rc.RuntimeConfig.from_environment(
            parallel=True, trace_cache_dir=str(tmp_path)
        )
        assert config.trace_cache_dir == str(tmp_path)

    def test_parallel(self, monkeypatch):
        monkeypatch.delenv(rc.PARALLEL_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().parallel is False
        for truthy in ("1", "true", "YES", "on"):
            monkeypatch.setenv(rc.PARALLEL_VARIABLE, truthy)
            assert rc.RuntimeConfig.from_environment().parallel is True, truthy
        monkeypatch.setenv(rc.PARALLEL_VARIABLE, "0")
        assert rc.RuntimeConfig.from_environment().parallel is False
        monkeypatch.setenv(rc.PARALLEL_VARIABLE, "1")
        assert rc.RuntimeConfig.from_environment(parallel=False).parallel is False

    def test_processes(self, monkeypatch):
        monkeypatch.delenv(rc.PROCESSES_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().processes is None
        monkeypatch.setenv(rc.PROCESSES_VARIABLE, "4")
        assert rc.RuntimeConfig.from_environment().processes == 4
        assert rc.RuntimeConfig.from_environment(processes=2).processes == 2
        assert rc.RuntimeConfig.from_environment(processes=None).processes is None
        # Garbage in the environment falls back to the default.
        monkeypatch.setenv(rc.PROCESSES_VARIABLE, "many")
        assert rc.RuntimeConfig.from_environment().processes is None

    def test_instructions(self, monkeypatch):
        monkeypatch.delenv(rc.INSTRUCTIONS_VARIABLE, raising=False)
        assert (
            rc.RuntimeConfig.from_environment().instructions
            == rc.DEFAULT_INSTRUCTIONS
        )
        monkeypatch.setenv(rc.INSTRUCTIONS_VARIABLE, "60000")
        assert rc.RuntimeConfig.from_environment().instructions == 60000
        assert (
            rc.RuntimeConfig.from_environment(instructions=12345).instructions
            == 12345
        )
        assert rc.RuntimeConfig.from_environment(instructions=1).instructions == 1
        # Non-positive budgets: explicit ones raise at construction,
        # environment ones fall back to the default (as REPRO_RETRIES).
        with pytest.raises(ValueError, match="instructions"):
            rc.RuntimeConfig.from_environment(instructions=0)
        with pytest.raises(ValueError, match="instructions"):
            rc.RuntimeConfig(instructions=-5)
        for value in ("0", "-5"):
            monkeypatch.setenv(rc.INSTRUCTIONS_VARIABLE, value)
            assert (
                rc.RuntimeConfig.from_environment().instructions
                == rc.DEFAULT_INSTRUCTIONS
            )

    def test_executor(self, monkeypatch):
        monkeypatch.delenv(rc.EXECUTOR_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().executor == "auto"
        monkeypatch.setenv(rc.EXECUTOR_VARIABLE, "processes")
        assert rc.RuntimeConfig.from_environment().executor == "processes"
        # Explicit beats the environment; names pass through unresolved
        # (entry points are validated at sweep time, not here).
        config = rc.RuntimeConfig.from_environment(executor="serial")
        assert config.executor == "serial"
        assert rc.RuntimeConfig(executor="  ").executor == "auto"

    def test_retries(self, monkeypatch):
        monkeypatch.delenv(rc.RETRIES_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().retries == rc.DEFAULT_RETRIES
        monkeypatch.setenv(rc.RETRIES_VARIABLE, "5")
        assert rc.RuntimeConfig.from_environment().retries == 5
        assert rc.RuntimeConfig.from_environment(retries=0).retries == 0
        # Garbage or negative environment values fall back to the
        # default; an explicit negative raises.
        monkeypatch.setenv(rc.RETRIES_VARIABLE, "lots")
        assert rc.RuntimeConfig.from_environment().retries == rc.DEFAULT_RETRIES
        monkeypatch.setenv(rc.RETRIES_VARIABLE, "-1")
        assert rc.RuntimeConfig.from_environment().retries == rc.DEFAULT_RETRIES
        with pytest.raises(ValueError):
            rc.RuntimeConfig(retries=-1)

    def test_item_timeout(self, monkeypatch):
        monkeypatch.delenv(rc.ITEM_TIMEOUT_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().item_timeout is None
        monkeypatch.setenv(rc.ITEM_TIMEOUT_VARIABLE, "2.5")
        assert rc.RuntimeConfig.from_environment().item_timeout == 2.5
        assert rc.RuntimeConfig.from_environment(item_timeout=1).item_timeout == 1.0
        # A zero/negative *environment* timeout stays lenient ("no
        # timeout", matching the unset state); explicit ones raise.
        monkeypatch.setenv(rc.ITEM_TIMEOUT_VARIABLE, "0")
        assert rc.RuntimeConfig.from_environment().item_timeout is None
        monkeypatch.setenv(rc.ITEM_TIMEOUT_VARIABLE, "-3")
        assert rc.RuntimeConfig.from_environment().item_timeout is None
        with pytest.raises(ValueError):
            rc.RuntimeConfig(item_timeout=0)
        with pytest.raises(ValueError):
            rc.RuntimeConfig(item_timeout=-3)

    def test_retry_delay(self, monkeypatch):
        monkeypatch.delenv(rc.RETRY_DELAY_VARIABLE, raising=False)
        assert (
            rc.RuntimeConfig.from_environment().retry_delay == rc.DEFAULT_RETRY_DELAY
        )
        monkeypatch.setenv(rc.RETRY_DELAY_VARIABLE, "0.2")
        assert rc.RuntimeConfig.from_environment().retry_delay == 0.2
        # A zero/negative *environment* delay falls back to the default;
        # explicit ones raise instead of silently clamping.
        monkeypatch.setenv(rc.RETRY_DELAY_VARIABLE, "0")
        assert (
            rc.RuntimeConfig.from_environment().retry_delay == rc.DEFAULT_RETRY_DELAY
        )
        with pytest.raises(ValueError):
            rc.RuntimeConfig.from_environment(retry_delay=0)
        with pytest.raises(ValueError):
            rc.RuntimeConfig(retry_delay=-1.0)

    def test_queue_dir(self, monkeypatch):
        monkeypatch.delenv(rc.QUEUE_DIR_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().queue_dir is None
        monkeypatch.setenv(rc.QUEUE_DIR_VARIABLE, "/tmp/queue")
        assert rc.RuntimeConfig.from_environment().queue_dir == "/tmp/queue"
        assert rc.RuntimeConfig.from_environment(queue_dir=None).queue_dir is None
        monkeypatch.setenv(rc.QUEUE_DIR_VARIABLE, "none")
        assert rc.RuntimeConfig.from_environment().queue_dir is None
        assert rc.RuntimeConfig(queue_dir="off").queue_dir is None

    def test_lease_ttl_and_heartbeat(self, monkeypatch):
        monkeypatch.delenv(rc.LEASE_TTL_VARIABLE, raising=False)
        monkeypatch.delenv(rc.HEARTBEAT_INTERVAL_VARIABLE, raising=False)
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == rc.DEFAULT_LEASE_TTL
        assert config.heartbeat_interval == rc.DEFAULT_HEARTBEAT_INTERVAL
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "12")
        monkeypatch.setenv(rc.HEARTBEAT_INTERVAL_VARIABLE, "3")
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == 12.0
        assert config.heartbeat_interval == 3.0
        # Garbage or non-positive environment values fall back.
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "soon")
        monkeypatch.setenv(rc.HEARTBEAT_INTERVAL_VARIABLE, "-1")
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == rc.DEFAULT_LEASE_TTL
        assert config.heartbeat_interval == rc.DEFAULT_HEARTBEAT_INTERVAL
        # An env-only heartbeat >= TTL is resolved to the default ratio.
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "6")
        monkeypatch.setenv(rc.HEARTBEAT_INTERVAL_VARIABLE, "30")
        config = rc.RuntimeConfig.from_environment()
        assert config.heartbeat_interval == 1.0
        # Explicit knobs are strict: non-positive values raise, and an
        # explicit heartbeat must stay below the TTL.
        with pytest.raises(ValueError):
            rc.RuntimeConfig(lease_ttl=0)
        with pytest.raises(ValueError):
            rc.RuntimeConfig(heartbeat_interval=-2)
        with pytest.raises(ValueError):
            rc.RuntimeConfig(lease_ttl=5.0, heartbeat_interval=6.0)
        # Lowering only the TTL keeps the untouched default heartbeat
        # usable by scaling it down at the default ratio.
        config = rc.RuntimeConfig(lease_ttl=3.0)
        assert config.heartbeat_interval == pytest.approx(0.5)

    def test_fault_plan(self, monkeypatch):
        monkeypatch.delenv(rc.FAULT_PLAN_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().fault_plan is None
        document = '{"faults": [{"kind": "raise", "index": 0}]}'
        monkeypatch.setenv(rc.FAULT_PLAN_VARIABLE, document)
        assert rc.RuntimeConfig.from_environment().fault_plan == document
        assert rc.RuntimeConfig.from_environment(fault_plan=None).fault_plan is None

    def test_execution_knobs_stay_out_of_semantic(self):
        config = rc.RuntimeConfig(
            executor="processes",
            retries=7,
            item_timeout=3.0,
            retry_delay=0.2,
            fault_plan='{"faults": []}',
        )
        # Execution policy can never change the numbers, so it can
        # never change a result key either.
        assert config.semantic() == rc.RuntimeConfig().semantic()


class TestConfigBehaviour:
    def test_replace_normalizes_cache_dirs_and_engine(self):
        config = rc.RuntimeConfig()
        assert config.replace(trace_cache_dir="none").trace_cache_dir is None
        assert config.replace(result_cache_dir="off").result_cache_dir is None
        assert config.replace(trace_engine="REFERENCE").trace_engine == "reference"
        kept = config.replace(trace_cache_dir="/tmp/somewhere")
        assert kept.trace_cache_dir == "/tmp/somewhere"

    def test_direct_construction_normalizes_too(self):
        config = rc.RuntimeConfig(
            trace_engine="Reference", trace_cache_dir="NONE", result_cache_dir=""
        )
        assert config.trace_engine == "reference"
        assert config.trace_cache_dir is None
        assert config.result_cache_dir is None

    def test_semantic_excludes_execution_details(self):
        config = rc.RuntimeConfig(parallel=True, processes=8, instructions=1)
        assert config.semantic() == {"trace_engine": "compiled"}

    def test_describe_covers_every_field(self):
        described = rc.RuntimeConfig().describe()
        assert set(described) == {
            "trace_engine",
            "trace_cache_dir",
            "result_cache_dir",
            "parallel",
            "processes",
            "instructions",
            "executor",
            "retries",
            "item_timeout",
            "retry_delay",
            "fault_plan",
            "cache_namespace",
            "queue_dir",
            "lease_ttl",
            "heartbeat_interval",
            "serve_host",
            "serve_port",
        }


class TestCacheNamespace:
    """One path component isolating concurrent sessions' disk caches."""

    def test_precedence_and_normalization(self, monkeypatch):
        monkeypatch.delenv(rc.CACHE_NAMESPACE_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().cache_namespace is None
        monkeypatch.setenv(rc.CACHE_NAMESPACE_VARIABLE, "ci-run-7")
        assert rc.RuntimeConfig.from_environment().cache_namespace == "ci-run-7"
        # Explicit beats the environment; blank means "no namespace".
        config = rc.RuntimeConfig.from_environment(cache_namespace="mine")
        assert config.cache_namespace == "mine"
        assert (
            rc.RuntimeConfig.from_environment(cache_namespace="  ").cache_namespace
            is None
        )
        assert (
            rc.RuntimeConfig.from_environment(cache_namespace=None).cache_namespace
            is None
        )

    def test_explicit_invalid_namespace_raises(self):
        for bad in ("a/b", "a\\b", "..", "."):
            with pytest.raises(ValueError):
                rc.RuntimeConfig(cache_namespace=bad)

    def test_invalid_environment_namespace_is_ignored(self, monkeypatch):
        monkeypatch.setenv(rc.CACHE_NAMESPACE_VARIABLE, "../escape")
        assert rc.RuntimeConfig.from_environment().cache_namespace is None

    def test_namespace_stays_out_of_semantic(self):
        # The namespace relocates cache files; it cannot change numbers,
        # so it must not invalidate content-addressed results.
        config = rc.RuntimeConfig(cache_namespace="elsewhere")
        assert config.semantic() == rc.RuntimeConfig().semantic()

    def test_accessors_join_the_namespace(self, monkeypatch, tmp_path):
        import os

        config = rc.RuntimeConfig(
            trace_cache_dir=str(tmp_path / "traces"),
            result_cache_dir=str(tmp_path / "results"),
            cache_namespace="ns",
        )
        with rc.activated(config):
            assert rc.current_trace_cache_dir() == os.path.join(
                str(tmp_path / "traces"), "ns"
            )
            assert rc.current_result_cache_dir() == os.path.join(
                str(tmp_path / "results"), "ns"
            )
        # Legacy mode joins the environment namespace the same way.
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, str(tmp_path / "traces"))
        monkeypatch.setenv(rc.RESULT_CACHE_DIR_VARIABLE, str(tmp_path / "results"))
        monkeypatch.setenv(rc.CACHE_NAMESPACE_VARIABLE, "env-ns")
        assert rc.current_trace_cache_dir() == os.path.join(
            str(tmp_path / "traces"), "env-ns"
        )
        assert rc.current_result_cache_dir() == os.path.join(
            str(tmp_path / "results"), "env-ns"
        )
        # A namespace without an enabled disk layer stays disabled.
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, "none")
        assert rc.current_trace_cache_dir() is None

    def test_two_namespaces_resolve_to_distinct_paths(self, tmp_path):
        shared = str(tmp_path / "shared")
        first = rc.RuntimeConfig(trace_cache_dir=shared, cache_namespace="a")
        second = rc.RuntimeConfig(trace_cache_dir=shared, cache_namespace="b")
        with rc.activated(first):
            dir_a = rc.current_trace_cache_dir()
        with rc.activated(second):
            dir_b = rc.current_trace_cache_dir()
        assert dir_a != dir_b
        assert dir_a.startswith(shared) and dir_b.startswith(shared)

    def test_worker_environment_exports_namespaced_dir_once(
        self, monkeypatch, tmp_path
    ):
        import os

        monkeypatch.setenv(rc.CACHE_NAMESPACE_VARIABLE, "parent-ns")
        config = rc.RuntimeConfig(
            trace_cache_dir=str(tmp_path / "traces"), cache_namespace="ns"
        )
        with rc.worker_environment(config):
            # The exported directory is already namespaced, and the
            # namespace variable is blanked so workers (which resolve it
            # in legacy mode) cannot join it a second time.
            assert rc.read_environment(rc.TRACE_CACHE_DIR_VARIABLE) == os.path.join(
                str(tmp_path / "traces"), "ns"
            )
            assert rc.read_environment(rc.CACHE_NAMESPACE_VARIABLE) == ""
            assert rc.current_trace_cache_dir() == os.path.join(
                str(tmp_path / "traces"), "ns"
            )
        # The parent's own namespace setting is restored afterwards.
        assert rc.read_environment(rc.CACHE_NAMESPACE_VARIABLE) == "parent-ns"


class TestActivation:
    """An activated config wins over the environment, scoped."""

    def test_activated_config_overrides_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, str(tmp_path / "env"))
        monkeypatch.setenv(rc.TRACE_ENGINE_VARIABLE, "reference")
        config = rc.RuntimeConfig(
            trace_engine="compiled", trace_cache_dir=str(tmp_path / "mine")
        )
        assert rc.current_trace_cache_dir() == str(tmp_path / "env")
        assert rc.current_trace_engine() == "reference"
        with rc.activated(config):
            assert rc.active_config() is config
            assert rc.current_trace_cache_dir() == str(tmp_path / "mine")
            assert rc.current_trace_engine() == "compiled"
            assert rc.current_config() is config
        assert rc.active_config() is None
        assert rc.current_trace_cache_dir() == str(tmp_path / "env")
        assert rc.current_trace_engine() == "reference"

    def test_activation_nests_and_restores_on_error(self):
        outer = rc.RuntimeConfig(trace_engine="reference")
        inner = rc.RuntimeConfig(trace_engine="compiled")
        with rc.activated(outer):
            with rc.activated(inner):
                assert rc.current_trace_engine() == "compiled"
            assert rc.current_trace_engine() == "reference"
            with pytest.raises(RuntimeError):
                with rc.activated(inner):
                    raise RuntimeError("boom")
            assert rc.active_config() is outer
        assert rc.active_config() is None

    def test_worker_environment_exports_and_restores(self, monkeypatch, tmp_path):
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, str(tmp_path / "env"))
        monkeypatch.delenv(rc.TRACE_ENGINE_VARIABLE, raising=False)
        config = rc.RuntimeConfig(
            trace_engine="reference", trace_cache_dir=str(tmp_path / "mine")
        )
        with rc.worker_environment(config):
            assert rc.read_environment(rc.TRACE_CACHE_DIR_VARIABLE) == str(
                tmp_path / "mine"
            )
            assert rc.read_environment(rc.TRACE_ENGINE_VARIABLE) == "reference"
        # Fully restored: no leak into later legacy-mode resolution.
        assert rc.read_environment(rc.TRACE_CACHE_DIR_VARIABLE) == str(
            tmp_path / "env"
        )
        assert rc.read_environment(rc.TRACE_ENGINE_VARIABLE) is None
        # A disabled cache dir is exported as an explicit disable, so
        # workers cannot fall back to an inherited directory.
        with rc.worker_environment(rc.RuntimeConfig()):
            assert rc.read_environment(rc.TRACE_CACHE_DIR_VARIABLE) == "none"

    def test_export_environment_default(self, monkeypatch):
        monkeypatch.delenv(rc.PROCESSES_VARIABLE, raising=False)
        rc.export_environment_default(rc.PROCESSES_VARIABLE, "3")
        assert rc.read_environment(rc.PROCESSES_VARIABLE) == "3"
        # An already-set variable is left untouched.
        rc.export_environment_default(rc.PROCESSES_VARIABLE, "9")
        assert rc.read_environment(rc.PROCESSES_VARIABLE) == "3"
        monkeypatch.delenv(rc.PROCESSES_VARIABLE, raising=False)
