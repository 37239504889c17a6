"""RuntimeConfig resolution: explicit kwarg > environment > default.

Every field of :class:`repro.api.runtime_config.RuntimeConfig` is
checked through the full precedence chain, including the ``none``-
disables-cache semantics of both cache directories and the activation
scoping the Session layer builds on.
"""

from __future__ import annotations

import os

import pytest

from repro.api import runtime_config as rc


class TestPrecedence:
    """Explicit argument beats environment variable beats default."""

    def test_defaults_with_clean_environment(self, monkeypatch):
        for name in rc.ENVIRONMENT_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        config = rc.RuntimeConfig.from_environment()
        assert config.trace_cache_dir is None
        assert config.result_cache_dir is None
        assert config.parallel is False
        assert config.processes is None
        assert config.instructions == rc.DEFAULT_INSTRUCTIONS

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
        # Garbage or non-positive environment values fall back to the
        # default; explicit non-positive counts raise.
        for value in ("many", "0", "-2"):
            monkeypatch.setenv(rc.PROCESSES_VARIABLE, value)
            assert rc.RuntimeConfig.from_environment().processes is None, value
        for count in (0, -2):
            with pytest.raises(ValueError, match="processes"):
                rc.RuntimeConfig(processes=count)

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

    def test_queue_dir_defaults_under_the_result_store(self, tmp_path):
        # Campaigns persist wherever results do, so every parallel sweep
        # with a result store resumes item by item; without one they
        # stay ephemeral.
        store = str(tmp_path / "store")
        with rc.activated(rc.RuntimeConfig(result_cache_dir=store)):
            assert rc.current_queue_dir() == os.path.join(store, "queue")
        named = rc.RuntimeConfig(result_cache_dir=store, queue_dir="/srv/queue")
        with rc.activated(named):
            assert rc.current_queue_dir() == "/srv/queue"
        with rc.activated(rc.RuntimeConfig(cache_namespace="ns", result_cache_dir=store)):
            assert rc.current_queue_dir() == os.path.join(store, "ns", "queue")
        with rc.activated(rc.RuntimeConfig()):
            assert rc.current_queue_dir() is None

    def test_lease_ttl(self, monkeypatch):
        monkeypatch.delenv(rc.LEASE_TTL_VARIABLE, raising=False)
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == rc.DEFAULT_LEASE_TTL
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "12")
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == 12.0
        # Garbage or non-positive environment values fall back.
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "soon")
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == rc.DEFAULT_LEASE_TTL
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "-1")
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == rc.DEFAULT_LEASE_TTL
        # Explicit knobs are strict: non-positive values raise.
        with pytest.raises(ValueError):
            rc.RuntimeConfig(lease_ttl=0)
        with pytest.raises(ValueError):
            rc.RuntimeConfig.from_environment(lease_ttl=-1.0)

    def test_fault_plan(self, monkeypatch):
        monkeypatch.delenv(rc.FAULT_PLAN_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().fault_plan is None
        document = '{"faults": [{"kind": "raise", "index": 0}]}'
        monkeypatch.setenv(rc.FAULT_PLAN_VARIABLE, document)
        assert rc.RuntimeConfig.from_environment().fault_plan == document
        assert rc.RuntimeConfig.from_environment(fault_plan=None).fault_plan is None

    def test_serve_host_and_port(self, monkeypatch):
        monkeypatch.setenv(rc.SERVE_HOST_VARIABLE, "0.0.0.0")
        monkeypatch.setenv(rc.SERVE_PORT_VARIABLE, "9000")
        config = rc.RuntimeConfig.from_environment()
        assert (config.serve_host, config.serve_port) == ("0.0.0.0", 9000)
        # Blank, unparsable or out-of-range values fall back.
        monkeypatch.setenv(rc.SERVE_HOST_VARIABLE, "  ")
        for port in ("http", "70000", "-1"):
            monkeypatch.setenv(rc.SERVE_PORT_VARIABLE, port)
            config = rc.RuntimeConfig.from_environment()
            assert (config.serve_host, config.serve_port) == (
                rc.DEFAULT_SERVE_HOST,
                rc.DEFAULT_SERVE_PORT,
            ), port


class TestConfigBehaviour:
    def test_replace_normalizes_cache_dirs(self):
        config = rc.RuntimeConfig()
        assert config.replace(trace_cache_dir="none").trace_cache_dir is None
        assert config.replace(result_cache_dir="off").result_cache_dir is None
        with pytest.raises(ValueError, match="processes"):
            config.replace(processes=0)
        kept = config.replace(trace_cache_dir="/tmp/somewhere")
        assert kept.trace_cache_dir == "/tmp/somewhere"

    def test_direct_construction_normalizes_too(self):
        config = rc.RuntimeConfig(trace_cache_dir="NONE", result_cache_dir="")
        assert config.trace_cache_dir is None
        assert config.result_cache_dir is None

    def test_direct_construction_coerces_explicit_values(self):
        config = rc.RuntimeConfig(
            parallel=1,
            processes="2",
            instructions=3000.0,
            retries="1",
            retry_delay="0.5",
            lease_ttl=3,
            serve_port="8080",
            fault_plan="",
        )
        assert config.parallel is True
        counts = ("processes", "instructions", "retries", "serve_port")
        assert [getattr(config, name) for name in counts] == [2, 3000, 1, 8080]
        assert {type(getattr(config, name)) for name in counts} == {int}
        assert (config.retry_delay, config.lease_ttl) == (0.5, 3.0)
        assert type(config.lease_ttl) is float
        assert config.fault_plan is None
        # from_environment hands explicit values to the same constructor.
        explicit = rc.RuntimeConfig.from_environment(processes="3", parallel=0)
        assert (explicit.processes, explicit.parallel) == (3, False)

    def test_describe_covers_every_field(self):
        described = rc.RuntimeConfig().describe()
        assert set(described) == {
            "trace_cache_dir",
            "result_cache_dir",
            "parallel",
            "processes",
            "instructions",
            "retries",
            "retry_delay",
            "fault_plan",
            "cache_namespace",
            "queue_dir",
            "lease_ttl",
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
        # A config resolved from the environment joins its namespace the
        # same way.
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, str(tmp_path / "traces"))
        monkeypatch.setenv(rc.RESULT_CACHE_DIR_VARIABLE, str(tmp_path / "results"))
        monkeypatch.setenv(rc.CACHE_NAMESPACE_VARIABLE, "env-ns")
        with rc.activated(rc.RuntimeConfig.from_environment()):
            assert rc.current_trace_cache_dir() == os.path.join(
                str(tmp_path / "traces"), "env-ns"
            )
            assert rc.current_result_cache_dir() == os.path.join(
                str(tmp_path / "results"), "env-ns"
            )
        # A namespace without an enabled disk layer stays disabled.
        with rc.activated(config.replace(trace_cache_dir="none")):
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

    def test_a_handed_over_config_joins_the_namespace_once(self, tmp_path):
        import pickle

        config = rc.RuntimeConfig(
            parallel=True,
            processes=2,
            trace_cache_dir=str(tmp_path / "traces"),
            result_cache_dir=str(tmp_path / "results"),
            cache_namespace="ns",
            fault_plan='{"faults": []}',
        )
        # Spawned and fork-server workers receive the config pickled
        # and activate it as is: the namespace is joined there, once.
        handed = pickle.loads(pickle.dumps(config))
        assert handed == config
        with rc.activated(handed):
            assert rc.current_trace_cache_dir() == os.path.join(
                str(tmp_path / "traces"), "ns"
            )
            assert rc.current_result_cache_dir() == os.path.join(
                str(tmp_path / "results"), "ns"
            )


class TestActivation:
    """An activated config wins over the process snapshot, scoped."""

    def test_activated_config_overrides_the_snapshot(self, monkeypatch, tmp_path):
        snapshot = rc.process_snapshot()
        # The environment is read once: changing it later moves neither
        # the snapshot nor the accessors.
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, str(tmp_path / "env"))
        monkeypatch.setenv(rc.INSTRUCTIONS_VARIABLE, "777")
        assert rc.current_config() is snapshot
        assert rc.current_trace_cache_dir() == snapshot.trace_cache_dir
        config = rc.RuntimeConfig(trace_cache_dir=str(tmp_path / "mine"))
        with rc.activated(config):
            assert rc.current_config() is config
            assert rc.current_trace_cache_dir() == str(tmp_path / "mine")
        assert rc.current_config() is snapshot
        assert rc.current_trace_cache_dir() == snapshot.trace_cache_dir
        assert rc.current_config().instructions == snapshot.instructions

    def test_activation_nests_and_restores_on_error(self):
        outer = rc.RuntimeConfig(instructions=1_000)
        inner = rc.RuntimeConfig(instructions=2_000)
        with rc.activated(outer):
            with rc.activated(inner):
                assert rc.current_config().instructions == 2_000
            assert rc.current_config().instructions == 1_000
            with pytest.raises(RuntimeError):
                with rc.activated(inner):
                    raise RuntimeError("boom")
            assert rc.current_config() is outer
        assert rc.current_config() is rc.process_snapshot()
