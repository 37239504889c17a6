"""Command-line interface: regenerate any paper table or figure.

Usage::

    repro-frontend list
    repro-frontend fig1 [--instructions N]
    repro-frontend table3
    repro-frontend fig10 --parallel
    repro-frontend cmpsweep --scenarios core-scaling,l2-scaling
    repro-frontend explore --grid frontend --out results/
    repro-frontend all --smoke --parallel --out results/
    repro-frontend all --parallel --processes 4 --queue-dir /shared/queue
    repro-frontend worker --queue-dir /shared/queue   # on any machine
    repro-frontend serve --port 8757 --queue-dir /shared/queue

Every invocation constructs exactly one :class:`repro.api.Session`
(its :class:`~repro.api.RuntimeConfig` resolved once from the flags
and the ``REPRO_*`` environment) and routes every experiment through
a session plan and the orchestrator
(:mod:`repro.results.orchestrator`): results are looked up in the
content-addressed result store before anything is computed, freshly
computed results are stored for the next invocation, and ``--out``
emits the run as a CSV+JSON manifest directory.  The store defaults to
the per-user directory; set ``REPRO_RESULT_CACHE_DIR`` to relocate it
or to ``none`` to disable the disk layer.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from repro import counters
from repro.api import runtime_config as rc
from repro.exec import SweepError
from repro.experiments import DEFAULT_EXPERIMENT_INSTRUCTIONS


def _int_type(minimum: int, maximum: Optional[int] = None, what: str = "an integer"):
    """argparse type of an integer within ``[minimum, maximum]``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


_positive_int = _int_type(1, what="a positive integer")


def _build_parser() -> argparse.ArgumentParser:
    from repro.results.orchestrator import registry_names

    parser = argparse.ArgumentParser(
        prog="repro-frontend",
        description=(
            "Regenerate the tables and figures of 'Rebalancing the Core "
            "Front-End through HPC Code Analysis' (IISWC 2016)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment to run: one of %s, 'all', 'list', 'explore' "
        "(design-space exploration over a grid), 'worker' "
        "(serve a durable work queue), or 'serve' (the always-on "
        "HTTP/JSON results service)" % ", ".join(sorted(registry_names())),
    )
    parser.add_argument(
        "--instructions",
        type=_positive_int,
        default=None,
        help="dynamic trace length per workload (default %d; overrides "
        "--smoke/--full)" % DEFAULT_EXPERIMENT_INSTRUCTIONS,
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short traces for a fast end-to-end pass (CI smoke runs)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full experiment trace length (the default)",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        default=None,
        help="fan the per-workload sweeps across worker processes "
        "(default: the REPRO_PARALLEL environment variable)",
    )
    parser.add_argument(
        "--processes",
        type=_positive_int,
        default=None,
        help="worker process count for --parallel (default: CPU count)",
    )
    parser.add_argument(
        "--retries",
        type=_int_type(0, what="a non-negative integer"),
        default=None,
        help="per-item retries for transient sweep failures (default: "
        "the REPRO_RETRIES environment variable, else 2)",
    )
    parser.add_argument(
        "--queue-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="durable work-queue directory for --parallel sweeps and "
        "the 'worker' command (REPRO_QUEUE_DIR)",
    )
    parser.add_argument(
        "--max-idle",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="'worker' only: exit after the queue has been idle this "
        "long (default 30)",
    )
    parser.add_argument(
        "--host",
        type=str,
        default=None,
        help="'serve' only: bind address (default REPRO_SERVE_HOST, "
        "else 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=_int_type(0, 65535, what="a TCP port in [0, 65535]"),
        default=None,
        help="'serve' only: TCP port, 0 for an ephemeral one (default "
        "REPRO_SERVE_PORT, else 8757)",
    )
    parser.add_argument(
        "--grid",
        type=str,
        default=None,
        help="'explore' only: preset grid name (default 'frontend', or "
        "'smoke' when --smoke is passed)",
    )
    parser.add_argument(
        "--scenarios",
        type=str,
        default=None,
        help="comma-separated sweep scenario names "
        "(experiments that accept scenarios, e.g. cmpsweep)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help="emit every experiment of this run as CSV+JSON into DIR, "
        "plus a manifest.json index",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when a flag is ignored by every selected "
        "experiment (instead of only warning)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="report result-store and trace/profile cache activity "
        "after each experiment",
    )
    return parser


def _resolve_instructions(args: argparse.Namespace) -> Optional[int]:
    """Instruction budget from --instructions/--smoke/--full.

    ``None`` means no budget flag was passed: the session then resolves
    its budget from ``REPRO_INSTRUCTIONS`` or the default, per the
    flags > environment > defaults precedence.  ``--full`` *is* an
    explicit request for the default experiment length.
    """
    from repro.results.orchestrator import SMOKE_INSTRUCTIONS

    if args.instructions is not None:
        return args.instructions
    if args.smoke:
        return SMOKE_INSTRUCTIONS
    if args.full:
        return DEFAULT_EXPERIMENT_INSTRUCTIONS
    return None


def main(argv: Optional[list] = None) -> int:
    """Entry point of the ``repro-frontend`` command."""
    from repro.api.session import Session
    from repro.results.orchestrator import (
        RunReport,
        registry_names,
        unconsumed_flags,
        write_manifest,
    )

    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.smoke and args.full:
        parser.error("--smoke and --full are mutually exclusive")

    scenario_names = None
    if args.scenarios:
        from repro.uarch.sweep import standard_scenarios

        known = standard_scenarios()
        scenario_names = [s.strip() for s in args.scenarios.split(",") if s.strip()]
        unknown = [s for s in scenario_names if s not in known]
        if unknown:
            parser.error(
                f"unknown sweep scenario(s): {', '.join(unknown)}; "
                f"expected one of {', '.join(sorted(known))}"
            )

    if args.experiment == "list":
        for name in sorted(registry_names()):
            print(name)
        return 0

    if args.experiment == "worker":
        # A cooperating queue worker: claims items from campaigns under
        # the queue directory until the queue stays idle.  Any number
        # may run, on any machine that mounts the directory; a worker
        # started after a crash resumes exactly where the queue stands.
        from repro.exec.queue import serve_queue

        session = Session(**_session_overrides(args, shared_traces=True))
        queue_dir = session.config.queue_dir
        if queue_dir is None:
            parser.error("'worker' requires --queue-dir (or REPRO_QUEUE_DIR)")
        with session.activate():
            queue = serve_queue(queue_dir, max_idle=args.max_idle)
        print(
            f"worker idle, exiting: {queue['completed']} completed, "
            f"{queue['reclaims']} lease reclaims, "
            f"{queue['duplicates']} duplicates, "
            f"{queue['conflicts']} conflicts, "
            f"{queue['poisoned']} poisoned",
            file=sys.stderr,
        )
        return 0

    if args.experiment == "serve":
        # The always-on results service: warm requests are served from
        # the shared store; misses become interactive-priority queue
        # items for external 'worker' processes to drain.
        from repro.serve import ResultsServer, run_server

        overrides = _session_overrides(args)
        if args.host is not None:
            overrides["serve_host"] = args.host
        if args.port is not None:
            overrides["serve_port"] = args.port
        config = rc.RuntimeConfig.from_environment(**overrides)
        if config.queue_dir is None:
            parser.error("'serve' requires --queue-dir (or REPRO_QUEUE_DIR)")
        return run_server(ResultsServer(config))

    if args.experiment == "explore":
        return _run_explore(args, parser)

    if args.experiment == "all":
        names = registry_names()
    elif args.experiment in registry_names():
        names = [args.experiment]
    else:
        parser.error(
            f"unknown experiment {args.experiment!r}; "
            f"expected one of {', '.join(sorted(registry_names()))}, "
            "'all', or 'list'"
        )
        return 2  # pragma: no cover - parser.error raises SystemExit

    if args.instructions is not None:
        budget_flag: Optional[str] = "--instructions"
    elif args.smoke:
        budget_flag = "--smoke"
    elif args.full:
        budget_flag = "--full"
    else:
        budget_flag = None
    ignored = unconsumed_flags(names, scenario_names, budget_flag)
    for flag in ignored:
        print(
            f"warning: {flag} ignored: not consumed by {', '.join(names)}",
            file=sys.stderr,
        )
    if ignored and args.strict:
        print(
            "error: --strict run with ignored flag(s): " + ", ".join(ignored),
            file=sys.stderr,
        )
        return 2

    # The run's one Session, resolved exactly once (a parallel run
    # defaults the shared trace directory by itself).
    session = Session(**_session_overrides(args))
    instructions = session.config.instructions

    # Experiments run one plan at a time so output streams
    # incrementally; the registry order already places dependencies
    # (fig10) before their dependents (fig11), and every completed
    # experiment lands in the result store immediately, so an
    # interrupted `all` run resumes where it died.
    combined = RunReport(instructions=instructions)
    for name in names:
        before = counters.snapshot() if args.verbose else None
        plan = session.experiment(name, scenario_names=scenario_names)
        try:
            report = plan.report()
        except SweepError as error:
            # A sweep with permanently failed items: show the
            # structured failure report instead of a worker traceback.
            # Completed items are checkpointed, so a rerun replays them
            # and recomputes only what is missing.
            print(f"error: {name} failed:\n{error}", file=sys.stderr)
            return 1
        outcome = report.outcome(name)
        combined.outcomes.append(outcome)
        print(f"== {name} ==")
        print(_render_artifact(outcome.artifact))
        if before is not None:
            _report_experiment(outcome, before)
        print()

    if args.verbose:
        counts = combined.counts()
        print(
            f"[{args.experiment}] result store: {counts['computed']} computed, "
            f"{counts['derived']} derived, {counts['cached']} served from store",
            file=sys.stderr,
        )
    if args.out is not None:
        manifest_path = write_manifest(combined, args.out)
        print(f"manifest: {manifest_path}", file=sys.stderr)
    return 0


def _session_overrides(
    args: argparse.Namespace, shared_traces: bool = False
) -> Dict[str, object]:
    """Explicit RuntimeConfig overrides from the flags actually passed.

    Only flags the user actually passed become explicit overrides, so
    the flags > environment > defaults precedence holds: an omitted
    ``--parallel`` still honours ``REPRO_PARALLEL``, an omitted budget
    flag still honours ``REPRO_INSTRUCTIONS``.  The CLI keeps results
    in the per-user store (and, with ``shared_traces``, traces in the
    per-user trace cache) unless the environment names a setting.
    """
    overrides: Dict[str, object] = {}
    if rc.read_environment(rc.RESULT_CACHE_DIR_VARIABLE) is None:
        overrides["result_cache_dir"] = rc.default_result_cache_dir()
    if shared_traces and rc.read_environment(rc.TRACE_CACHE_DIR_VARIABLE) is None:
        overrides["trace_cache_dir"] = rc.default_trace_cache_dir()
    if args.parallel is not None:
        overrides["parallel"] = args.parallel
    if args.processes is not None:
        overrides["processes"] = args.processes
    if args.retries is not None:
        overrides["retries"] = args.retries
    if args.queue_dir is not None:
        overrides["queue_dir"] = args.queue_dir
    explicit_instructions = _resolve_instructions(args)
    if explicit_instructions is not None:
        overrides["instructions"] = explicit_instructions
    return overrides


def _run_explore(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``explore`` subcommand: run a preset grid, emit its frames.

    Grid chunks are served from the content-addressed result store when
    present (a warm rerun computes nothing and reports ``cached``), and
    ``--out`` writes the same manifest-style artifact directory the
    experiment runs emit.
    """
    from repro.api.session import Session
    from repro.experiments.common import render_blocks
    from repro.explore.grid import GRID_PRESETS, get_grid
    from repro.results.orchestrator import ExperimentOutcome, RunReport, write_manifest

    if args.scenarios:
        print(
            "warning: --scenarios ignored: not consumed by explore",
            file=sys.stderr,
        )
        if args.strict:
            print(
                "error: --strict run with ignored flag(s): --scenarios",
                file=sys.stderr,
            )
            return 2
    preset = args.grid or ("smoke" if args.smoke else "frontend")
    if preset not in GRID_PRESETS:
        parser.error(
            f"unknown grid preset {preset!r}; "
            f"expected one of {', '.join(sorted(GRID_PRESETS))}"
        )
    grid = get_grid(preset)

    session = Session(**_session_overrides(args))
    plan = session.explore(grid)
    try:
        result = plan.result()
    except SweepError as error:
        print(f"error: explore failed:\n{error}", file=sys.stderr)
        return 1
    print(f"== explore[{preset}] ==")
    print(render_blocks(result.tables()))
    status = "cached" if result.chunks_computed == 0 else "computed"
    print(
        f"[explore] {status}: {result.points} grid points x "
        f"{len(result.workloads)} workloads; chunks: {result.chunks_total} "
        f"total, {result.chunks_cached} cached, {result.chunks_computed} "
        "computed",
        file=sys.stderr,
    )
    if args.out is not None:
        from repro.results.artifacts import build_frame_artifact

        artifact = build_frame_artifact(
            "explore", f"design-space exploration of the {preset!r} grid", result
        )
        report = RunReport(instructions=session.config.instructions)
        report.outcomes.append(
            ExperimentOutcome(
                name="explore",
                title=artifact["title"],
                key=plan.key(),
                status=status,
                artifact=artifact,
            )
        )
        manifest_path = write_manifest(report, args.out)
        print(f"manifest: {manifest_path}", file=sys.stderr)
    return 0


def _render_artifact(artifact: dict) -> str:
    """Render a (possibly store-served) artifact as the CLI prints results."""
    from repro.experiments.common import render_blocks
    from repro.results.artifacts import artifact_blocks

    return render_blocks(artifact_blocks(artifact))


def _report_experiment(outcome, before: Dict[str, Dict[str, int]]) -> None:
    """Print one experiment's store status and cache activity.

    The caches are process-wide and cumulative, so the report shows the
    delta against the snapshot taken before the experiment ran.
    """
    from repro.results.store import resolved_result_dir
    from repro.workloads.trace_cache import resolved_cache_dir

    after = counters.snapshot()
    deltas: Dict[str, Dict[str, int]] = {}
    for group, values in after.items():
        previous = before.get(group, {})
        deltas[group] = {
            key: value - previous.get(key, 0)
            for key, value in values.items()
            if key != "entries"
        }
    traces = deltas.get("traces", {})
    profiles = deltas.get("profiles", {})
    results = deltas.get("results", {})
    trace_dir = resolved_cache_dir()
    result_dir = resolved_result_dir()
    print(
        f"[{outcome.name}] {outcome.status} (key {outcome.key[:12]}); "
        f"result store {result_dir if result_dir else 'memory-only'}: "
        f"{results.get('hits', 0)} hits, {results.get('disk_hits', 0)} disk hits, "
        f"{results.get('disk_stores', 0)} disk stores; "
        f"traces: {traces.get('hits', 0)} hits, {traces.get('misses', 0)} misses"
        + (
            f", disk {trace_dir}: {traces.get('disk_hits', 0)} hits, "
            f"{traces.get('disk_stores', 0)} stores"
            if trace_dir is not None
            else ""
        )
        + f"; profiles: {profiles.get('hits', 0)} hits, "
        f"{profiles.get('misses', 0)} misses",
        file=sys.stderr,
    )
    # Execution-layer activity (queue leases, CAS): silent on a plain
    # serial run, one extra line when anything moved.
    lease_counts = deltas.get("leases", {})
    queue = deltas.get("queue", {})
    extras = []
    if any(lease_counts.values()):
        extras.append(
            f"leases: {lease_counts.get('acquired', 0)} acquired, "
            f"{lease_counts.get('reclaimed', 0)} reclaimed, "
            f"{lease_counts.get('lost', 0)} lost"
        )
    if any(queue.values()):
        extras.append(
            f"queue: {queue.get('enqueued', 0)} enqueued, "
            f"{queue.get('completed', 0)} completed, "
            f"{queue.get('reclaims', 0)} reclaims, "
            f"{queue.get('duplicates', 0)} duplicates, "
            f"{queue.get('conflicts', 0)} conflicts, "
            f"{queue.get('poisoned', 0)} poisoned"
        )
    cas = {
        key: results.get(key, 0)
        for key in ("cas_stores", "cas_identical", "cas_conflicts")
    }
    if any(cas.values()):
        extras.append(
            f"result CAS: {cas['cas_stores']} stored, "
            f"{cas['cas_identical']} identical, "
            f"{cas['cas_conflicts']} conflicts"
        )
    if extras:
        print(f"[{outcome.name}] " + "; ".join(extras), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
