"""Unified experiment orchestrator.

Registers every figure/table/sweep driver behind the uniform
:class:`~repro.results.spec.ExperimentSpec` interface and executes any
selection -- up to the whole paper -- in registry (paper) order, with
the session's sweeps and the content-addressed result store.  Each
experiment has one producer, its driver; the Section V experiments
share front-end profiles in-process because paper order runs Figure 10
before Figure 11.

Every result is keyed by its full provenance (see
:func:`repro.results.store.result_key`), checked against the store
before computing, and stored immediately after computing -- so a killed
``repro-frontend all`` run resumes from where it died, replaying only
the missing keys, and a warm rerun recomputes nothing at all.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.results.artifacts import (
    build_frame_artifact,
    ensure_directory,
    stored_frame,
    write_artifact_csv,
    write_artifact_json,
)
from repro.results.spec import ExperimentSpec
from repro.results.store import load_result, result_key, store_result_cas

#: Dynamic trace length of ``--smoke`` runs: long enough for every
#: experiment to produce non-degenerate tables, short enough for the
#: whole paper to regenerate in well under a minute.
SMOKE_INSTRUCTIONS = 20_000

#: Manifest schema version (the ``manifest.json`` layout).
MANIFEST_SCHEMA_VERSION = 1


def _registry() -> "Dict[str, ExperimentSpec]":
    """The experiment registry, in paper order.

    Built lazily (and memoized) so importing this module does not pull
    in every experiment module; the import is one-directional -- the
    experiment modules never import the orchestrator.
    """
    global _SPECS
    if _SPECS is None:
        from repro import experiments

        specs = [
            experiments.fig01_branch_mix.SPEC,
            experiments.fig02_branch_bias.SPEC,
            experiments.table1_taken_direction.SPEC,
            experiments.fig03_footprint.SPEC,
            experiments.fig04_basic_blocks.SPEC,
            experiments.table2_predictor_budgets.SPEC,
            experiments.fig05_branch_mpki.SPEC,
            experiments.fig06_mpki_breakdown.SPEC,
            experiments.fig07_btb.SPEC,
            experiments.fig08_icache.SPEC,
            experiments.fig09_icache_lines.SPEC,
            experiments.table3_area_power.SPEC,
            experiments.fig10_cmp_configs.SPEC,
            experiments.fig11_per_benchmark_time.SPEC,
            experiments.cmp_sweep.SPEC,
            *experiments.explore_presets.SPECS,
        ]
        _SPECS = {spec.name: spec for spec in specs}
    return _SPECS


_SPECS: Optional[Dict[str, ExperimentSpec]] = None


def registry_names() -> List[str]:
    """Every registered experiment name, in paper order."""
    return list(_registry())


def get_spec(name: str) -> ExperimentSpec:
    """Look up one registered experiment spec by name."""
    registry = _registry()
    if name not in registry:
        known = ", ".join(registry)
        raise KeyError(f"unknown experiment {name!r}; expected one of {known}")
    return registry[name]


@dataclass
class ExperimentOutcome:
    """How one experiment of a run was satisfied."""

    name: str
    title: str
    key: str
    #: ``"computed"`` (runner executed) or ``"cached"`` (served from
    #: the store).
    status: str
    artifact: Dict[str, Any]

    def stored_frame(self, name: Optional[str] = None):
        """One stored payload frame (default: the artifact's primary).

        Raises :class:`KeyError` naming the stored frames when the
        artifact has no frame ``name``.
        """
        return stored_frame(self.artifact, name)[1]


@dataclass
class RunReport:
    """Outcome of one orchestrated run."""

    instructions: int
    outcomes: List[ExperimentOutcome] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        """Number of experiments per outcome status."""
        counts = {"computed": 0, "cached": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def outcome(self, name: str) -> ExperimentOutcome:
        """The outcome of one experiment of this run."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"experiment {name!r} is not part of this run")


def _accepts(runner: Any, parameter: str) -> bool:
    return parameter in inspect.signature(runner).parameters


def spec_config(
    spec: ExperimentSpec,
    instructions: int,
    scenario_names: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Resolve a spec's *semantic* configuration (the key material).

    Only parameters that change the numbers are included; execution
    policy lives in the session's config and is deliberately absent,
    because serial and parallel sweeps produce bit-identical results.
    """
    config: Dict[str, Any] = dict(spec.constants())
    if _accepts(spec.runner, "instructions"):
        config["instructions"] = int(instructions)
    if _accepts(spec.runner, "scenario_names"):
        if scenario_names is None:
            from repro.uarch.sweep import standard_scenarios

            scenario_names = list(standard_scenarios())
        config["scenario_names"] = list(scenario_names)
    return config


def experiment_key(
    spec: ExperimentSpec,
    instructions: int,
    scenario_names: Optional[Sequence[str]] = None,
) -> str:
    """Content-address of one experiment under a run configuration."""
    config = spec_config(spec, instructions, scenario_names)
    return result_key(spec.name, config, spec.workloads())


def run_experiments(
    names: Optional[Sequence[str]] = None,
    instructions: int = SMOKE_INSTRUCTIONS,
    scenario_names: Optional[Sequence[str]] = None,
) -> RunReport:
    """Execute a selection of experiments (default: the whole paper).

    For each experiment, in registry order: consult the result store,
    else run the driver, whose sweeps follow the current session's
    config.  Freshly computed artifacts are stored immediately, making
    interrupted runs resumable.
    """
    registry = _registry()
    if names is None:
        names = list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(f"unknown experiment(s): {', '.join(sorted(unknown))}")

    report = RunReport(instructions=int(instructions))

    for name in registry:
        if name not in names:
            continue
        spec = registry[name]
        config = spec_config(spec, instructions, scenario_names)
        key = result_key(spec.name, config, spec.workloads())

        artifact = load_result(key, spec.name)
        if artifact is not None:
            report.outcomes.append(
                ExperimentOutcome(name, spec.title, key, "cached", artifact)
            )
            continue

        constants = spec.constants()
        result = spec.runner(
            **{
                parameter: value
                for parameter, value in config.items()
                if parameter not in constants
            }
        )
        artifact = build_frame_artifact(spec.name, spec.title, result)
        # First-writer-wins: when two orchestrations race on the same
        # key (overlapping CLI invocations, a resumed run racing a
        # zombie), every process converges on the first published
        # artifact instead of last-writer clobbering.
        _, artifact = store_result_cas(key, artifact, spec.name)
        report.outcomes.append(
            ExperimentOutcome(name, spec.title, key, "computed", artifact)
        )
    return report


def unconsumed_flags(
    names: Sequence[str],
    scenario_names: Optional[Sequence[str]],
    budget_flag: Optional[str] = None,
) -> List[str]:
    """Caller flags that no selected experiment's runner consumes.

    ``budget_flag`` names the flag an explicit instruction budget came
    from (``--instructions``/``--smoke``), so model-only
    selections (table2/table3) that take no budget report it instead of
    silently ignoring it.
    """
    registry = _registry()
    ignored = []
    if budget_flag is not None and not any(
        _accepts(registry[name].runner, "instructions") for name in names
    ):
        ignored.append(budget_flag)
    if scenario_names is not None and not any(
        _accepts(registry[name].runner, "scenario_names") for name in names
    ):
        ignored.append("--scenarios")
    return ignored


def write_manifest(report: RunReport, directory: str) -> str:
    """Emit every outcome of a run as CSV+JSON plus a manifest index.

    Returns the manifest path.  The per-experiment files are rendered
    from the artifacts alone, so runs served entirely from the result
    store emit bytes identical to the cold run that populated it.
    """
    ensure_directory(directory)
    entries: Dict[str, Dict[str, Any]] = {}
    for outcome in report.outcomes:
        csv_name = f"{outcome.name}.csv"
        json_name = f"{outcome.name}.json"
        write_artifact_csv(outcome.artifact, os.path.join(directory, csv_name))
        write_artifact_json(outcome.artifact, os.path.join(directory, json_name))
        entries[outcome.name] = {
            "title": outcome.title,
            "key": outcome.key,
            "status": outcome.status,
            "csv": csv_name,
            "json": json_name,
        }
    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "instructions": report.instructions,
        "experiments": entries,
    }
    path = os.path.join(directory, "manifest.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(manifest, stream, indent=2)
        stream.write("\n")
    return path
