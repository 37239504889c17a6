"""Declarative experiment specifications.

Each experiment module (``repro.experiments.fig05_branch_mpki``, ...)
exposes a module-level ``SPEC``: the uniform interface the orchestrator
registers it behind.  A spec names the compute kernel (the ``run_*``
driver) and everything that must be folded into the content-addressed
result key -- the workload set and any semantic constants (geometries,
CMP names, predictor configurations) baked into the driver's defaults.
The runner's result renders its own table blocks (``result.tables()``),
so the spec carries no rendering hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Tuple


def _no_workloads() -> Tuple[str, ...]:
    """Default workload set for model-only experiments (tables 2/3)."""
    return ()


def _no_constants() -> Mapping[str, Any]:
    return {}


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper artefact registered with the orchestrator."""

    #: Registry/CLI name, e.g. ``"fig5"``.
    name: str
    #: Human-readable description shown in manifests and ``list``.
    title: str
    #: The ``run_*`` driver (the compute kernel).
    runner: Callable[..., Any]
    #: Workload names folded into the result key (the default set the
    #: runner sweeps when invoked through the orchestrator).
    workloads: Callable[[], Tuple[str, ...]] = field(default=_no_workloads)
    #: Extra semantic configuration folded into the key: defaults baked
    #: into the driver that change its numbers (geometries, CMP names).
    constants: Callable[[], Mapping[str, Any]] = field(default=_no_constants)
