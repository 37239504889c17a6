"""Declarative experiment specifications.

Each experiment module (``repro.experiments.fig05_branch_mpki``, ...)
exposes a module-level ``SPEC``: the uniform interface the orchestrator
registers it behind.  A spec names the compute kernel (the ``run_*``
driver) and everything that must be folded into the content-addressed
result key -- the workload set and any semantic constants (geometries,
CMP names, predictor configurations) baked into the driver's defaults.
The runner's result renders its own table blocks (``result.tables()``),
so the spec carries no rendering hook.

Specs may also declare *dependencies*: experiments whose stored
artifacts they can be derived from without simulating anything (e.g.
Figure 11 is a per-benchmark slice of Figure 10's execution-time
metric).  Derivation is opportunistic -- when a dependency's artifact
is unavailable the driver simply runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

#: A derive hook: (dependency artifacts by name, resolved semantic
#: config) -> result object, or ``None`` to fall back to the runner.
DeriveFn = Callable[[Mapping[str, Mapping[str, Any]], Mapping[str, Any]], Optional[Any]]


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
    #: Experiments this one can be derived from (see :attr:`derive`).
    dependencies: Tuple[str, ...] = ()
    #: Optional derivation hook replacing the runner when every
    #: dependency artifact is available and compatible.
    derive: Optional[DeriveFn] = None
