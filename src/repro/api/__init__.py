"""``repro.api``: the unified, typed entry point to the reproduction.

One import surface for the whole pipeline -- workloads -> traces ->
front-end simulations -> experiments::

    from repro.api import Session

    session = Session(instructions=60_000)
    frame = session.sweep(workloads=["FT", "LU"]).execute()
    print(frame.to_csv())

The pieces:

:class:`RuntimeConfig`
    Every ``REPRO_*`` knob, resolved once (explicit > env > default).
:class:`Session`
    Owns a config; typed methods for every pipeline stage.
:class:`FrontendSweepPlan` / :class:`ExperimentPlan` / :class:`ExplorePlan`
    Declarative descriptions of work; ``execute()`` runs them and
    returns the primary frame (see :mod:`repro.api.plan`).
    ``ExperimentPlan.report()`` and ``ExplorePlan.result()`` also carry
    provenance: store status and key, cached and computed chunks.
:class:`GridSpec` / :class:`ParetoFrontier`
    Declarative design-space grids and their non-dominated subsets
    (see :mod:`repro.explore`).
:class:`ResultFrame`
    The columnar result every plan yields.

Attributes load lazily (PEP 562) so the light pieces --
``RuntimeConfig``, ``ResultFrame`` -- are importable from the bottom of
the package without dragging in the session machinery.
"""

from typing import TYPE_CHECKING

__all__ = [
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

#: Where each public name lives; ``__getattr__`` resolves through this.
_EXPORTS = {
    "ENVIRONMENT_VARIABLES": "repro.api.runtime_config",
    "RuntimeConfig": "repro.api.runtime_config",
    "ResultFrame": "repro.api.frame",
    "FrontendSweepPlan": "repro.api.plan",
    "ExperimentPlan": "repro.api.plan",
    "ExplorePlan": "repro.explore.plan",
    "GridSpec": "repro.explore.grid",
    "ParetoFrontier": "repro.explore.pareto",
    "Session": "repro.api.session",
    "current_session": "repro.api.session",
}

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.api.frame import ResultFrame
    from repro.api.plan import ExperimentPlan, FrontendSweepPlan
    from repro.api.runtime_config import ENVIRONMENT_VARIABLES, RuntimeConfig
    from repro.api.session import Session, current_session
    from repro.explore.grid import GridSpec
    from repro.explore.pareto import ParetoFrontier
    from repro.explore.plan import ExplorePlan


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
