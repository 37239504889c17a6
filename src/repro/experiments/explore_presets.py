"""The preset exploration grids as registered experiments.

Surfaces the three :data:`~repro.explore.grid.GRID_PRESETS`
(``frontend``, ``smoke``, ``cmp``) behind the uniform
:class:`~repro.results.spec.ExperimentSpec` interface, so
``repro-frontend all`` regenerates them alongside the paper tables and
the results service can address a warm exploration by registry name
(``explore-frontend``/``explore-smoke``/``explore-cmp``).

The runner is a thin shim over :meth:`repro.api.session.Session.explore`
-- the same chunked, content-addressed execution path interactive
``Session.explore`` calls use -- so an exploration computed through
either entry point warms the other: the per-chunk store entries are
shared, and the registered experiment merely adds the assembled
grid/pareto/sensitivity artifact under its own orchestrator key.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.api.session import current_session
from repro.experiments.common import experiment_instructions, render_blocks
from repro.explore.grid import GRID_PRESETS, get_grid
from repro.explore.plan import (
    DEFAULT_EXPLORE_WORKLOADS,
    DEFAULT_OBJECTIVES,
    ExploreResult,
)
from repro.results.artifacts import TableBlock
from repro.results.spec import ExperimentSpec
from repro.trace.instruction import CodeSection

#: Registry names are the preset names under this prefix.
EXPLORE_EXPERIMENT_PREFIX = "explore-"


def preset_experiment_name(preset: str) -> str:
    """Registry name of one preset exploration (``explore-<preset>``)."""
    if preset not in GRID_PRESETS:
        known = ", ".join(sorted(GRID_PRESETS))
        raise KeyError(f"unknown grid preset {preset!r}; expected one of {known}")
    return EXPLORE_EXPERIMENT_PREFIX + preset


def run_explore_preset(
    preset: str, instructions: Optional[int] = None
) -> ExploreResult:
    """Run one preset exploration over the default workload mix.

    Executes through the current session's :meth:`~repro.api.session.
    Session.explore` plan (chunked, store-backed, resumable).
    """
    instructions = experiment_instructions(instructions)
    return current_session().explore(preset, instructions=instructions).result()


def run_explore_frontend(instructions: Optional[int] = None) -> ExploreResult:
    """The 96-point front-end preset grid (Pareto + sensitivity)."""
    return run_explore_preset("frontend", instructions)


def run_explore_smoke(instructions: Optional[int] = None) -> ExploreResult:
    """The 8-point smoke preset grid (CI-sized exploration)."""
    return run_explore_preset("smoke", instructions)


def run_explore_cmp(instructions: Optional[int] = None) -> ExploreResult:
    """The chip-level preset grid (cores x mixes x L2 slices)."""
    return run_explore_preset("cmp", instructions)


def tables_explore(result: ExploreResult) -> List[TableBlock]:
    """An exploration's pareto/sensitivity views as table blocks."""
    return result.tables()


def format_explore(result: ExploreResult) -> str:
    """Render an exploration's views as text tables."""
    return render_blocks(result.tables())


def _constants(preset: str) -> Dict[str, object]:
    """Key material: the compiled grid, sections, seed, and objectives.

    The grid description folds in every axis value, so editing a preset
    (or the point-compilation defaults behind it) re-keys the
    experiment.  Chunking granularity is deliberately absent -- it is
    an execution detail that cannot change the assembled frames.
    """
    grid = get_grid(preset)
    return {
        "grid": grid.describe(),
        "sections": [CodeSection.TOTAL.name],
        "seed": 0,
        "objectives": list(DEFAULT_OBJECTIVES[grid.kind]),
    }


def _explore_workloads() -> List[str]:
    """The default exploration workload mix (the Figure 11 six)."""
    return list(DEFAULT_EXPLORE_WORKLOADS)


def _spec(preset: str, title: str) -> ExperimentSpec:
    runners = {
        "frontend": run_explore_frontend,
        "smoke": run_explore_smoke,
        "cmp": run_explore_cmp,
    }
    return ExperimentSpec(
        name=preset_experiment_name(preset),
        title=title,
        runner=runners[preset],
        tables=tables_explore,
        workloads=_explore_workloads,
        constants=functools.partial(_constants, preset),
    )


FRONTEND_SPEC = _spec(
    "frontend",
    "Exploration: front-end preset grid (96 points, Pareto + sensitivity)",
)
SMOKE_SPEC = _spec(
    "smoke",
    "Exploration: smoke preset grid (8 points, CI-sized)",
)
CMP_SPEC = _spec(
    "cmp",
    "Exploration: chip-level preset grid (cores x mixes x L2)",
)

#: All preset-exploration specs, in preset order (orchestrator append).
SPECS = (FRONTEND_SPEC, SMOKE_SPEC, CMP_SPEC)
