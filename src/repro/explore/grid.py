"""Declarative design-space grids: axes -> cross product -> configs.

A :class:`GridSpec` names the *axes* of a design space (predictor
family/budget, BTB and I-cache geometries for the front-end; core
counts, core mixes, and L2 slice sizes for whole chips) and compiles
their cross product into the concrete configuration objects the batched
engines consume -- :class:`~repro.frontend.configs.FrontEndConfig` for
``kind="frontend"`` grids, :class:`~repro.uarch.cmp.CmpConfig` for
``kind="cmp"`` grids.  Compilation is pure and deterministic: the same
spec always yields the same points in the same order, which is what
lets :class:`~repro.explore.plan.ExplorePlan` content-address each grid
chunk in the result store.

Constraints are plain predicates over the point's axis-value dict,
applied before configuration building::

    grid = GridSpec.frontend(
        predictor_budget=("small", "big"),
        btb_entries=(256, 512, 1024, 2048),
        constraints=(lambda p: p["btb_entries"] >= 512 or p["predictor_budget"] == "small",),
    )

For the ``cmp`` kind the axis nesting is ``l2_kb x cores x mix``,
mixes that do not exist at a core count are skipped, and identical
chips reachable through two mixes are emitted once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

from repro.frontend.configs import (
    BranchPredictorConfig,
    BTBConfig,
    FrontEndConfig,
    ICacheConfig,
)
from repro.frontend.predictors.factory import (
    PREDICTOR_BUDGETS,
    PREDICTOR_KINDS,
    STATIC_PREDICTOR_KINDS,
)
from repro.uarch.sweep import mix_config

#: The grid kinds a spec may compile to.
GRID_KINDS = ("frontend", "cmp")

#: Front-end axes in canonical order, with the baseline value each axis
#: takes when a grid does not sweep it.
FRONTEND_AXIS_DEFAULTS: "Dict[str, Any]" = {
    "predictor_kind": "tournament",
    "predictor_budget": "big",
    "predictor_loop": False,
    "btb_entries": 2048,
    "btb_associativity": 4,
    "icache_kb": 32,
    "icache_line_bytes": 64,
    "icache_associativity": 4,
}

#: CMP axes in canonical (nesting) order: ``l2 x count x mix``.
CMP_AXIS_ORDER = ("l2_kb", "cores", "mix")


@dataclass(frozen=True)
class Axis:
    """One named dimension of a grid: the values it sweeps, in order."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"axis {self.name!r} has duplicate values")


@dataclass(frozen=True)
class GridPoint:
    """One compiled point: its axis values and the built configuration.

    ``name`` is unique within the grid (it encodes every swept
    parameter) and doubles as the configuration's name, which is how
    the batched engines key their per-config results.
    """

    name: str
    values: Tuple[Tuple[str, Any], ...]
    config: Any

    def parameters(self) -> Dict[str, Any]:
        """The point's axis values as a plain dict."""
        return dict(self.values)


@dataclass(frozen=True)
class GridSpec:
    """A declarative design-space grid over named axes.

    ``kind`` selects the configuration family (``"frontend"`` or
    ``"cmp"``); ``axes`` are swept in order (the first axis is the
    outermost product loop); ``constraints`` filter points before any
    configuration is built.  Build specs through the
    :meth:`frontend` / :meth:`cmp` constructors, which validate axis
    names and fix the canonical axis order.
    """

    kind: str
    axes: Tuple[Axis, ...]
    constraints: Tuple[Callable[[Dict[str, Any]], bool], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in GRID_KINDS:
            raise ValueError(
                f"unknown grid kind {self.kind!r}; expected one of {GRID_KINDS}"
            )
        if not self.axes:
            raise ValueError("a grid needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate grid axes: {names}")
        known = (
            tuple(FRONTEND_AXIS_DEFAULTS) if self.kind == "frontend" else CMP_AXIS_ORDER
        )
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ValueError(
                f"unknown {self.kind} axis name(s) {', '.join(unknown)}; "
                f"expected a subset of {known}"
            )

    # -- construction ------------------------------------------------

    @classmethod
    def frontend(
        cls,
        name: str = "",
        constraints: Sequence[Callable[[Dict[str, Any]], bool]] = (),
        **axes: Sequence[Any],
    ) -> "GridSpec":
        """A front-end grid; keyword arguments name the swept axes.

        Axes follow the canonical order of
        :data:`FRONTEND_AXIS_DEFAULTS` regardless of keyword order;
        unswept parameters take their baseline value at compile time.
        """
        ordered = tuple(
            Axis(axis_name, tuple(axes[axis_name]))
            for axis_name in FRONTEND_AXIS_DEFAULTS
            if axis_name in axes
        )
        unknown = set(axes) - set(FRONTEND_AXIS_DEFAULTS)
        if unknown:
            raise ValueError(
                f"unknown front-end axis name(s) {', '.join(sorted(unknown))}; "
                f"expected a subset of {tuple(FRONTEND_AXIS_DEFAULTS)}"
            )
        return cls(
            kind="frontend", axes=ordered, constraints=tuple(constraints), name=name
        )

    @classmethod
    def cmp(
        cls,
        cores: Sequence[int],
        mixes: Sequence[str] = ("baseline", "tailored", "asymmetric"),
        l2_kb: Sequence[int] = (256,),
        name: str = "",
        constraints: Sequence[Callable[[Dict[str, Any]], bool]] = (),
    ) -> "GridSpec":
        """A CMP grid over core counts, core mixes, and L2 slice sizes.

        The axis nesting is fixed to the ``l2 x count x mix`` order.
        """
        return cls(
            kind="cmp",
            axes=(
                Axis("l2_kb", tuple(l2_kb)),
                Axis("cores", tuple(cores)),
                Axis("mix", tuple(mixes)),
            ),
            constraints=tuple(constraints),
            name=name,
        )

    # -- inspection --------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        """The swept axis names, in nesting order."""
        return tuple(axis.name for axis in self.axes)

    @property
    def size(self) -> int:
        """The raw cross-product size, before constraints and dedup."""
        return reduce(lambda total, axis: total * len(axis.values), self.axes, 1)

    def describe(self) -> Dict[str, Any]:
        """Plain-dict description (axes and their values, in order)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "axes": {axis.name: list(axis.values) for axis in self.axes},
            "constraints": len(self.constraints),
        }

    # -- compilation -------------------------------------------------

    def points(self) -> Tuple[GridPoint, ...]:
        """Compile the grid: the surviving points, in product order.

        Points a constraint rejects are dropped; ``cmp`` points whose
        mix does not exist at the core count are skipped and identical
        chips reachable through two mixes are emitted once (first
        occurrence wins, keeping its axis values).
        """
        build = _frontend_point if self.kind == "frontend" else _cmp_point
        points = []
        seen = set()
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            values = tuple(zip(self.axis_names, combo))
            parameters = dict(values)
            if not all(constraint(parameters) for constraint in self.constraints):
                continue
            point = build(values, parameters)
            if point is None or point.config in seen:
                continue
            seen.add(point.config)
            points.append(point)
        return tuple(points)

    def configs(self) -> Tuple[Any, ...]:
        """The compiled configuration objects, in point order."""
        return tuple(point.config for point in self.points())


def _frontend_point(
    values: Tuple[Tuple[str, Any], ...], parameters: Mapping[str, Any]
) -> GridPoint:
    merged = dict(FRONTEND_AXIS_DEFAULTS)
    merged.update(parameters)
    kind = merged["predictor_kind"]
    if kind not in PREDICTOR_KINDS + STATIC_PREDICTOR_KINDS:
        raise ValueError(
            f"unknown predictor_kind {kind!r}; expected one of "
            f"{PREDICTOR_KINDS + STATIC_PREDICTOR_KINDS}"
        )
    budget = merged["predictor_budget"]
    if budget not in PREDICTOR_BUDGETS:
        raise ValueError(
            f"unknown predictor_budget {budget!r}; expected one of "
            f"{PREDICTOR_BUDGETS}"
        )
    name = _frontend_point_name(merged)
    config = FrontEndConfig(
        name=name,
        icache=ICacheConfig(
            size_bytes=int(merged["icache_kb"]) * 1024,
            line_bytes=int(merged["icache_line_bytes"]),
            associativity=int(merged["icache_associativity"]),
        ),
        predictor=BranchPredictorConfig(
            kind=kind, budget=budget, with_loop=bool(merged["predictor_loop"])
        ),
        btb=BTBConfig(
            entries=int(merged["btb_entries"]),
            associativity=int(merged["btb_associativity"]),
        ),
    )
    return GridPoint(name=name, values=values, config=config)


def _frontend_point_name(merged: Mapping[str, Any]) -> str:
    """A compact, unique label encoding all eight front-end parameters."""
    loop = "L-" if merged["predictor_loop"] else ""
    return (
        f"{loop}{merged['predictor_kind']}-{merged['predictor_budget']}"
        f"|btb{merged['btb_entries']}x{merged['btb_associativity']}"
        f"|ic{merged['icache_kb']}KB-{merged['icache_line_bytes']}B"
        f"x{merged['icache_associativity']}"
    )


def _cmp_point(
    values: Tuple[Tuple[str, Any], ...], parameters: Mapping[str, Any]
) -> "GridPoint | None":
    config = mix_config(
        parameters["mix"], parameters["cores"], parameters["l2_kb"]
    )
    if config is None:
        return None
    return GridPoint(name=config.name, values=values, config=config)


# ---------------------------------------------------------------------------
# Preset grids (the registered ``explore-<preset>`` experiments)
# ---------------------------------------------------------------------------


def frontend_grid() -> GridSpec:
    """The default front-end exploration grid (96 points).

    Sweeps every predictor family and budget with and without the loop
    predictor against the two Section V BTB/I-cache corner geometries.
    """
    return GridSpec.frontend(
        name="frontend",
        predictor_kind=("gshare", "tournament", "tage"),
        predictor_budget=("small", "big"),
        predictor_loop=(False, True),
        btb_entries=(256, 2048),
        icache_kb=(16, 32),
        icache_line_bytes=(64, 128),
    )


def smoke_grid() -> GridSpec:
    """A tiny front-end grid (8 points) for smoke runs and CI."""
    return GridSpec.frontend(
        name="smoke",
        predictor_budget=("small", "big"),
        btb_entries=(256, 2048),
        icache_kb=(16, 32),
    )


def cmp_exploration_grid() -> GridSpec:
    """A chip-level grid: core counts x all four mixes x L2 slices."""
    return GridSpec.cmp(
        cores=(1, 2, 4, 8, 16, 32, 64),
        mixes=("baseline", "tailored", "asymmetric", "asymmetric++"),
        l2_kb=(128, 256, 512),
        name="cmp",
    )


#: Named preset grids, each registered as ``explore-<preset>``.
GRID_PRESETS: "Dict[str, Callable[[], GridSpec]]" = {
    "frontend": frontend_grid,
    "smoke": smoke_grid,
    "cmp": cmp_exploration_grid,
}


def get_grid(name: str) -> GridSpec:
    """Look up a preset grid by name."""
    if name not in GRID_PRESETS:
        known = ", ".join(sorted(GRID_PRESETS))
        raise KeyError(f"unknown grid preset {name!r}; expected one of {known}")
    return GRID_PRESETS[name]()
