"""The exploration plan: a grid compiled onto the batched engines.

:class:`ExplorePlan` is the third declarative plan of
:mod:`repro.api.plan` (after the front-end sweep and the experiment
plan): it evaluates every point of a
:class:`~repro.explore.grid.GridSpec` over a workload selection and
yields one columnar grid frame plus the Pareto-frontier and per-axis
sensitivity views derived from it.

Execution strategy
------------------
The grid is split into *chunks* of :data:`CHUNK_POINTS` points; each
(workload, chunk) pair is one unit of work:

* A chunk's result is content-addressed in the result store
  (:func:`repro.results.store.result_key` over the chunk's full
  configuration dicts, the workload, and the seed), so an interrupted
  exploration resumes by replaying stored chunks and computing only the
  missing grid points -- across processes and machines sharing the
  store.
* Missing chunks run through :meth:`repro.api.session.Session.map`,
  so they inherit its executors (``--parallel`` runs them on the
  durable work queue, which external workers can join for
  fleet-scale grids) and mid-sweep kill/resume.
* Front-end chunks run through the batched
  :func:`repro.frontend.simulation.simulate_frontend_many` engine,
  whose work is shared per trace, not per chunk: every chunk of a
  workload in one process gets the same cached trace, and the engine
  memoizes on it each predictor's result and one LRU stack-distance
  histogram per BTB or I-cache set count.  The first chunk that needs
  a predictor or set count pays for it; the other chunks, and every
  associativity at that set count, reuse it.  So a grid's cost grows
  with its distinct predictors and set counts, not with its points or
  its chunk count, which is what makes thousands of configs per
  workload cheap.  CMP grids share one cached workload profile the
  same way.
* Each chunk is one item of a worker the package shares, headed by
  the trace it reads, ``(spec, instructions, seed)``, at the plan's
  seed for either grid kind: a front-end chunk runs
  :func:`repro.api.plan.frontend_rows`, the worker of a front-end sweep
  plan, and a CMP chunk ``(spec, instructions, seed, chips)`` runs
  :func:`repro.power.cmp_power.cmp_rows`, the worker of ``cmpsweep``
  and Figures 10 and 11.

Static per-point columns (area, power) are pure arithmetic and are
recomputed at assembly time rather than stored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.frame import ResultFrame
from repro.api.plan import frontend_rows
from repro.experiments.common import FrameResult, PayloadField, RowView
from repro.explore.grid import GridPoint, GridSpec
from repro.explore.pareto import ParetoFrontier
from repro.explore.sensitivity import sensitivity_frame
from repro.power.cmp_power import cmp_rows
from repro.trace.instruction import CodeSection
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.api.session import Session

#: Workloads an exploration runs over by default: the Figure 11
#: representative HPC/desktop mix (mirrors ``cmpsweep``), keeping
#: thousand-point grids tractable; pass ``workloads=`` for breadth.
DEFAULT_EXPLORE_WORKLOADS = ("CoEVP", "CoMD", "fma3d", "FT", "h264ref", "gobmk")

#: Grid points per stored chunk (the resume granularity).
CHUNK_POINTS = 64

#: Store namespace of the per-chunk artifacts.
EXPLORE_CHUNK_EXPERIMENT = "explore-chunk"

#: Metric columns of the grid frame, per grid kind.
FRONTEND_METRICS = (
    "branch_mpki",
    "btb_mpki",
    "icache_mpki",
    "total_mpki",
    "area_mm2",
    "power_w",
)
CMP_METRICS = ("time_s", "power_w", "energy_j", "area_mm2")

#: Default Pareto objectives per grid kind (all minimized).
DEFAULT_OBJECTIVES = {
    "frontend": ("area_mm2", "power_w", "total_mpki"),
    "cmp": ("area_mm2", "power_w", "time_s"),
}

#: Columns of the per-chunk worker rows, per grid kind: what
#: ``frontend_rows`` and ``cmp_rows`` return.
_CHUNK_COLUMNS = {
    "frontend": ("section", "point", "branch_mpki", "btb_mpki", "icache_mpki"),
    "cmp": ("point", "time_s", "power_w", "energy_j"),
}


def _chunk_artifact(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> Dict:
    """The stored form of one chunk: a minimal frame-native artifact."""
    from repro.results.artifacts import ARTIFACT_SCHEMA_VERSION, to_jsonable

    frame = ResultFrame.from_rows(columns, rows)
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "experiment": EXPLORE_CHUNK_EXPERIMENT,
        "title": "exploration grid chunk",
        "tables": [],
        "primary": "chunk",
        "frames": {"chunk": to_jsonable(frame.to_payload())},
        "payload": [],
    }


def _chunk_rows(artifact: Dict) -> List[List[Any]]:
    """Rows back out of a stored chunk artifact."""
    frame = ResultFrame.from_payload(artifact["frames"]["chunk"])
    return [list(row) for row in frame.data]


def _reject_duplicates(kind: str, names: Sequence[str]) -> None:
    """Raise ``ValueError`` naming every value listed more than once."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"duplicate {kind}(s): {', '.join(repeated)}")


def _cell(value: Any) -> str:
    """Table-cell formatter shared by the exploration views."""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


@dataclass
class ExploreResult(FrameResult):
    """The frames of one executed exploration.

    ``grid`` (primary)
        One row per (workload, [section,] point): the point's axis
        values and metrics.
    ``pareto``
        The non-dominated grid rows, per workload (and section).
    ``sensitivity``
        Per (axis, value, metric) mean/min/max over the grid.
    """

    kind: str
    instructions: int
    points: int
    workloads: List[str] = field(default_factory=list)
    objectives: List[str] = field(default_factory=list)
    chunks_total: int = 0
    chunks_cached: int = 0
    chunks_computed: int = 0
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "grid"
    PAYLOAD = (
        PayloadField.scalar("kind"),
        PayloadField.scalar("instructions"),
        PayloadField.scalar("points"),
        PayloadField.scalar("workloads"),
        PayloadField.scalar("objectives"),
    )

    def views(self) -> Sequence[RowView]:
        rendered = []
        for name, title in (
            (
                "pareto",
                f"Pareto frontier over {tuple(self.objectives)} "
                f"({self.points} grid points)",
            ),
            ("sensitivity", "per-axis sensitivity (mean/min/max over the grid)"),
        ):
            frame = self.frames.get(name)
            if frame is None:
                continue
            rendered.append(
                RowView(
                    frame=name,
                    columns=tuple(
                        (column, column, _cell) for column in frame.columns
                    ),
                    title=title,
                    name=name,
                )
            )
        return tuple(rendered)


@dataclass(frozen=True)
class ExplorePlan:
    """grid points x workloads -> grid/pareto/sensitivity frames.

    Build through :meth:`repro.api.session.Session.explore`; nothing
    runs until :meth:`execute` (or :meth:`result` for the full
    multi-frame result).
    """

    session: "Session"
    grid: GridSpec
    workloads: Tuple[WorkloadSpec, ...]
    sections: Tuple[CodeSection, ...]
    instructions: int
    seed: int = 0
    objectives: Tuple[str, ...] = ()
    use_store: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.objectives, str):
            raise TypeError(
                f"objectives must be a sequence of column names, not the string "
                f"{self.objectives!r}"
            )
        object.__setattr__(self, "objectives", tuple(self.objectives))
        if not self.workloads:
            raise ValueError("an exploration needs at least one workload")
        if not self.sections:
            raise ValueError("an exploration needs at least one section")
        for section in self.sections:
            if not isinstance(section, CodeSection):
                raise TypeError(f"expected a CodeSection, got {section!r}")
        if self.instructions < 1:
            raise ValueError(f"instructions must be >= 1, got {self.instructions}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _reject_duplicates("workload", [spec.name for spec in self.workloads])
        _reject_duplicates("section", [section.name for section in self.sections])
        _reject_duplicates("objective", self.objectives)
        metrics = FRONTEND_METRICS if self.grid.kind == "frontend" else CMP_METRICS
        for objective in self.objectives:
            if objective not in metrics:
                raise KeyError(
                    f"unknown objective {objective!r} for a {self.grid.kind} "
                    f"grid; expected a subset of {metrics}"
                )

    # -- description -------------------------------------------------

    @property
    def metrics(self) -> Tuple[str, ...]:
        """The metric columns this plan's grid frame carries."""
        return FRONTEND_METRICS if self.grid.kind == "frontend" else CMP_METRICS

    @property
    def resolved_objectives(self) -> Tuple[str, ...]:
        """The Pareto objectives (the kind's default unless overridden)."""
        return self.objectives or DEFAULT_OBJECTIVES[self.grid.kind]

    # -- content addressing ------------------------------------------

    def _section_names(self) -> List[str]:
        if self.grid.kind != "frontend":
            return [CodeSection.TOTAL.name]
        return [section.name for section in self.sections]

    def _chunk_material(self, chunk: Sequence[GridPoint]) -> Dict[str, Any]:
        """The key material of one chunk, shared by every workload."""
        return {
            "grid_kind": self.grid.kind,
            "points": [dataclasses.asdict(point.config) for point in chunk],
            "sections": self._section_names(),
            "instructions": self.instructions,
        }

    def _material_key(self, spec: WorkloadSpec, material: Dict[str, Any]) -> str:
        from repro.results.store import result_key

        return result_key(
            EXPLORE_CHUNK_EXPERIMENT, material, [spec.name], seed=self.seed
        )

    def chunk_key(self, spec: WorkloadSpec, chunk: Sequence[GridPoint]) -> str:
        """Content-address of one (workload, chunk) result.

        Keyed over the chunk's *complete* configuration dicts (not the
        axis values), so a change to how a point compiles -- defaults,
        naming, geometry derivation -- can never reuse a stale entry.
        """
        return self._material_key(spec, self._chunk_material(chunk))

    # -- execution ---------------------------------------------------

    def _chunks(self, points: Sequence[GridPoint]) -> List[Tuple[GridPoint, ...]]:
        return [
            tuple(points[start : start + CHUNK_POINTS])
            for start in range(0, len(points), CHUNK_POINTS)
        ]

    def _worker_arguments(self, spec: WorkloadSpec, chunk: Sequence[GridPoint]):
        head = (spec, self.instructions, self.seed)
        configs = tuple(point.config for point in chunk)
        if self.grid.kind == "frontend":
            return (*head, configs, self.sections)
        return (*head, configs)

    def result(self) -> ExploreResult:
        """Run the exploration and return every derived frame."""
        from repro.results.store import load_result, store_result_cas

        points = self.grid.points()
        if not points:
            raise ValueError("the grid compiled to zero points")
        chunks = self._chunks(points)
        columns = _CHUNK_COLUMNS[self.grid.kind]
        worker = frontend_rows if self.grid.kind == "frontend" else cmp_rows
        # Keys only address the store: without one, no chunk is keyed.
        materials = (
            [self._chunk_material(chunk) for chunk in chunks] if self.use_store else []
        )
        chunk_rows: Dict[Tuple[str, int], List[List[Any]]] = {}
        with self.session.activate():
            missing: List[Tuple[str, int, Optional[str]]] = []
            arguments = []
            for spec in self.workloads:
                for index, chunk in enumerate(chunks):
                    key = None
                    if self.use_store:
                        key = self._material_key(spec, materials[index])
                        artifact = load_result(key, EXPLORE_CHUNK_EXPERIMENT)
                        if artifact is not None:
                            chunk_rows[(spec.name, index)] = _chunk_rows(artifact)
                            continue
                    missing.append((spec.name, index, key))
                    arguments.append(self._worker_arguments(spec, chunk))
            if arguments:
                results = self.session.map(worker, arguments)
                for (name, index, key), rows in zip(missing, results):
                    rows = [list(row) for row in rows]
                    if self.use_store:
                        _, winner = store_result_cas(
                            key,
                            _chunk_artifact(columns, rows),
                            EXPLORE_CHUNK_EXPERIMENT,
                        )
                        rows = _chunk_rows(winner)
                    chunk_rows[(name, index)] = rows
        grid_frame = self._assemble(points, chunks, chunk_rows)
        frontier = ParetoFrontier.from_frame(
            grid_frame,
            self.resolved_objectives,
            group_by=(
                ("workload", "section")
                if self.grid.kind == "frontend"
                else ("workload",)
            ),
        )
        sensitivity = sensitivity_frame(
            grid_frame, self.grid.axis_names, self.metrics
        )
        return ExploreResult(
            kind=self.grid.kind,
            instructions=self.instructions,
            points=len(points),
            workloads=[spec.name for spec in self.workloads],
            objectives=list(self.resolved_objectives),
            chunks_total=len(chunks) * len(self.workloads),
            chunks_cached=len(chunks) * len(self.workloads) - len(missing),
            chunks_computed=len(missing),
            frames={
                "grid": grid_frame,
                "pareto": frontier.frame,
                "sensitivity": sensitivity,
            },
        )

    def _assemble(
        self,
        points: Sequence[GridPoint],
        chunks: Sequence[Tuple[GridPoint, ...]],
        chunk_rows: Dict[Tuple[str, int], List[List[Any]]],
    ) -> ResultFrame:
        """The grid frame: chunk metrics joined with static point columns."""
        axis_names = self.grid.axis_names
        if self.grid.kind == "frontend":
            from repro.power.core_power import frontend_area_power

            static = {}
            for point in points:
                budget = frontend_area_power(point.config)
                static[point.name] = (budget.total_area_mm2, budget.total_power_w)
            columns = (
                ("workload", "section", "point")
                + axis_names
                + FRONTEND_METRICS
            )
            rows = []
            for spec in self.workloads:
                measured: Dict[Tuple[str, str], List[Any]] = {}
                for index in range(len(chunks)):
                    for row in chunk_rows[(spec.name, index)]:
                        measured[(row[0], row[1])] = row[2:]
                for section in self.sections:
                    for point in points:
                        branch, btb, icache = measured[(section.name, point.name)]
                        area, power = static[point.name]
                        rows.append(
                            [spec.name, section.name, point.name]
                            + [value for _, value in point.values]
                            + [branch, btb, icache, branch + btb + icache]
                            + [area, power]
                        )
            return ResultFrame.from_rows(columns, rows)

        from repro.power.cmp_power import cmp_area_mm2

        areas = {point.name: cmp_area_mm2(point.config) for point in points}
        columns = ("workload", "point") + axis_names + CMP_METRICS
        rows = []
        for spec in self.workloads:
            measured = {}
            for index in range(len(chunks)):
                for row in chunk_rows[(spec.name, index)]:
                    measured[row[0]] = row[1:]
            for point in points:
                time_s, power_w, energy_j = measured[point.name]
                rows.append(
                    [spec.name, point.name]
                    + [value for _, value in point.values]
                    + [time_s, power_w, energy_j, areas[point.name]]
                )
        return ResultFrame.from_rows(columns, rows)

    def execute(self) -> ResultFrame:
        """Run the exploration and return the grid frame."""
        return self.result().frames["grid"]
