"""Table III: front-end area and power share at the core level."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.api.frame import ResultFrame
from repro.experiments.common import (
    FrameResult,
    PayloadField,
    RowView,
    render_blocks,
)
from repro.power.core_power import CoreAreaPower, core_area_power
from repro.results.artifacts import TableBlock
from repro.results.spec import ExperimentSpec
from repro.uarch.core import BASELINE_CORE, TAILORED_CORE

#: The paper's Table III values (40nm, McPAT + CACTI) for comparison.
PAPER_TABLE3 = {
    "baseline": {
        "Total core": {"area_mm2": 2.49, "power_w": 0.85},
        "I-cache": {"area_mm2": 0.31, "power_w": 0.075},
        "BP": {"area_mm2": 0.14, "power_w": 0.032},
        "BTB": {"area_mm2": 0.125, "power_w": 0.017},
    },
    "tailored": {
        "Total core": {"area_mm2": 2.11, "power_w": 0.79},
        "I-cache": {"area_mm2": 0.14, "power_w": 0.049},
        "BP": {"area_mm2": 0.04, "power_w": 0.011},
        "BTB": {"area_mm2": 0.022, "power_w": 0.002},
    },
}

#: The front-end structures Table III itemizes, in row order.
TABLE3_STRUCTURES = ("I-cache", "BP", "BTB")


@dataclass
class Table3Result(FrameResult):
    """Modelled core-level area and power for both core flavours.

    Frames:

    ``structures`` (primary)
        One numeric row per (core, structure): modelled and paper
        area/power (the total-core row included).
    ``table``
        The rendered Table III rows (modelled next to paper values,
        plus the tailored/baseline ratio rows), preformatted.
    """

    cores: Dict[str, CoreAreaPower] = field(default_factory=dict)
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "structures"
    PAYLOAD = (PayloadField.scalar("cores"),)
    VIEWS = (
        RowView(
            "table",
            (
                ("core", "core", str),
                ("structure", "structure", str),
                ("area", "area [mm2]", str),
                ("paper_area", "paper area", str),
                ("power", "power [W]", str),
                ("paper_power", "paper power", str),
            ),
        ),
    )

    def area_ratio(self) -> float:
        """Tailored core area relative to the baseline core."""
        return (
            self.cores["tailored"].total_area_mm2
            / self.cores["baseline"].total_area_mm2
        )

    def power_ratio(self) -> float:
        """Tailored core power relative to the baseline core."""
        return (
            self.cores["tailored"].active_power_w
            / self.cores["baseline"].active_power_w
        )


def _result_frames(result: Table3Result) -> Dict[str, ResultFrame]:
    """The numeric structure rows and the rendered Table III rows."""
    structure_rows: List[tuple] = []
    table_rows: List[tuple] = []
    for core_name, budget in result.cores.items():
        paper = PAPER_TABLE3[core_name]
        structure_rows.append(
            (
                core_name,
                "Total core",
                budget.total_area_mm2,
                paper["Total core"]["area_mm2"],
                budget.active_power_w,
                paper["Total core"]["power_w"],
            )
        )
        table_rows.append(
            (
                core_name,
                "Total core",
                f"{budget.total_area_mm2:.2f}",
                f"{paper['Total core']['area_mm2']:.2f}",
                f"{budget.active_power_w:.2f}",
                f"{paper['Total core']['power_w']:.2f}",
            )
        )
        modelled = budget.frontend.as_rows()
        for structure in TABLE3_STRUCTURES:
            structure_rows.append(
                (
                    core_name,
                    structure,
                    modelled[structure]["area_mm2"],
                    paper[structure]["area_mm2"],
                    modelled[structure]["power_w"],
                    paper[structure]["power_w"],
                )
            )
            table_rows.append(
                (
                    core_name,
                    structure,
                    f"{modelled[structure]['area_mm2']:.3f}",
                    f"{paper[structure]['area_mm2']:.3f}",
                    f"{modelled[structure]['power_w']:.3f}",
                    f"{paper[structure]['power_w']:.3f}",
                )
            )
    table_rows.append(
        (
            "tailored/baseline",
            "area ratio",
            f"{result.area_ratio():.2f}",
            "0.84",
            "",
            "",
        )
    )
    table_rows.append(
        (
            "tailored/baseline",
            "power ratio",
            f"{result.power_ratio():.2f}",
            "0.93",
            "",
            "",
        )
    )
    columns = ["core", "structure", "area", "paper_area", "power", "paper_power"]
    return {
        "structures": ResultFrame.from_rows(
            [
                "core",
                "structure",
                "area_mm2",
                "paper_area_mm2",
                "power_w",
                "paper_power_w",
            ],
            structure_rows,
        ),
        "table": ResultFrame.from_rows(columns, table_rows),
    }


def run_table3() -> Table3Result:
    """Regenerate Table III from the area/power models."""
    result = Table3Result()
    for core in (BASELINE_CORE, TAILORED_CORE):
        result.cores[core.name] = core_area_power(core)
    result.frames.update(_result_frames(result))
    return result


def tables_table3(result: Table3Result) -> List[TableBlock]:
    """Table III as table blocks, with the paper's values side by side."""
    return result.tables()


def format_table3(result: Table3Result) -> str:
    """Render Table III with the paper's values side by side."""
    return render_blocks(result.tables())


def _constants() -> Dict[str, object]:
    """Key material: the two core flavours Table III budgets."""
    return {"cores": [BASELINE_CORE.name, TAILORED_CORE.name]}


SPEC = ExperimentSpec(
    name="table3",
    title="Table III: front-end area and power share at the core level",
    runner=run_table3,
    tables=tables_table3,
    constants=_constants,
)
