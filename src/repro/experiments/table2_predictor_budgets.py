"""Table II: branch predictor size parameters and hardware cost."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.api.frame import ResultFrame
from repro.experiments.common import (
    FrameResult,
    PayloadField,
    RowView,
    fixed,
)
from repro.frontend.predictors import make_predictor
from repro.frontend.predictors.factory import PREDICTOR_KINDS, SIZE_PARAMETERS
from repro.results.spec import ExperimentSpec


@dataclass
class Table2Result(FrameResult):
    """Hardware cost (bits and KB) of every evaluated predictor config.

    Frames:

    ``budgets`` (primary)
        One row per (predictor, budget): storage bits and the Table II
        size-parameter dict.
    ``table``
        The rendered Table II rows (including the loop side predictor).
    """

    loop_predictor_bits: int = 0
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    PRIMARY = "budgets"
    PAYLOAD = (
        PayloadField.pivot(
            "storage_bits",
            "budgets",
            [["predictor", "budget"]],
            value="storage_bits",
        ),
        PayloadField.pivot(
            "parameters", "budgets", [["predictor", "budget"]], value="parameters"
        ),
        PayloadField.scalar("loop_predictor_bits"),
    )
    VIEWS = (
        RowView(
            "table",
            (
                ("predictor", "predictor", str),
                ("budget", "budget", str),
                ("parameters", "size parameters", str),
                ("cost_kb", "cost [KB]", fixed(2)),
            ),
        ),
    )

    def storage_kb(self, kind: str, budget: str) -> float:
        """Storage cost of one configuration in KB."""
        return self.storage_bits[(kind, budget)] / 8192.0


def run_table2() -> Table2Result:
    """Regenerate the Table II data from the predictor implementations."""
    budget_rows: List[tuple] = []
    table_rows: List[tuple] = []
    for kind in PREDICTOR_KINDS:
        for budget in ("small", "big"):
            bits = make_predictor(kind, budget).storage_bits()
            parameters = dict(SIZE_PARAMETERS[(kind, budget)])
            budget_rows.append((kind, budget, bits, parameters))
            rendered = ", ".join(f"{key}={value}" for key, value in parameters.items())
            table_rows.append((kind, budget, rendered, bits / 8192.0))
    loop_augmented = make_predictor("gshare", "small", with_loop=True)
    plain = make_predictor("gshare", "small")
    loop_predictor_bits = loop_augmented.storage_bits() - plain.storage_bits()
    table_rows.append(
        ("loop predictor", "64-entry", "side predictor", loop_predictor_bits / 8192.0)
    )
    return Table2Result(
        loop_predictor_bits=loop_predictor_bits,
        frames={
            "budgets": ResultFrame.from_rows(
                ["predictor", "budget", "storage_bits", "parameters"], budget_rows
            ),
            "table": ResultFrame.from_rows(
                ["predictor", "budget", "parameters", "cost_kb"], table_rows
            ),
        },
    )


def _constants() -> Mapping[str, object]:
    """Key material: the predictor configuration grid Table II sizes."""
    return {
        "predictor_kinds": list(PREDICTOR_KINDS),
        "budgets": ["small", "big"],
    }


SPEC = ExperimentSpec(
    name="table2",
    title="Table II: branch predictor size parameters and hardware cost",
    runner=run_table2,
    constants=_constants,
)
