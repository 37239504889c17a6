"""CMP design-space sweep scenarios (the Lumos-style grid layer).

Section V compares four hand-picked chip configurations.  This module
generalizes that comparison into *scenarios*: named grids of
:class:`~repro.uarch.cmp.CmpConfig` points spanning core counts (1-64),
baseline/tailored core mixes, and private-L2 sizes.  A scenario is pure
data -- the experiment driver (:mod:`repro.experiments.cmp_sweep`, CLI
command ``repro-frontend cmpsweep``) evaluates every point against the
workload profiles and reports time/power/energy normalized to the
scenario's first configuration.

Grid *construction* lives in :class:`repro.explore.grid.GridSpec`
(``GridSpec.cmp(...)``); the scenarios here compile through it.
:mod:`repro.explore` imports :func:`mix_config` from this module, so
this module must import :mod:`repro.explore` lazily (inside functions)
to keep the import graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.uarch.cmp import STANDARD_CMP_CONFIGS, CmpConfig

#: Bounds on the per-chip core count a sweep may request.
MIN_SWEEP_CORES = 1
MAX_SWEEP_CORES = 64

#: Core-mix labels understood by :func:`mix_config`.
CMP_MIXES = ("baseline", "tailored", "asymmetric", "asymmetric++")


@dataclass(frozen=True)
class SweepScenario:
    """A named grid of CMP configurations evaluated together.

    The first configuration is the normalization reference of every
    per-workload table the sweep reports.
    """

    name: str
    description: str
    cmps: Tuple[CmpConfig, ...]

    def __post_init__(self) -> None:
        if not self.cmps:
            raise ValueError("a sweep scenario needs at least one CMP")
        names = [cmp.name for cmp in self.cmps]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r} has duplicate CMP names")

    @property
    def reference(self) -> CmpConfig:
        """The configuration every metric is normalized to."""
        return self.cmps[0]


def mix_config(
    mix: str, total_cores: int, l2_kb_per_core: int = 256
) -> Optional[CmpConfig]:
    """One grid point: a core mix at a total core count and L2 size.

    Returns ``None`` for mixes that do not exist at the requested core
    count (an asymmetric chip needs at least one tailored core next to
    its baseline master).
    """
    if not MIN_SWEEP_CORES <= total_cores <= MAX_SWEEP_CORES:
        raise ValueError(
            f"total_cores must be within [{MIN_SWEEP_CORES}, {MAX_SWEEP_CORES}], "
            f"got {total_cores}"
        )
    if mix == "baseline":
        baseline, tailored = total_cores, 0
    elif mix == "tailored":
        baseline, tailored = 0, total_cores
    elif mix == "asymmetric":
        if total_cores < 2:
            return None
        baseline, tailored = 1, total_cores - 1
    elif mix == "asymmetric++":
        # Same area budget as `total_cores` baseline cores: the per-core
        # tailoring savings pay for one extra tailored core.
        if total_cores < 2:
            return None
        baseline, tailored = 1, total_cores
    else:
        raise ValueError(f"unknown core mix {mix!r}; expected one of {CMP_MIXES}")
    suffix = "" if l2_kb_per_core == 256 else f" {l2_kb_per_core}KB-L2"
    name = f"{baseline}B+{tailored}T{suffix}"
    return CmpConfig(
        name=name,
        baseline_cores=baseline,
        tailored_cores=tailored,
        l2_kb_per_core=l2_kb_per_core,
    )


def paper_scenario() -> SweepScenario:
    """The four Section V chips (Figures 10/11), as a scenario."""
    return SweepScenario(
        name="paper",
        description="the four Section V chips (Baseline/Tailored/Asymmetric/Asymmetric++)",
        cmps=tuple(STANDARD_CMP_CONFIGS),
    )


def core_scaling_scenario(
    core_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    mixes: Sequence[str] = ("baseline", "tailored", "asymmetric"),
) -> SweepScenario:
    """Baseline/tailored/asymmetric mixes across chip core counts."""
    from repro.explore.grid import GridSpec

    return SweepScenario(
        name="core-scaling",
        description=f"core mixes {tuple(mixes)} at {tuple(core_counts)} cores per chip",
        cmps=GridSpec.cmp(core_counts, mixes).configs(),
    )


def l2_scaling_scenario(
    l2_sizes_kb: Sequence[int] = (128, 256, 512, 1024),
    total_cores: int = 8,
) -> SweepScenario:
    """Private-L2 sizes for the asymmetric mix at one core count.

    The reference point keeps the paper's 256KB slices on the baseline
    mix, so the table reads as "what does resizing the L2 slices of an
    asymmetric chip buy over today's chip".
    """
    cmps: List[CmpConfig] = [mix_config("baseline", total_cores, 256)]
    for l2_kb in l2_sizes_kb:
        cmps.append(mix_config("asymmetric", total_cores, l2_kb))
    return SweepScenario(
        name="l2-scaling",
        description=(
            f"asymmetric {total_cores}-core chip with "
            f"{tuple(l2_sizes_kb)}KB L2 slices vs the baseline chip"
        ),
        cmps=tuple(cmps),
    )


def standard_scenarios() -> Dict[str, SweepScenario]:
    """The built-in scenarios, keyed by name."""
    scenarios = (paper_scenario(), core_scaling_scenario(), l2_scaling_scenario())
    return {scenario.name: scenario for scenario in scenarios}


def get_scenario(name: str) -> SweepScenario:
    """Look up a built-in scenario by name."""
    scenarios = standard_scenarios()
    if name not in scenarios:
        known = ", ".join(sorted(scenarios))
        raise KeyError(f"unknown sweep scenario {name!r}; expected one of {known}")
    return scenarios[name]
