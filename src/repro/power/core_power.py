"""Core-level area and power (the McPAT substitute, Table III).

A Cortex-A9-class core is modelled as its three front-end structures
(I-cache, branch predictor, BTB) plus a fixed "rest of the core" whose
area and power are calibrated so the baseline core reproduces the
paper's 2.49 mm^2 and 0.85 W totals at 40nm.  Only the front-end
changes between the baseline and tailored flavours, exactly as in the
paper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict

from repro.frontend.configs import BranchPredictorConfig, FrontEndConfig
from repro.power.sram import (
    SramArray,
    sram_for_btb,
    sram_for_icache,
    sram_for_predictor,
)
from repro.uarch.core import CoreModel

#: Area of everything outside the modelled front-end structures
#: (execution units, L1D, register files, TLBs, ...), 40nm.
REST_OF_CORE_AREA_MM2 = 1.92

#: Power of everything outside the modelled front-end structures when
#: the core is active.
REST_OF_CORE_POWER_W = 0.73

#: Nominal instruction throughput used to evaluate dynamic power (a
#: lean core at ~2 GHz and IPC close to 1).
NOMINAL_INSTRUCTIONS_PER_SECOND = 1.6e9

#: Fraction of active power a core still burns when idle (leakage plus
#: clock distribution).
IDLE_POWER_FRACTION = 0.35

#: Private L2 cache per core (area/power included in the CMP budget the
#: paper analyses: "cores and L2 caches").  The constants are the
#: paper's 256KB slice; other slice sizes scale through
#: :func:`l2_area_mm2` / :func:`l2_power_w`.
L2_REFERENCE_KB = 256
L2_AREA_MM2 = 1.10
L2_POWER_W = 0.12

#: Share of the reference L2 power that scales with capacity (leakage
#: and the data array); the rest (tags, control, bus) is treated as
#: size-independent.
_L2_CAPACITY_POWER_SHARE = 0.6


def l2_area_mm2(l2_kb: int = L2_REFERENCE_KB) -> float:
    """Area of one private L2 slice; SRAM area scales with capacity."""
    return L2_AREA_MM2 * (l2_kb / L2_REFERENCE_KB)


def l2_power_w(l2_kb: int = L2_REFERENCE_KB) -> float:
    """Power of one private L2 slice.

    The capacity-proportional share (leakage, data array) scales with
    the slice size; the fixed share does not.  At the reference 256KB
    this returns exactly :data:`L2_POWER_W`, keeping every existing
    Figure 10 result bit-identical.
    """
    ratio = l2_kb / L2_REFERENCE_KB
    return L2_POWER_W * (
        (1.0 - _L2_CAPACITY_POWER_SHARE) + _L2_CAPACITY_POWER_SHARE * ratio
    )


@dataclass(frozen=True)
class FrontEndAreaPower:
    """Area and power of the three front-end structures."""

    icache: SramArray
    predictor_bits: int
    btb_entries: int
    icache_area_mm2: float
    icache_power_w: float
    predictor_area_mm2: float
    predictor_power_w: float
    btb_area_mm2: float
    btb_power_w: float

    @property
    def total_area_mm2(self) -> float:
        """Combined front-end area."""
        return self.icache_area_mm2 + self.predictor_area_mm2 + self.btb_area_mm2

    @property
    def total_power_w(self) -> float:
        """Combined front-end power at nominal throughput."""
        return self.icache_power_w + self.predictor_power_w + self.btb_power_w

    def as_rows(self) -> Dict[str, Dict[str, float]]:
        """Per-structure area/power rows (for the Table III report)."""
        return {
            "I-cache": {"area_mm2": self.icache_area_mm2, "power_w": self.icache_power_w},
            "BP": {"area_mm2": self.predictor_area_mm2, "power_w": self.predictor_power_w},
            "BTB": {"area_mm2": self.btb_area_mm2, "power_w": self.btb_power_w},
        }


@dataclass(frozen=True)
class CoreAreaPower:
    """Total core area and power for one core flavour."""

    core_name: str
    frontend: FrontEndAreaPower
    rest_area_mm2: float = REST_OF_CORE_AREA_MM2
    rest_power_w: float = REST_OF_CORE_POWER_W

    @property
    def total_area_mm2(self) -> float:
        """Core area including the front-end."""
        return self.rest_area_mm2 + self.frontend.total_area_mm2

    @property
    def active_power_w(self) -> float:
        """Power while executing instructions."""
        return self.rest_power_w + self.frontend.total_power_w

    @property
    def idle_power_w(self) -> float:
        """Power while idle (leakage and clocking)."""
        return self.active_power_w * IDLE_POWER_FRACTION


@functools.lru_cache(maxsize=None)
def _predictor_storage_bits(config: BranchPredictorConfig) -> int:
    """Storage of a predictor configuration, built once per configuration.

    An exploration grid repeats each predictor configuration at every BTB
    and I-cache geometry, so plan assembly asks for the same few
    configurations once per grid point.
    """
    return config.build().storage_bits()


def frontend_area_power(
    config: FrontEndConfig,
    instructions_per_second: float = NOMINAL_INSTRUCTIONS_PER_SECOND,
) -> FrontEndAreaPower:
    """Evaluate the area and power of one front-end configuration."""
    icache = sram_for_icache(config.icache.size_bytes, config.icache.line_bytes)
    predictor_bits = _predictor_storage_bits(config.predictor)
    predictor_array = sram_for_predictor(predictor_bits)
    btb_array = sram_for_btb(config.btb.entries)
    return FrontEndAreaPower(
        icache=icache,
        predictor_bits=predictor_bits,
        btb_entries=config.btb.entries,
        icache_area_mm2=icache.area_mm2,
        icache_power_w=icache.power_w(instructions_per_second),
        predictor_area_mm2=predictor_array.area_mm2,
        predictor_power_w=predictor_array.power_w(instructions_per_second),
        btb_area_mm2=btb_array.area_mm2,
        btb_power_w=btb_array.power_w(instructions_per_second),
    )


def core_area_power(core: CoreModel) -> CoreAreaPower:
    """Evaluate total area and power of a core flavour."""
    return CoreAreaPower(
        core_name=core.name,
        frontend=frontend_area_power(core.frontend),
    )
