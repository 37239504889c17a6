"""Core front-end hardware structure simulators.

This subpackage models the three structures the paper proposes to
rebalance:

* branch predictors (:mod:`repro.frontend.predictors`): gshare,
  tournament (Alpha 21264 style), TAGE, a loop branch predictor, and a
  hybrid that augments any base predictor with the loop predictor,
* the branch target buffer (:mod:`repro.frontend.btb`), and
* the instruction cache (:mod:`repro.frontend.icache`).

:mod:`repro.frontend.simulation` drives a dynamic trace through these
structures and reports MPKI exactly as the paper's
microarchitecture-dependent pintools do (Section IV);
:mod:`repro.frontend.stack_distance` lets it answer every associativity
of one BTB or I-cache set count from a single LRU pass.
:mod:`repro.frontend.configs` defines the baseline and tailored
front-end configurations evaluated in Section V.
"""

from repro.frontend.predictors import (
    BimodalPredictor,
    BranchPredictor,
    GsharePredictor,
    LoopPredictor,
    PredictorWithLoop,
    TagePredictor,
    TournamentPredictor,
    make_predictor,
)
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.icache import InstructionCache
from repro.frontend.configs import (
    BASELINE_FRONTEND,
    TAILORED_FRONTEND,
    BranchPredictorConfig,
    BTBConfig,
    FrontEndConfig,
    ICacheConfig,
)
from repro.frontend.simulation import (
    BranchPredictionResult,
    BTBResult,
    ICacheResult,
    FrontEndResult,
    simulate_branch_predictor,
    simulate_btb,
    simulate_icache,
)

__all__ = [
    "BranchPredictor",
    "BimodalPredictor",
    "GsharePredictor",
    "TournamentPredictor",
    "TagePredictor",
    "LoopPredictor",
    "PredictorWithLoop",
    "make_predictor",
    "BranchTargetBuffer",
    "InstructionCache",
    "FrontEndConfig",
    "ICacheConfig",
    "BTBConfig",
    "BranchPredictorConfig",
    "BASELINE_FRONTEND",
    "TAILORED_FRONTEND",
    "BranchPredictionResult",
    "BTBResult",
    "ICacheResult",
    "FrontEndResult",
    "simulate_branch_predictor",
    "simulate_btb",
    "simulate_icache",
]
