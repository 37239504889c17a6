"""Content-addressed experiment results: store, specs, orchestrator.

The subpackage splits into:

* :mod:`repro.results.artifacts` -- the JSON-serializable form of a
  result (table blocks + payload) and its CSV/JSON emission,
* :mod:`repro.results.spec` -- the uniform :class:`ExperimentSpec`
  interface every experiment module registers itself behind,
* :mod:`repro.results.store` -- the content-addressed store (in-process
  layer plus the ``REPRO_RESULT_CACHE_DIR`` disk layer),
* :mod:`repro.results.orchestrator` -- dependency-ordered execution of
  any experiment selection with store reuse and manifest emission.

The orchestrator is intentionally *not* imported here: experiment
modules import ``repro.results.spec``/``artifacts`` at definition time,
and the orchestrator imports the experiment modules -- keeping this
``__init__`` free of the orchestrator avoids the import cycle.  Use
``from repro.results.orchestrator import run_experiments``.
"""

from repro.results.artifacts import TableBlock, block, to_jsonable
from repro.results.spec import ExperimentSpec
from repro.results.store import (
    RESULT_STORE_VERSION,
    clear_result_store,
    load_result,
    resolved_result_dir,
    result_key,
    result_store_info,
    store_result,
    store_result_cas,
)

__all__ = [
    "TableBlock",
    "block",
    "to_jsonable",
    "ExperimentSpec",
    "RESULT_STORE_VERSION",
    "clear_result_store",
    "load_result",
    "resolved_result_dir",
    "result_key",
    "result_store_info",
    "store_result",
    "store_result_cas",
]
