"""Miss handling: the job registry and the importable queue worker.

A store miss becomes one single-item campaign on the durable work
queue (:func:`repro.exec.queue.enqueue_item`), claimed at interactive
priority ahead of default-priority batch campaigns sharing the
directory.  The campaign is enqueued under the request's
:class:`~repro.api.runtime_config.RuntimeConfig`, so its manifest
carries the service's retry budget, lease TTL and fault plan.  The
worker reference stored in the manifest is
:func:`experiment_job_worker` -- a plain module-level function -- so
any external ``repro-frontend worker`` process can resolve and drain
it; the worker runs the experiment through the orchestrator, which
publishes the artifact into the shared content-addressed result store,
where pollers of this service (or any other process) find it.

The registry itself is in-process bookkeeping only: job identity is
derived from the result key, completion is judged solely by the store,
and re-submitting an already-known miss is a no-op.  A restarted
server therefore forgets job *ids* but never results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exec.queue import INTERACTIVE_PRIORITY, enqueue_item
from repro.serve.resolve import ResolvedRequest

#: Length of the job id (a result-key prefix: collision-safe in
#: practice and directly correlatable with server logs and the store).
JOB_ID_LENGTH = 16


def experiment_job_worker(args) -> str:
    """Queue worker: compute one experiment, publish it to the store.

    ``args`` is ``(experiment_name, instructions)``.  Runs through the
    orchestrator, so the artifact lands in the shared result store
    under exactly the key the service resolved for the request; the
    small returned key is what the queue publishes as the item result.
    """
    name, instructions = args
    from repro.results.orchestrator import run_experiments

    report = run_experiments([name], instructions=int(instructions))
    return report.outcome(name).key


@dataclass
class Job:
    """One enqueued miss, addressable at ``/job/<id>``."""

    id: str
    experiment: str
    instructions: int
    key: str

    def describe(self) -> Dict[str, Any]:
        return {
            "job": self.id,
            "experiment": self.experiment,
            "instructions": self.instructions,
            "key": self.key,
            "poll": f"/job/{self.id}",
        }


class JobRegistry:
    """In-process index of enqueued misses, keyed by result-key prefix."""

    def __init__(self, queue_dir: str) -> None:
        self._queue_dir = queue_dir
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()

    @property
    def queue_dir(self) -> str:
        return self._queue_dir

    def submit(self, resolved: ResolvedRequest) -> Job:
        """Enqueue a miss (idempotent: same key -> same job)."""
        job_id = resolved.key[:JOB_ID_LENGTH]
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing
        enqueue_item(
            experiment_job_worker,
            (resolved.experiment, resolved.instructions),
            resolved.config,
            self._queue_dir,
            priority=INTERACTIVE_PRIORITY,
        )
        job = Job(
            id=job_id,
            experiment=resolved.experiment,
            instructions=resolved.instructions,
            key=resolved.key,
        )
        with self._lock:
            return self._jobs.setdefault(job_id, job)

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
