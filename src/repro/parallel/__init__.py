"""Parallel demanded evaluation: leaf summaries computed off the demand path.

The sequential interprocedural engine evaluates one summary at a time,
along the demand path.  A *leaf* procedure, one that calls nothing in the
program, has an exit that depends on its code and entry state alone, both
of which its summary key covers; so once its entry is predicted, a worker
can compute its summary while nothing else waits on it.  This package
exploits that:

* :mod:`repro.parallel.pool` — a persistent worker pool (process-backed,
  or serial inline) whose startup cost is paid once and amortized across
  analysis sessions;
* :mod:`repro.parallel.worker` — the self-contained summary job a worker
  runs: one (procedure, context, entry state) DAIG evaluation of a leaf,
  returning the exit and the DAIG's memo facts;
* :mod:`repro.parallel.coordinator` — speculates entry states down the
  call graph, dispatches the leaf keys to the pool in one batch, files
  their exits as seeds at the entries they were computed for, and lets
  the engine's own demand derive every entry.  Demand takes a seed only
  where it derives exactly its entry and neither the memo nor the store
  holds the summary, so parallelism never changes results, counters or
  store traffic — only how much of the demand path is already computed.
  Every job's memo facts are kept, since a fact is a pure domain
  computation.
"""

from .coordinator import ParallelCoordinator
from .pool import PersistentWorkerPool
from .worker import JobPayload, JobResult, run_summary_job

__all__ = [
    "JobPayload",
    "JobResult",
    "ParallelCoordinator",
    "PersistentWorkerPool",
    "run_summary_job",
]
