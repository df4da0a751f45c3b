"""Parallel demanded evaluation: SCC-wave scheduling across procedures.

The sequential interprocedural engine evaluates one summary at a time; the
call graph's SCC condensation, however, is full of *independent* summary
computations — procedures in the same condensation antichain share no
call path, so their exit summaries can be computed concurrently without
any coordination.  This package exploits that:

* :mod:`repro.parallel.pool` — a persistent worker pool (process-backed,
  or serial inline) whose startup cost is paid once and amortized across
  analysis sessions;
* :mod:`repro.parallel.worker` — the self-contained summary job a worker
  runs: one (procedure, context, entry state) DAIG evaluation against
  shipped callee summaries, returning the exit and the DAIG's memo facts;
* :mod:`repro.parallel.coordinator` — speculates entry states down the
  call graph, dispatches condensation waves to the pool, and *certifies*
  each speculated summary against the sequential semantics before seeding
  it into the live engine.  Uncertified exits are discarded; the
  sequential engine recomputes them on demand, so parallelism never
  changes results — only how fast the common case converges.  Every
  job's memo facts are kept, certified or not, since a fact is a pure
  domain computation.
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
