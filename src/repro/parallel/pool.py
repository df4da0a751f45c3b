"""A persistent worker pool for summary jobs.

Process pools are expensive to start (a fresh interpreter plus the
analysis imports per worker); a pool that lives for one analysis and dies
is dominated by that startup cost — the prototype measured a 2.6x
query-phase speedup wiped out to 0.04x wall-clock by cold pool creation.
:class:`PersistentWorkerPool` therefore separates pool *lifetime* from
analysis lifetime: create it once, :meth:`warmup` it (forcing the imports
in every worker while nothing is waiting on them), and reuse it across
edits, benchmarks, and analysis sessions.

Backends (``kind``):

* ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor`; true
  parallelism, requires picklable jobs.  The default.
* ``"serial"`` — runs jobs inline on submit; the degenerate pool used to
  isolate coordinator logic from scheduling.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional

_KINDS = ("process", "serial")


class _ImmediateFuture:
    """The already-resolved future the serial backend returns."""

    __slots__ = ("_value", "_error")

    def __init__(self, value: Any = None, error: Optional[BaseException] = None):
        self._value = value
        self._error = error

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._error is not None:
            raise self._error
        return self._value


#: Seconds a warmup task waits for its siblings at the start barrier: a
#: worker that died or never booted makes :meth:`PersistentWorkerPool.warmup`
#: fail after this long instead of hang.
WARMUP_TIMEOUT = 60.0

#: The start barrier a process worker received from its initializer.
_barrier: Optional[Any] = None


def _init_worker(barrier: Any) -> None:
    """Process-worker initializer: keep the pool's start barrier."""
    global _barrier
    _barrier = barrier


def _warmup_task(_index: int) -> int:
    """Force the analysis imports inside a worker; returns its pid.

    The task waits at the start barrier until every worker holds one, so
    the executor cannot hand two of them to one worker while the others
    boot cold (it gives queued tasks to whichever worker is free)."""
    import repro.parallel.worker  # noqa: F401  (the import is the point)
    if _barrier is not None:
        _barrier.wait(WARMUP_TIMEOUT)
    return os.getpid()


class PersistentWorkerPool:
    """A reusable executor with explicit warmup.

    The underlying executor is created lazily on first submit (or warmup),
    so constructing a pool is free; ``close()`` tears it down, and the pool
    can be used as a context manager.
    """

    def __init__(self, workers: int = 2, kind: str = "process") -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        if kind not in _KINDS:
            raise ValueError("unknown pool kind %r (expected one of %s)"
                             % (kind, ", ".join(_KINDS)))
        self.workers = workers
        self.kind = kind
        self._executor: Optional[Any] = None
        self.warmed = False

    # -- lifecycle ---------------------------------------------------------------

    def _ensure_executor(self) -> Optional[Any]:
        if self.kind == "serial":
            return None
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker,
                initargs=(multiprocessing.Barrier(self.workers),))
        return self._executor

    def warmup(self) -> List[int]:
        """Start every worker and force the analysis imports in each.

        Pays the whole cold-start cost here — outside any measured or
        latency-sensitive region — so the first real wave dispatches onto
        already-initialized workers.  Returns the pid observed by each
        warmup task: one per process worker, because every task waits at
        a barrier until all of them have started.  Raises
        :class:`threading.BrokenBarrierError` when a worker does not reach
        the barrier within :data:`WARMUP_TIMEOUT` seconds.
        """
        executor = self._ensure_executor()
        if executor is None:
            self.warmed = True
            return [os.getpid()]
        # One task per worker slot: the pool spawns workers on demand, so
        # submitting fewer would leave some cold.
        futures = [executor.submit(_warmup_task, index)
                   for index in range(self.workers)]
        pids = [future.result() for future in futures]
        self.warmed = True
        return pids

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.warmed = False

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission --------------------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Submit a job; returns a future (resolved immediately when serial)."""
        executor = self._ensure_executor()
        if executor is None:
            try:
                return _ImmediateFuture(fn(*args))
            except BaseException as exc:  # mirror Future.result semantics
                return _ImmediateFuture(error=exc)
        return executor.submit(fn, *args)
