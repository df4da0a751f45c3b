"""The workload driver: runs an edit/query stream against a configuration.

This is the harness behind the Fig. 10 experiments: it feeds the *same*
pre-generated stream of edits and queries (fixed random seeds, as in the
paper) to each analysis configuration, times every step, and collects
``(program size, latency)`` samples for the summary table, the CDF, and the
scatter series.  Each trial also records the configuration's final work
counters (transfers, splice-vs-rebuild cell counts, ...), so the benchmarks
can report *how much* analysis each configuration actually performed, not
just how long it took.

``run_trial(..., batch_size=k)`` coalesces each ``k`` consecutive edits into
one :meth:`~repro.analysis.config.AnalysisConfiguration.apply_edits` call —
for the DAIG-backed configurations, a single splice — modelling a developer
who pauses to look at analysis results only every few keystrokes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from .generator import (MultiProcStep, MultiProcWorkload, WorkloadGenerator,
                        WorkloadStep)
from .stats import LatencySample, summarize

if TYPE_CHECKING:  # imported only for type checking to avoid an import cycle
    from ..analysis.config import (AnalysisConfiguration,
                                   InterproceduralConfiguration)


@dataclass
class WorkloadResult:
    """All samples collected from running one configuration over one trial."""

    configuration: str
    trial_seed: int
    samples: List[LatencySample] = field(default_factory=list)
    #: The configuration's cumulative work counters at the end of the trial
    #: (query stats, splice-vs-rebuild cell counts, and structure/snapshot
    #: phase counters for DAIG engines).
    work: Dict[str, int] = field(default_factory=dict)
    #: Per-phase wall-clock seconds (structure / snapshot / splice / query),
    #: so regressions can be attributed to a phase, not just a total.
    phases: Dict[str, float] = field(default_factory=dict)

    def latencies(self) -> List[float]:
        return [sample.seconds for sample in self.samples]

    def summary(self) -> Dict[str, float]:
        return summarize(self.latencies())


def run_trial(
    configuration: "AnalysisConfiguration",
    steps: Sequence[WorkloadStep],
    seed: int = 0,
    clock: Callable[[], float] = time.perf_counter,
    progress: Optional[Callable[[int, float], None]] = None,
    batch_size: int = 1,
) -> WorkloadResult:
    """Run ``steps`` against ``configuration``, timing each step.

    Every step's latency covers the work the configuration does in response
    to the edit plus answering the five queries (eager configurations do all
    their work in the edit phase; demand-driven ones in the query phase).
    With ``batch_size > 1``, consecutive edits are applied as one batch and
    the queries of the batch's last step are answered; the sample then covers
    the whole batch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    result = WorkloadResult(configuration.name, seed)
    for start in range(0, len(steps), batch_size):
        chunk = steps[start:start + batch_size]
        last = chunk[-1]
        started = clock()
        if len(chunk) == 1:
            configuration.step(last.edit, last.query_locations)
        else:
            configuration.apply_edits([step.edit for step in chunk])
            configuration.answer_queries(last.query_locations)
        elapsed = clock() - started
        result.samples.append(LatencySample(last.program_size, elapsed))
        if progress is not None:
            progress(last.index, elapsed)
    result.work = configuration.work_stats()
    _fold_memo_stats(configuration, result)
    result.phases = configuration.phase_stats()
    return result


def _fold_memo_stats(configuration: Any, result: WorkloadResult) -> None:
    """Fold the configuration's memo-table counters into ``result.work``
    under a stable ``memo_`` prefix (mirroring the ``summary_store_``
    prefix), so cutoff/reuse rates read from the same artifact as every
    other work counter."""
    engine = getattr(configuration, "engine", None)
    memo = getattr(engine, "memo", None)
    if memo is not None:
        for stat, value in memo.stats().items():
            if isinstance(value, int):
                result.work["memo_" + stat] = value


def run_interproc_trial(
    configuration: "InterproceduralConfiguration",
    steps: Sequence[MultiProcStep],
    seed: int = 0,
    clock: Callable[[], float] = time.perf_counter,
    progress: Optional[Callable[[int, float], None]] = None,
) -> WorkloadResult:
    """Run a multi-procedure edit/query stream against a configuration.

    The interprocedural analogue of :func:`run_trial`: each step's latency
    covers applying the edit to its procedure (plus whatever eager
    re-analysis the configuration performs) and answering the step's
    (procedure, location) queries.
    """
    result = WorkloadResult(configuration.name, seed)
    for step in steps:
        started = clock()
        configuration.step(step)
        elapsed = clock() - started
        result.samples.append(LatencySample(step.program_size, elapsed))
        if progress is not None:
            progress(step.index, elapsed)
    result.work = configuration.work_stats()
    # Persistent-store tier (if the configuration's engine carries one):
    # fold the backend's own counters in under a stable prefix, so
    # warm-start experiments can read hit rates and occupancy from the
    # same artifact as every other work counter.
    engine = getattr(configuration, "engine", None)
    store_stats = engine.store_stats() if engine is not None else None
    if store_stats is not None:
        for stat, value in store_stats.items():
            if isinstance(value, int):
                result.work["summary_store_" + stat] = value
    _fold_memo_stats(configuration, result)
    result.phases = configuration.phase_stats()
    return result


def generate_interproc_trials(
    edits: int,
    trials: int,
    base_seed: int = 0,
    procedures: int = 5,
    recursive: bool = False,
    queries_per_edit: int = 5,
) -> List[MultiProcWorkload]:
    """Pre-generate independent multi-procedure workloads (fixed seeds, so
    every configuration sees identical streams)."""
    workloads: List[MultiProcWorkload] = []
    for trial in range(trials):
        generator = WorkloadGenerator(seed=base_seed + trial,
                                      queries_per_edit=queries_per_edit)
        workloads.append(generator.generate_multiprocedure(
            edits, procedures=procedures, recursive=recursive))
    return workloads


def generate_trials(
    edits: int,
    trials: int,
    base_seed: int = 0,
    queries_per_edit: int = 5,
) -> List[List[WorkloadStep]]:
    """Pre-generate ``trials`` independent edit/query streams.

    Fixed seeds ensure every configuration sees identical streams, as the
    paper's methodology requires.
    """
    streams: List[List[WorkloadStep]] = []
    for trial in range(trials):
        generator = WorkloadGenerator(seed=base_seed + trial,
                                      queries_per_edit=queries_per_edit)
        streams.append(generator.generate(edits))
    return streams


def run_comparison(
    make_configurations: Callable[[], Dict[str, "AnalysisConfiguration"]],
    edits: int = 100,
    trials: int = 1,
    base_seed: int = 0,
    queries_per_edit: int = 5,
) -> Dict[str, List[WorkloadResult]]:
    """Run every configuration over every trial and return all results.

    ``make_configurations`` is called once per trial so that each trial
    starts from a fresh, empty program for every configuration.
    """
    streams = generate_trials(edits, trials, base_seed, queries_per_edit)
    results: Dict[str, List[WorkloadResult]] = {}
    for trial, steps in enumerate(streams):
        for name, configuration in make_configurations().items():
            outcome = run_trial(configuration, steps, seed=base_seed + trial)
            results.setdefault(name, []).append(outcome)
    return results


def merge_results(results: Dict[str, List[WorkloadResult]]) -> Dict[str, List[LatencySample]]:
    """Pool the samples of all trials per configuration."""
    pooled: Dict[str, List[LatencySample]] = {}
    for name, trials in results.items():
        pooled[name] = [sample for trial in trials for sample in trial.samples]
    return pooled
