"""The workload driver: runs an edit/query stream against a configuration.

This is the harness behind the Fig. 10 experiments: it feeds the *same*
pre-generated stream of edits and queries (fixed random seeds, as in the
paper) to each analysis configuration, times every step, and collects
``(program size, latency)`` samples for the summary table, the CDF, and the
scatter series.  Each trial also records the configuration's per-phase
wall-clock split (structure / build / snapshot / splice / query).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

from .generator import WorkloadGenerator, WorkloadStep
from .stats import LatencySample, summarize

if TYPE_CHECKING:  # imported only for type checking to avoid an import cycle
    from ..analysis.config import AnalysisConfiguration


@dataclass
class WorkloadResult:
    """All samples collected from running one configuration over one trial."""

    configuration: str
    samples: List[LatencySample] = field(default_factory=list)
    #: Per-phase wall-clock seconds (structure / build / snapshot / splice /
    #: query), so regressions can be attributed to a phase, not just a total.
    phases: Dict[str, float] = field(default_factory=dict)

    def latencies(self) -> List[float]:
        return [sample.seconds for sample in self.samples]

    def summary(self) -> Dict[str, float]:
        return summarize(self.latencies())


def run_trial(
    configuration: "AnalysisConfiguration",
    steps: Sequence[WorkloadStep],
) -> WorkloadResult:
    """Run ``steps`` against ``configuration``, timing each step.

    Every step's latency covers the work the configuration does in response
    to the edit plus answering the five queries (eager configurations do all
    their work in the edit phase; demand-driven ones in the query phase).
    """
    result = WorkloadResult(configuration.name)
    for step in steps:
        started = time.perf_counter()
        configuration.step(step.edit, step.query_locations)
        elapsed = time.perf_counter() - started
        result.samples.append(LatencySample(step.program_size, elapsed))
    result.phases = configuration.phase_stats()
    return result


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
