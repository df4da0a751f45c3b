"""Synthetic edit/query workloads and latency statistics (Section 7.3)."""

from .edits import (
    DeleteStatement,
    InsertConditional,
    InsertLoop,
    InsertStatement,
    ProgramEdit,
    ReplaceStatement,
)
from .generator import (
    CONDITIONAL_PROBABILITY,
    LOOP_PROBABILITY,
    QUERIES_PER_EDIT,
    STATEMENT_PROBABILITY,
    MultiProcStep,
    MultiProcWorkload,
    WorkloadGenerator,
    WorkloadStep,
)
from .driver import (
    WorkloadResult,
    generate_trials,
    run_trial,
)
from .stats import (
    LatencySample,
    cumulative_distribution,
    format_summary_table,
    fraction_within,
    percentile,
    scatter_series,
    summarize,
)

__all__ = [
    "DeleteStatement",
    "InsertConditional",
    "InsertLoop",
    "InsertStatement",
    "ProgramEdit",
    "ReplaceStatement",
    "CONDITIONAL_PROBABILITY",
    "LOOP_PROBABILITY",
    "QUERIES_PER_EDIT",
    "STATEMENT_PROBABILITY",
    "MultiProcStep",
    "MultiProcWorkload",
    "WorkloadGenerator",
    "WorkloadStep",
    "WorkloadResult",
    "generate_trials",
    "run_trial",
    "LatencySample",
    "cumulative_distribution",
    "format_summary_table",
    "fraction_within",
    "percentile",
    "scatter_series",
    "summarize",
]
