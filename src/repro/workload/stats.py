"""Latency statistics: percentiles, CDFs, and the Fig. 10 summary table.

The paper reports, for each analysis configuration, the mean and the 50th /
90th / 95th / 99th percentile analysis latency, a cumulative-distribution
plot of latencies, and scatter plots of latency against program size.  This
module computes all three from raw ``(program size, latency)`` samples and
renders them as plain-text tables/series so that the benchmark harness can
print exactly the rows the paper's Fig. 10 contains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class LatencySample:
    """One analysis run: the program size when it ran and how long it took."""

    program_size: int
    seconds: float


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction``-th percentile (nearest-rank) of a list of samples."""
    if not samples:
        raise ValueError("cannot take a percentile of no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be within [0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p90 / p95 / p99, the columns of the Fig. 10 table."""
    if not samples:
        return {"mean": 0.0, "p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "mean": sum(samples) / len(samples),
        "p50": percentile(samples, 0.50),
        "p90": percentile(samples, 0.90),
        "p95": percentile(samples, 0.95),
        "p99": percentile(samples, 0.99),
    }


def cumulative_distribution(
    samples: Sequence[float], points: int = 50
) -> List[Tuple[float, float]]:
    """``(latency, fraction completed within latency)`` pairs for a CDF plot."""
    if not samples:
        return []
    ordered = sorted(samples)
    total = len(ordered)
    out: List[Tuple[float, float]] = []
    for index in range(points + 1):
        position = index / points
        latency = percentile(ordered, position) if position > 0 else ordered[0]
        completed = sum(1 for s in ordered if s <= latency) / total
        out.append((latency, completed))
    return out


def fraction_within(samples: Sequence[float], threshold: float) -> float:
    """The fraction of samples at or below ``threshold`` seconds."""
    if not samples:
        return 0.0
    return sum(1 for s in samples if s <= threshold) / len(samples)


def scatter_series(
    samples: Sequence[LatencySample], buckets: int = 20
) -> List[Tuple[int, float, float]]:
    """Bucketed ``(program size, mean latency, max latency)`` series.

    This is the textual stand-in for the paper's per-configuration scatter
    plots of analysis latency against program size.
    """
    if not samples:
        return []
    sizes = [s.program_size for s in samples]
    low, high = min(sizes), max(sizes)
    width = max(1, (high - low + 1) // buckets)
    grouped: Dict[int, List[float]] = {}
    for sample in samples:
        bucket = low + ((sample.program_size - low) // width) * width
        grouped.setdefault(bucket, []).append(sample.seconds)
    return [(bucket, sum(values) / len(values), max(values))
            for bucket, values in sorted(grouped.items())]


def format_summary_table(rows: Dict[str, Dict[str, float]]) -> str:
    """Render the Fig. 10 summary table for a set of configurations."""
    header = "%-12s %8s %8s %8s %8s %8s" % (
        "Analysis", "mean", "p50", "p90", "p95", "p99")
    lines = [header, "-" * len(header)]
    for name, summary in rows.items():
        lines.append("%-12s %8.3f %8.3f %8.3f %8.3f %8.3f" % (
            name, summary["mean"], summary["p50"], summary["p90"],
            summary["p95"], summary["p99"]))
    return "\n".join(lines)
