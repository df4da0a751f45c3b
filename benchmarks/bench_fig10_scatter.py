"""Fig. 10 (scatter plots): analysis latency against program size.

The paper shows one scatter plot per configuration: batch latencies grow
steeply with program size, incremental-only and demand-driven-only grow more
slowly but still have heavy tails, and the combined configuration stays flat
as the program grows.  This benchmark regenerates the bucketed series and
checks the growth-trend comparison.
"""

from __future__ import annotations

from repro.analysis.config import BatchConfiguration
from repro.domains import OctagonDomain
from repro.workload import generate_trials, scatter_series


def _growth(samples):
    """Mean latency in the last size-bucket divided by the first (slope proxy)."""
    series = scatter_series(samples, buckets=6)
    if len(series) < 2:
        return 1.0
    first = max(series[0][1], 1e-9)
    return series[-1][1] / first


def test_fig10_scatter_series(fig10_results, benchmark):
    benchmark(lambda: {name: scatter_series(samples, buckets=6)
                       for name, samples in fig10_results.items()})
    print("\n=== Fig. 10 scatter series: program size -> (mean, max) latency ===")
    growth = {}
    final_bucket_mean = {}
    for name, samples in fig10_results.items():
        series = scatter_series(samples, buckets=6)
        rendered = "  ".join("%d:(%.3f,%.3f)" % (size, mean, worst)
                             for size, mean, worst in series)
        growth[name] = _growth(samples)
        # Average of the last two buckets: the largest-program regime, with
        # enough samples to damp per-bucket noise.
        tail = series[-2:] if len(series) >= 2 else series
        final_bucket_mean[name] = sum(mean for _size, mean, _max in tail) / len(tail)
        print("%-14s %s" % (name, rendered))
    print("\nLatency growth factor from smallest to largest programs:")
    for name, factor in growth.items():
        print("  %-14s %.1fx  (mean at final size: %.3fs)"
              % (name, factor, final_bucket_mean[name]))

    # Batch latency grows with program size (the paper's steep scatter) and,
    # at the largest programs of the run, the combined configuration is
    # well below batch and demand-driven — the flat-vs-steep contrast of the
    # paper's plots.  (The first-bucket latencies are microsecond noise, so
    # the comparison is on the final-size bucket rather than growth ratios.)
    assert growth["batch"] > 2.0
    assert final_bucket_mean["batch"] > 1.8 * final_bucket_mean["incr+demand"]
    assert final_bucket_mean["demand-driven"] > final_bucket_mean["incr+demand"]


def test_fig10_scatter_batch_step_at_final_size(benchmark, workload_scale):
    """pytest-benchmark: one full batch re-analysis at the final program size."""
    edits, _trials = workload_scale
    steps = generate_trials(edits=edits, trials=1, base_seed=5)[0]
    configuration = BatchConfiguration(OctagonDomain())
    for step in steps[:-1]:
        configuration.cfg and step.edit.apply_to_cfg(configuration.cfg)
    last = steps[-1]

    def analyze_once():
        from repro.daig import DaigEngine, MemoTable
        engine = DaigEngine(configuration.cfg.copy(), OctagonDomain(),
                            memo=MemoTable())
        engine.query_all()

    benchmark(analyze_once)
