"""Shared configuration for the paper-figure benchmarks.

The paper's full workload (3,000 edits x 9 trials, 135,000 queries) takes
hours in pure Python; the checked-in defaults are scaled down so that
``pytest benchmarks/ --benchmark-only`` completes in a few minutes while
preserving the *shape* of every comparison (which configuration wins, by
roughly what factor, and where the tails are).  Set the environment
variables below to run closer to paper scale:

* ``REPRO_BENCH_EDITS``  — edits per trial (paper: 3000; default: 120)
* ``REPRO_BENCH_TRIALS`` — independent trials (paper: 9; default: 2)
"""

from __future__ import annotations

import os

import pytest


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@pytest.fixture(scope="session")
def workload_scale():
    """The (edits, trials) pair used by the Fig. 10 benchmarks."""
    return _env_int("REPRO_BENCH_EDITS", 120), _env_int("REPRO_BENCH_TRIALS", 2)


@pytest.fixture(scope="session")
def fig10_results(workload_scale):
    """Run the Fig. 10 workload once per session and share it across benches.

    Returns ``{configuration name: [LatencySample, ...]}`` pooled over all
    trials.
    """
    from repro.analysis.config import ALL_CONFIGURATIONS
    from repro.domains import OctagonDomain
    from repro.workload import generate_trials, run_trial

    edits, trials = workload_scale
    streams = generate_trials(edits=edits, trials=trials, base_seed=0)
    results = {}
    for configuration_cls in ALL_CONFIGURATIONS:
        samples = []
        for stream in streams:
            configuration = configuration_cls(OctagonDomain())
            samples.extend(run_trial(configuration, stream).samples)
        results[configuration_cls.name] = samples
    return results
