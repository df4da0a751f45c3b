"""An interactive IDE session: interleaved edits and queries, four ways.

This example reproduces, at small scale, the Section 7.3 comparison: the
same stream of random program edits and abstract-state queries (as issued by
an IDE while the developer types) is fed to the four analysis
configurations — batch, incremental-only, demand-driven-only, and the full
incremental & demand-driven technique — over the octagon domain, and the
per-step latencies are compared.

Run it with ``python examples/interactive_ide_session.py [edits]``.
"""

import sys

from repro.analysis.config import (
    BatchConfiguration,
    DemandConfiguration,
    IncrementalConfiguration,
    IncrementalDemandConfiguration,
)
from repro.domains import OctagonDomain
from repro.workload import (
    format_summary_table,
    fraction_within,
    generate_trials,
    run_trial,
    summarize,
)


def main(edits: int = 60) -> None:
    print("Simulating an IDE session: %d edits, 5 queries after each edit\n" % edits)
    steps = generate_trials(edits=edits, trials=1, base_seed=42)[0]
    final_size = steps[-1].program_size
    print("The edited program grows to %d statements.\n" % final_size)

    configurations = {
        "batch": BatchConfiguration(OctagonDomain()),
        "incremental": IncrementalConfiguration(OctagonDomain()),
        "demand-driven": DemandConfiguration(OctagonDomain()),
        "incr+demand": IncrementalDemandConfiguration(OctagonDomain()),
    }

    rows = {}
    latencies = {}
    phases = {}
    for name, configuration in configurations.items():
        result = run_trial(configuration, steps)
        latencies[name] = result.latencies()
        rows[name] = summarize(result.latencies())
        phases[name] = result.phases
        print("%-14s done (total %.2fs)" % (name, sum(result.latencies())))

    print("\nPer-step analysis latency (seconds):")
    print(format_summary_table(rows))

    print("\nPer-phase breakdown (seconds: structure / build / snapshot / "
          "splice / query):")
    for name in configurations:
        split = phases[name]
        print("  %-14s %8.3f %8.3f %8.3f %8.3f %8.3f" % (
            name, split.get("structure", 0.0), split.get("build", 0.0),
            split.get("snapshot", 0.0), split.get("splice", 0.0),
            split.get("query", 0.0)))

    threshold = rows["incr+demand"]["p95"]
    print("\nFraction of steps answered within the incr+demand p95 (%.3fs):"
          % threshold)
    for name in configurations:
        print("  %-14s %.1f%%" % (name, 100 * fraction_within(latencies[name], threshold)))


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    main(count)
