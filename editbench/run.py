#!/usr/bin/env python3
"""Edit-to-answer latency benchmark for the demanded-abstract-interpretation engine.

Usage (from the root of a checkout)::

    python3 editbench/run.py --workload fig10-interval --seed 1 --seconds 30 --trace 0

Runs closed-loop IDE sessions of one workload (see ``workloads.py``) for
``--seconds`` seconds, at least the workload's minimum session count, with
session seeds derived from ``--seed``.  Every answer is checked against an
oracle outside the timed regions.  ``--trace 0`` measures with no
instrumentation and reports the end-to-end metrics; ``--trace 1`` runs
every session twice, untraced and with layer spans installed (alternating
which goes first), and reports the per-layer metrics of the traced passes
(self times, counts, ratios with their bases) and the tracing overhead.
End-to-end times are scaled to a nominal CPU speed measured by a reference
loop inside the same run (see ``NOMINAL_CALIBRATION_MS``); the wall clock
as measured is printed beside each.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every answer matched its oracle and every bypass
prediction held.  Run records land in ``editbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: End-to-end metrics (untraced run), in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("steps_per_s", "1/s"),
    ("open_cold_p50_ms", "ms"),
    ("open_warm_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (traced run).  ``*_s`` names of a span are its self
#: time; ratios are printed with their base.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("lang.structure_s", "s"),
    ("lang.structure_locs_reanalyzed", "count"),
    ("lang.structure_full_builds", "count"),
    ("daig.edit_s", "s"),
    ("daig.cells_dirtied", "count"),
    ("daig.snapshot_locs_resigned", "count"),
    ("daig.query_s", "s"),
    ("daig.cells_computed", "count"),
    ("daig.cells_reused", "count"),
    ("daig.reuse_ratio", "ratio"),
    ("daig.cells_restored", "count"),
    ("daig.unrollings", "count"),
    ("daig.memo_hit_ratio", "ratio"),
    ("daig.memo_lookups", "count"),
    ("daig.parallel_batches", "count"),
    ("domains.transfer_s", "s"),
    ("domains.join_s", "s"),
    ("domains.widen_s", "s"),
    ("domains.transfers", "count"),
    ("domains.intern_hit_ratio", "ratio"),
    ("domains.intern_lookups", "count"),
    ("interproc.edit_s", "s"),
    ("interproc.query_s", "s"),
    ("interproc.callsite_dirties", "count"),
    ("interproc.summary_hit_ratio", "ratio"),
    ("interproc.summary_lookups", "count"),
    ("interproc.summary_reentries", "count"),
    ("interproc.fixpoint_rounds", "count"),
    ("interproc.summary_cutoffs", "count"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.bytes_written", "B"),
    ("store.errors", "count"),
    ("parallel.run_s", "s"),
    ("parallel.dispatch_s", "s"),
    ("parallel.certify_s", "s"),
    ("parallel.jobs", "count"),
    ("parallel.certified_ratio", "ratio"),
    ("parallel.job_cpu_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("bench.step_samples", "count"),
    ("bench.calibration_ms", "ms"),
    ("bench.oracle_fallbacks", "count"),
)

#: Ratio metric -> (numerator count, denominator counts).
RATIOS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "daig.reuse_ratio": ("daig.cells_reused",
                         ("daig.cells_computed", "daig.cells_reused")),
    "daig.memo_hit_ratio": ("daig.memo_hits", ("daig.memo_lookups",)),
    "domains.intern_hit_ratio": ("domains.intern_hits",
                                 ("domains.intern_lookups",)),
    "interproc.summary_hit_ratio": ("interproc.summary_hits",
                                    ("interproc.summary_lookups",)),
    "parallel.certified_ratio": ("parallel.certified_jobs", ("parallel.jobs",)),
}


#: Time of the reference loop (:func:`calibrate`) on a nominal core.  The
#: host's CPU speed drifts by up to a third between runs minutes apart, and
#: the reference loop drifts with it, so every end-to-end time is reported
#: scaled by ``NOMINAL_CALIBRATION_MS / median loop time of the run``: the
#: time the step would take on the nominal core (for workloads whose
#: ``scaled`` is set).  The wall clock as measured is printed beside it and
#: kept in the run record.
NOMINAL_CALIBRATION_MS = 1.5


def session_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


def nearest_rank(values: List[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_session(workload: Any, seed: int, rec: Any) -> None:
    try:
        workload.session(seed, rec)
    except Exception:  # a failed session is reported, not fatal
        rec.fail(traceback.format_exc(limit=8))


def calibrate(samples: List[float], times: int = 3) -> None:
    """Time the reference loop (pure Python, like the engine) ``times``."""
    for _ in range(times):
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += (i * i) % 7
        samples.append(time.perf_counter() - started)


def repeat(workload: Any, seconds: float, body: Callable[[int], None],
           calibrations: List[float]) -> int:
    """Call ``body(index)`` until ``seconds`` have passed and the
    workload's minimum session count is met, calibrating before the first
    session and after each; returns the session count."""
    deadline = time.perf_counter() + seconds
    index = 0
    calibrate(calibrations)
    while index < workload.min_sessions or time.perf_counter() < deadline:
        body(index)
        calibrate(calibrations)
        index += 1
    return index


def end_to_end_metrics(workload: Any, rec: Any, scale: float) -> Dict[str, float]:
    """The end-to-end metrics, every time multiplied by ``scale`` (and the
    rate divided by it): 1.0 gives wall clock as measured.  A workload
    without warm opens reports its cold opens under both open metrics."""
    warm = rec.opens["warm" if workload.warm_opens else "cold"]
    return {
        "setup_s": statistics.median(rec.setups) * scale,
        "step_p50_ms": nearest_rank(rec.steps, 50) * 1e3 * scale,
        "step_tail_ms": (nearest_rank(rec.steps, workload.tail_percentile)
                         * 1e3 * scale),
        "steps_per_s": statistics.median(rec.session_rates) / scale,
        "open_cold_p50_ms": nearest_rank(rec.opens["cold"], 50) * 1e3 * scale,
        "open_warm_p50_ms": nearest_rank(warm, 50) * 1e3 * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(workload: Any, rec: Any, tracer: Any,
                      untraced_seconds: float) -> Dict[str, float]:
    from spans import ENTRY_POINTS

    counts = rec.counts
    metrics: Dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name in RATIOS:
            numerator, denominator = RATIOS[name]
            base = sum(counts.get(part, 0) for part in denominator)
            metrics[name] = counts.get(numerator, 0) / base if base else 0.0
        elif name.endswith("_s") and name[:-2] in ENTRY_POINTS:
            metrics[name] = tracer.self_seconds.get(name[:-2], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    metrics["store.bytes_written"] = tracer.bytes_written
    metrics["trace.overhead_frac"] = (rec.timed_seconds / untraced_seconds - 1.0
                                      if untraced_seconds > 0 else 0.0)
    metrics["bench.step_samples"] = len(rec.steps)
    metrics["bench.oracle_fallbacks"] = rec.oracle_fallbacks
    return metrics


def bypass_violations(workload: Any, rec: Any, tracer: Any = None) -> List[str]:
    """Counts (and, traced, span times) the workload predicts to be 0."""
    observed: Dict[str, float] = dict(rec.counts)
    if tracer is not None:
        observed.update({name + "_s": seconds
                         for name, seconds in tracer.self_seconds.items()})
        observed["store.bytes_written"] = tracer.bytes_written
    return ["%s = %r" % (name, value) for name, value in sorted(observed.items())
            if value and (name == "daig.parallel_batches"
                          or name.startswith(workload.zero_prefixes))]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> Dict[str, Any]:
    """Run one workload; returns the result record (the printed JSON's
    four keys plus ``details`` for the human-readable report)."""
    from spans import Tracer
    from workloads import Recorder, make_workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = make_workloads(OUT_DIR, quick=quick)
    if name not in workloads:
        raise SystemExit("unknown workload %r (choose from %s)"
                         % (name, ", ".join(workloads)))
    workload = workloads[name]
    untraced = Recorder()
    recorders = [untraced]
    calibrations: List[float] = []
    wall_clock: Dict[str, float] = {}
    if not trace:
        sessions = repeat(workload, seconds, lambda index: run_session(
            workload, session_seed(seed, index), untraced), calibrations)
        scale = (NOMINAL_CALIBRATION_MS / (statistics.median(calibrations) * 1e3)
                 if workload.scaled else 1.0)
        metrics = end_to_end_metrics(workload, untraced, scale)
        wall_clock = end_to_end_metrics(workload, untraced, 1.0)
        units = dict(END_TO_END)
        violations = bypass_violations(workload, untraced)
    else:
        tracer = Tracer()
        traced = Recorder(tracer)
        recorders.append(traced)

        def traced_pass(session: int) -> None:
            tracer.install()
            try:
                run_session(workload, session, traced)
            finally:
                tracer.uninstall()

        def both(index: int) -> None:
            # Each session runs untraced and traced, alternating which goes
            # first, so process warm-up and drift cancel in the overhead.
            passes = [lambda s: run_session(workload, s, untraced), traced_pass]
            for run_pass in passes if index % 2 == 0 else passes[::-1]:
                run_pass(session_seed(seed, index))

        sessions = repeat(workload, seconds, both, calibrations)
        metrics = per_layer_metrics(workload, traced, tracer,
                                    untraced.timed_seconds)
        metrics["bench.calibration_ms"] = statistics.median(calibrations) * 1e3
        units = dict(PER_LAYER)
        violations = (bypass_violations(workload, untraced)
                      + bypass_violations(workload, traced, tracer))
    attempted = sum(rec.attempted for rec in recorders)
    failed = sum(rec.failed for rec in recorders)
    failures = [message for rec in recorders for message in rec.failures]
    details = dict(workload.describe(), seed=seed, seconds=seconds,
                   trace=int(trace), sessions=sessions,
                   host_cpus=os.cpu_count() or 1,
                   step_samples=len(recorders[-1].steps),
                   open_samples=len(recorders[-1].opens["cold"]),
                   bypass_violations=violations, failures=failures[:20],
                   counts=recorders[-1].counts, wall_clock=wall_clock,
                   calibration_ms=statistics.median(calibrations) * 1e3)
    record = {
        "correct": failed == 0 and not violations,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
        "details": details,
    }
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                           % (name, seed, int(trace))), "w") as handle:
        json.dump(dict(printed(record), wall_clock=wall_clock), handle,
                  sort_keys=True)
    return record


def printed(record: Dict[str, Any]) -> Dict[str, Any]:
    """The four keys of the result line."""
    return {key: record[key]
            for key in ("correct", "attempted", "failed", "metrics")}


def report(record: Dict[str, Any]) -> None:
    details = record["details"]
    print("workload %s  seed %d  %s  %d sessions  host_cpus %d  clients 1  "
          "pool_workers %d" % (
              details["workload"], details["seed"],
              "traced" if details["trace"] else "untraced",
              details["sessions"], details["host_cpus"],
              details["pool_workers"]))
    print("why: %s" % details["why"])
    print("step_tail_ms is the nearest-rank p%g of %d step samples; "
          "open medians over %d opens each%s"
          % (details["step_tail_percentile"], details["step_samples"],
             details["open_samples"], "" if details["warm_opens"] else
             " (no store, so no warm start: open_warm_p50_ms repeats the "
             "cold opens' median; opens are untraced and uncounted)"))
    counts = details["counts"]
    wall_clock = details["wall_clock"]
    if wall_clock:
        print("reference loop %.4g ms (nominal %g ms): times below are %s, "
              "wall clock as measured in brackets"
              % (details["calibration_ms"], NOMINAL_CALIBRATION_MS,
                 "scaled to the nominal speed" if details["scaled"]
                 else "not scaled for this workload"))
    for name, metric in record["metrics"].items():
        line = "  %-34s %16.6g %s" % (name, metric["value"], metric["unit"])
        if name in wall_clock:
            line += "   [%.6g]" % wall_clock[name]
        if name in RATIOS:
            numerator, denominator = RATIOS[name]
            line += "   (%s / %s = %d / %d)" % (
                numerator, "+".join(denominator), counts.get(numerator, 0),
                sum(counts.get(part, 0) for part in denominator))
        print(line)
    print("predicted zero: %s -> %s" % (
        ", ".join(details["predicted_zero"]),
        "held" if not details["bypass_violations"]
        else "VIOLATED: " + "; ".join(details["bypass_violations"])))
    print("steps and opens checked against oracles: %d attempted, %d failed "
          "(failed_frac %.4g)" % (record["attempted"], record["failed"],
                                  record["failed"] / record["attempted"]))
    for message in details["failures"]:
        print(message, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("editbench: %s holds no src/repro to benchmark; run from the "
              "root of a repository checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    report(record)
    print(json.dumps(printed(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
