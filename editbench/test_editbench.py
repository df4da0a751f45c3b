"""Quick mode: every workload at a tiny scale, plus the span arithmetic.

Run from the repository root with ``python3 -m pytest editbench -q``.
Checks the result schema against ``BENCHMARK.json``, that every oracle
agreed, that each workload's bypass predictions held, that the traced run
reports a nonzero tracing overhead, and that nested spans' self times never
add up to more than the wall time of the region they sit in.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402  (needs src on the path)
from spans import Tracer  # noqa: E402
from workloads import make_workloads  # noqa: E402

WORKLOADS = sorted(make_workloads(run.OUT_DIR, quick=True))


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "editbench/run.py"]
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_quick_untraced_run(name):
    record = run.run_workload(name, seed=3, seconds=0, trace=False, quick=True)
    assert record["correct"], record["details"]["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    metrics = record["metrics"]
    assert list(metrics) == [metric for metric, _unit in run.END_TO_END]
    assert all(metric["value"] > 0 for metric in metrics.values()), metrics
    cold, warm = (metrics[key]["value"]
                  for key in ("open_cold_p50_ms", "open_warm_p50_ms"))
    if not record["details"]["warm_opens"]:
        assert warm == cold


@pytest.mark.parametrize("name", WORKLOADS)
def test_quick_traced_run(name):
    record = run.run_workload(name, seed=4, seconds=0, trace=True, quick=True)
    assert record["correct"], record["details"]
    metrics = {key: metric["value"] for key, metric in record["metrics"].items()}
    assert list(metrics) == [metric for metric, _unit in run.PER_LAYER]
    assert metrics["trace.overhead_frac"] != 0
    assert metrics["daig.query_s"] > 0 and metrics["domains.transfers"] > 0
    assert metrics["daig.parallel_batches"] == 0
    predicted = tuple(make_workloads(run.OUT_DIR, quick=True)[name].zero_prefixes)
    for key, value in metrics.items():
        if key.startswith(predicted):
            assert value == 0, key
    if name == "session-restart":
        assert metrics["parallel.jobs"] > 0 and metrics["store.writes"] > 0
    else:
        assert metrics["parallel.jobs"] == 0 and metrics["store.writes"] == 0


CALL_CHAIN = """
function leaf(x) { var y = 0; while (y < x) { y = y + 1; } return y; }
function middle(x) { var m = leaf(x); return m + 1; }
function main() { var a = middle(5); var b = middle(7); return a + b; }
"""


def test_nested_self_times_fit_in_the_wall_time():
    from repro.domains import IntervalDomain
    from repro.interproc import InterproceduralEngine
    from repro.lang import build_program_cfgs, parse_program

    engine = InterproceduralEngine(
        build_program_cfgs(parse_program(CALL_CHAIN)), IntervalDomain())
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        started = time.perf_counter()
        engine.query_entry_exit()
        wall = time.perf_counter() - started
    finally:
        tracer.active = False
        tracer.uninstall()
    # interproc.query -> daig.query -> (interproc call hook -> daig.query)
    # -> domains.*: every layer is entered, and each more than once.
    for name in ("interproc.query", "daig.query", "domains.transfer"):
        assert tracer.calls.get(name, 0) > 1, name
    assert sum(tracer.self_seconds.values()) <= wall
    # The engines' inclusive query phases count nested callee queries again
    # inside their callers; the self times above never do.
    inclusive = engine.total_phase_seconds()["query"]
    assert sum(tracer.self_seconds.values()) < inclusive
