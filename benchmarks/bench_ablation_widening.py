"""Ablation: widening strategy (footnote 4 of the paper).

The DAIG encoding applies ∇ at every abstract iteration of a loop head until
two consecutive iterates agree.  Footnote 4 notes that other widening
strategies work too; a common one is *widening with thresholds*, which jumps
to a program-derived constant instead of straight to infinity and therefore
often proves tighter loop bounds at the cost of extra iterations.

This ablation compares the plain interval widening with a thresholded
variant on the array suite: number of demanded unrollings, analysis time,
and how many array accesses each verifies.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.analysis import ArraySafetyClient
from repro.daig import DaigEngine
from repro.domains.interval import IntervalDomain
from repro.domains.values import Interval, IntervalLattice
from repro.interproc import policy_by_name
from repro.lang import build_program_cfgs
from repro.lang.programs import ARRAY_PROGRAMS, array_program

#: Thresholds derived from the constants common in the subject programs.
THRESHOLDS = (0, 1, 2, 4, 8, 16, 32, 64)


class ThresholdIntervalLattice(IntervalLattice):
    """Interval widening that lands on the nearest threshold before ±∞."""

    name = "interval-thresholds"

    def widen(self, older: Interval, newer: Interval) -> Interval:
        if older.empty:
            return newer
        if newer.empty:
            return older
        lo: Optional[int] = older.lo
        if older.lo is not None and (newer.lo is None or newer.lo < older.lo):
            candidates = [t for t in THRESHOLDS
                          if newer.lo is not None and t <= newer.lo]
            lo = max(candidates) if candidates else None
        hi: Optional[int] = older.hi
        if older.hi is not None and (newer.hi is None or newer.hi > older.hi):
            candidates = [t for t in THRESHOLDS
                          if newer.hi is not None and t >= newer.hi]
            hi = min(candidates) if candidates else None
        return Interval(lo, hi)


class ThresholdIntervalDomain(IntervalDomain):
    """The environment domain over the thresholded interval lattice."""

    def __init__(self) -> None:
        super().__init__()
        self.lattice = ThresholdIntervalLattice()
        self.name = "interval-thresholds"


def _run_suite(domain_factory):
    verified = total = 0
    unrollings = 0
    started = time.perf_counter()
    for name in sorted(ARRAY_PROGRAMS):
        cfgs = build_program_cfgs(array_program(name))
        client = ArraySafetyClient(cfgs, policy_by_name("2-call-site"),
                                   domain=domain_factory())
        report = client.check(name)
        verified += report.verified
        total += report.total
        unrollings += sum(engine.stats.unrollings
                          for engine in client.engine.engines.values())
    elapsed = time.perf_counter() - started
    return verified, total, unrollings, elapsed


def test_ablation_widening_strategies(benchmark):
    plain = _run_suite(IntervalDomain)
    thresholded = _run_suite(ThresholdIntervalDomain)
    benchmark(lambda: (plain[:2], thresholded[:2]))

    print("\n=== Ablation: widening strategy (interval, 2-call-site) ===")
    print("%-22s %10s %12s %10s" % ("strategy", "verified", "unrollings", "time(s)"))
    print("%-22s %6d/%-6d %9d %10.2f" % ("widen-to-infinity", plain[0], plain[1],
                                          plain[2], plain[3]))
    print("%-22s %6d/%-6d %9d %10.2f" % ("widen-with-thresholds", thresholded[0],
                                          thresholded[1], thresholded[2],
                                          thresholded[3]))

    # Both strategies are sound and verify the whole suite; thresholds never
    # verify fewer accesses, and both converge (bounded unrollings).
    assert plain[0] == plain[1]
    assert thresholded[0] >= plain[0]
    assert plain[2] > 0 and thresholded[2] > 0


def test_ablation_widening_loop_unrollings(benchmark):
    """pytest-benchmark: demanded fixed point of one loop under thresholds."""
    cfgs = build_program_cfgs(array_program("sum"))

    def analyze():
        engine = DaigEngine(cfgs["main"].copy(), ThresholdIntervalDomain())
        engine.query_location(cfgs["main"].exit)
        return engine.stats.unrollings

    unrollings = benchmark(analyze)
    assert unrollings >= 1
