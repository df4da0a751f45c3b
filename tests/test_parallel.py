"""Tests for the parallel demanded evaluator: the persistent worker pool,
the summary-job worker, the speculate/dispatch/certify coordinator, and
memo-table thread discipline.

The correctness bar everywhere is *sequential equality*: a
coordinator-warmed engine must answer every query, and digest to, exactly
what a sequential engine produces — speculation that cannot be certified
is thrown away, never trusted.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.daig.memo import MemoTable
from repro.domains import ConstantDomain, IntervalDomain
from repro.interproc import InterproceduralEngine, policy_by_name
from repro.lang import build_program_cfgs, parse_program
from repro.lang.programs import wide_call_graph_source
from repro.parallel import (
    JobPayload,
    ParallelCoordinator,
    PersistentWorkerPool,
    run_summary_job,
)
from repro.workload import WorkloadGenerator

COMMON_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = ("insensitive", "1-call-site", "2-call-site")

CHAIN_PROGRAM = """
function leaf(x) {
  return x + 1;
}

function middle(y) {
  var m = leaf(y);
  return m;
}

function main() {
  var small = middle(1);
  var big = middle(100);
  return small + big;
}
"""

FACT_PROGRAM = """
function fact(n) {
  var r = 1;
  if (n > 1) {
    var m = n - 1;
    var s = fact(m);
    r = n * s;
  }
  return r;
}
function main() { var z = fact(5); return z; }
"""


def cfgs_of(source):
    return build_program_cfgs(parse_program(source))


def _fresh_copy(cfgs):
    return {name: cfg.copy() for name, cfg in cfgs.items()}


def _warmed_pair(source, domain, policy_name, pool):
    """(sequential engine, coordinator-warmed engine, report) on copies."""
    cfgs = cfgs_of(source)
    sequential = InterproceduralEngine(
        _fresh_copy(cfgs), domain, policy_by_name(policy_name))
    parallel = InterproceduralEngine(
        _fresh_copy(cfgs), domain, policy_by_name(policy_name))
    report = ParallelCoordinator(parallel, pool).run()
    return sequential, parallel, report


def _assert_results_equal(domain, left, right):
    assert set(left) == set(right)
    for key in left:
        assert set(left[key]) == set(right[key]), key
        for loc, state in left[key].items():
            assert domain.equal(state, right[key][loc]), (key, loc)


# ---------------------------------------------------------------------------
# PersistentWorkerPool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_rejects_zero_workers_and_unknown_kinds(self):
        with pytest.raises(ValueError):
            PersistentWorkerPool(workers=0)
        for kind in ("fork-bomb", "thread", "interpreter"):
            with pytest.raises(ValueError):
                PersistentWorkerPool(workers=2, kind=kind)

    def test_pool_defaults_to_process_and_starts_lazily(self):
        pool = PersistentWorkerPool()
        assert (pool.kind, pool.workers) == ("process", 2)
        # Construction is free: no executor until the first warmup/submit.
        assert pool._executor is None and not pool.warmed
        pool.close()  # closing a never-started pool is a no-op
        assert pool._executor is None

    def test_serial_pool_warms_and_survives_reuse(self):
        pool = PersistentWorkerPool(workers=2, kind="serial")
        try:
            # Jobs run inline, so the only "worker" is this process.
            assert pool.warmup() == [os.getpid()] and pool.warmed
            results = [pool.submit(lambda i=i: i * i).result()
                       for i in range(8)]
            assert results == [i * i for i in range(8)]
        finally:
            pool.close()
        assert not pool.warmed
        assert pool.submit(pow, 2, 10).result() == 1024  # usable after close
        pool.close()  # idempotent

    def test_serial_pool_runs_inline_and_propagates_errors(self):
        with PersistentWorkerPool(workers=1, kind="serial") as pool:
            assert pool.warmup() and pool.warmed
            assert pool.submit(lambda x: x + 1, 41).result() == 42
            failing = pool.submit(lambda: 1 // 0)
            with pytest.raises(ZeroDivisionError):
                failing.result()


# ---------------------------------------------------------------------------
# run_summary_job
# ---------------------------------------------------------------------------


class TestSummaryJob:
    def _payload(self, source, procedure, domain, summaries=None):
        cfgs = cfgs_of(source)
        return JobPayload(
            procedure=procedure,
            cfg=cfgs[procedure].copy(),
            context=(),
            entry=domain.initial(cfgs[procedure].params),
            policy_name="context-insensitive",
            domain_spec=domain.name,
            callee_params={name: tuple(cfg.params)
                           for name, cfg in cfgs.items()},
            summaries=dict(summaries or {}),
        )

    def test_leaf_job_matches_sequential_exit(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain)
        engine.query("leaf", engine.cfgs["leaf"].exit)
        expected = engine.analyze_everything()[("leaf", ())][
            engine.cfgs["leaf"].exit]
        result = run_summary_job(self._payload(CHAIN_PROGRAM, "leaf", domain))
        assert result.error is None and not result.incomplete
        assert domain.equal(result.exit_state, expected)
        assert result.cpu_seconds >= 0.0

    def test_missing_callee_summary_marks_incomplete(self):
        domain = IntervalDomain()
        result = run_summary_job(
            self._payload(CHAIN_PROGRAM, "middle", domain))
        assert result.error is None
        assert result.incomplete  # leaf's summary was not shipped
        assert ("leaf", ()) in result.contribs
        assert not result.used

    def test_shipped_summary_is_consumed_and_reported_used(self):
        domain = IntervalDomain()
        leaf = run_summary_job(self._payload(CHAIN_PROGRAM, "leaf", domain))
        entry = domain.initial(("x",))
        result = run_summary_job(self._payload(
            CHAIN_PROGRAM, "middle", domain,
            summaries={("leaf", ()): (entry, leaf.exit_state)}))
        assert result.error is None and not result.incomplete
        assert result.used == frozenset({("leaf", ())})

    def test_worker_failures_are_reported_not_raised(self):
        domain = IntervalDomain()
        payload = self._payload(CHAIN_PROGRAM, "leaf", domain)
        payload.domain_spec = "no-such-domain"
        result = run_summary_job(payload)
        assert result.error is not None and "no-such-domain" in result.error
        assert result.exit_state is None


# ---------------------------------------------------------------------------
# ParallelCoordinator: sequential equality, certified by digest
# ---------------------------------------------------------------------------


class TestCoordinator:
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_warmed_engine_digests_equal_sequential(self, policy_name):
        domain = IntervalDomain()
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            sequential, parallel, report = _warmed_pair(
                wide_call_graph_source(4, inner_loops=1), domain,
                policy_name, pool)
            sequential.query_entry_exit()
            parallel.query_entry_exit()
            assert parallel.summary_digest() == sequential.summary_digest()
            assert report["jobs"] > 0 and not report["errors"]
            assert report["certified"] == report["jobs"]

    def test_wave_shape_and_counters_on_wide_workload(self):
        domain = IntervalDomain()
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            _sequential, parallel, report = _warmed_pair(
                wide_call_graph_source(5, inner_loops=1), domain,
                "insensitive", pool)
        # One wave of the five independent workers, then main's wave.
        assert report["wave_sizes"] == [5, 1]
        assert report["jobs_per_wave"] > 1
        assert parallel.counters["interproc_parallel_jobs"] == report["jobs"]
        assert parallel.counters["interproc_parallel_waves"] == 2
        # Sequential engines never touch the parallel counters.
        fresh = InterproceduralEngine(
            cfgs_of(CHAIN_PROGRAM), IntervalDomain())
        fresh.query_entry_exit()
        assert fresh.counters["interproc_parallel_jobs"] == 0
        assert fresh.counters["interproc_parallel_waves"] == 0

    def test_total_phase_seconds_carry_the_coordinator_phases(self):
        domain = IntervalDomain()
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            _sequential, parallel, report = _warmed_pair(
                CHAIN_PROGRAM, domain, "insensitive", pool)
        parallel.query_entry_exit()
        phases = parallel.total_phase_seconds()
        assert set(phases) == {"structure", "snapshot", "splice", "query",
                               "speculate", "dispatch", "certify"}
        # The coordinator's phases are its own; no DAIG adds to them.
        for key, seconds in report["phase_seconds"].items():
            assert phases[key] == seconds
        assert report["jobs"] > 0 and phases["dispatch"] > 0.0

    def test_recursive_procedures_are_excluded_but_results_still_agree(self):
        domain = IntervalDomain()
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            sequential, parallel, report = _warmed_pair(
                FACT_PROGRAM, domain, "insensitive", pool)
        assert "fact" in report["excluded_procedures"]
        # main's forward cone includes the recursive callee, so nothing is
        # dispatched — and the engine falls back to sequential evaluation.
        sequential.query_entry_exit()
        parallel.query_entry_exit()
        assert parallel.summary_digest() == sequential.summary_digest()

    def test_constant_domain_agrees_too(self):
        domain = ConstantDomain()
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            sequential, parallel, _report = _warmed_pair(
                CHAIN_PROGRAM, domain, "1-call-site", pool)
        sequential.query_entry_exit()
        parallel.query_entry_exit()
        assert parallel.summary_digest() == sequential.summary_digest()

    def test_locality_counters_unchanged_by_warming(self):
        """Warming scans no call site and rebuilds no procedure's CFG
        structure, through the coordinator run and the final query."""
        cfgs = cfgs_of(wide_call_graph_source(4, inner_loops=1))
        for cfg in cfgs.values():
            cfg.ensure_structure()  # lowering the CFG is not analysis
        parallel = InterproceduralEngine(
            cfgs, IntervalDomain(), policy_by_name("insensitive"))

        def full_builds():
            return sum(cfg.structure_stats()["structure_full_builds"]
                       for cfg in parallel.cfgs.values())

        before = full_builds()
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            ParallelCoordinator(parallel, pool).run()
        parallel.query_entry_exit()
        assert parallel.counters["interproc_callsite_scans"] == 0
        assert full_builds() == before

    def test_process_pool_round_trips_interned_states(self):
        """One real multiprocess run: payloads pickle out, results pickle
        back, and every received state re-interns to coordinator-process
        canonical objects (digest equality would fail otherwise)."""
        domain = IntervalDomain()
        pool = PersistentWorkerPool(workers=2, kind="process")
        try:
            pids = pool.warmup()
            assert len(pids) == 2
            sequential, parallel, report = _warmed_pair(
                wide_call_graph_source(3, inner_loops=1), domain,
                "insensitive", pool)
            assert not report["errors"]
            sequential.query_entry_exit()
            parallel.query_entry_exit()
            assert parallel.summary_digest() == sequential.summary_digest()
        finally:
            pool.close()
        pool.close()  # idempotent


# ---------------------------------------------------------------------------
# ParallelCoordinator + persistent store
# ---------------------------------------------------------------------------


class TestCoordinatorStore:
    def test_coordinator_serves_probed_keys_from_store(self, tmp_path):
        """A warm coordinator run answers previously stored keys without
        dispatching a worker, and the results stay digest-equal.  The one
        dispatched job (``main``) calls only store-served keys, whose exits
        are not shipped, so it comes back incomplete and is knocked out."""
        from repro.store import SqliteSummaryStore, open_store

        domain = IntervalDomain()
        source = wide_call_graph_source(4, inner_loops=1)
        store = SqliteSummaryStore(str(tmp_path / "warm.db"))
        cold = InterproceduralEngine(cfgs_of(source), domain, store=store)
        cold.query_entry_exit()
        cold_digest = cold.summary_digest()

        warm = InterproceduralEngine(
            cfgs_of(source), domain,
            store=open_store("sqlite:%s" % store.path))
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            report = ParallelCoordinator(warm, pool).run()
        assert report["store_served"] > 0
        assert not report["errors"]
        # Store-served keys never became worker jobs.
        assert report["jobs"] + report["store_served"] >= 4
        assert report["wave_jobs"] == [[repr(("main", ()))]]
        assert report["incomplete"] == report["knocked_out"] == 1
        warm.query_entry_exit()
        assert warm.summary_digest() == cold_digest

    def test_store_results_survive_a_real_process_pool(self, tmp_path):
        """End to end across process boundaries: store-served keys plus
        process-pool jobs, and the warmed engine digests equal."""
        from repro.store import SqliteSummaryStore

        domain = IntervalDomain()
        source = wide_call_graph_source(3, inner_loops=1)
        store = SqliteSummaryStore(str(tmp_path / "multi.db"))
        cold = InterproceduralEngine(cfgs_of(source), domain, store=store)
        cold.query_entry_exit()
        cold_digest = cold.summary_digest()

        warm = InterproceduralEngine(cfgs_of(source), domain, store=store)
        pool = PersistentWorkerPool(workers=2, kind="process")
        try:
            pool.warmup()
            report = ParallelCoordinator(warm, pool).run()
        finally:
            pool.close()
        assert not report["errors"]
        warm.query_entry_exit()
        assert warm.summary_digest() == cold_digest


# ---------------------------------------------------------------------------
# MemoTable thread discipline (satellite: concurrent readers, one writer)
# ---------------------------------------------------------------------------


class TestMemoThreading:
    def test_sequential_table_asserts_foreign_writer(self):
        """Regression: a sequential-mode table must loudly reject stores
        from a thread other than its creator instead of silently racing."""
        table = MemoTable()
        failures = []

        def foreign_store():
            try:
                table.store("transfer", (1,), "value")
            except AssertionError as exc:
                failures.append(exc)

        thread = threading.Thread(target=foreign_store)
        thread.start()
        thread.join()
        assert len(failures) == 1
        assert "thread_safe" in str(failures[0])
        table.store("transfer", (1,), "value")  # owner still may write
        hit, value = table.lookup("transfer", (1,))
        assert hit and value == "value"

    def test_thread_safe_table_supports_concurrent_mixed_access(self):
        """Hammer one bounded table from several threads; the LRU order,
        entry bound, and eviction counter must stay consistent."""
        capacity = 64
        table = MemoTable(capacity=capacity, thread_safe=True)
        threads, errors = [], []
        stores_per_thread = 200

        def worker(tid):
            try:
                for i in range(stores_per_thread):
                    table.store("transfer", (tid, i), tid * i)
                    table.lookup("transfer", (tid, i))
                    table.lookup("transfer", ((tid + 1) % 4, i))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        for tid in range(4):
            threads.append(threading.Thread(target=worker, args=(tid,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(table) <= capacity
        # Keys are distinct, so every store beyond the bound evicted one.
        assert table.evictions == 4 * stores_per_thread - len(table)


# ---------------------------------------------------------------------------
# Property: parallel == sequential after random multi-procedure edit streams
# ---------------------------------------------------------------------------


def _final_cfgs(seed, recursive):
    generator = WorkloadGenerator(seed=seed, queries_per_edit=2)
    workload = generator.generate_multiprocedure(
        edits=6, procedures=3, recursive=recursive)
    cfgs = workload.fresh_cfgs()
    for step in workload.steps:
        step.edit.apply_to_cfg(cfgs[step.procedure])
    return cfgs, workload


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       policy_name=st.sampled_from(POLICIES),
       recursive=st.booleans())
def test_parallel_warming_equals_sequential_on_random_programs(
        seed, policy_name, recursive):
    """On the final program of a random multi-procedure edit stream, a
    coordinator-warmed engine answers every query site and every
    ``analyze_everything`` state exactly like a sequential engine, and the
    two digests agree — under all three context policies, with recursion
    (conservatively excluded from dispatch) included."""
    domain = IntervalDomain()
    cfgs, workload = _final_cfgs(seed, recursive)
    sequential = InterproceduralEngine(
        _fresh_copy(cfgs), domain, policy_by_name(policy_name))
    parallel = InterproceduralEngine(
        _fresh_copy(cfgs), domain, policy_by_name(policy_name))
    with PersistentWorkerPool(workers=2, kind="serial") as pool:
        report = ParallelCoordinator(parallel, pool).run()
    assert not report["errors"]
    assert domain.equal(sequential.query_entry_exit(),
                        parallel.query_entry_exit())
    for step in workload.steps:
        for procedure, loc in step.query_sites:
            assert domain.equal(sequential.query(procedure, loc),
                                parallel.query(procedure, loc)), (
                procedure, loc)
    _assert_results_equal(domain, parallel.analyze_everything(),
                          sequential.analyze_everything())
    assert parallel.summary_digest() == sequential.summary_digest()
