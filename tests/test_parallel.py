"""Tests for the parallel demanded evaluator: the persistent worker pool,
the leaf summary job, the speculate/dispatch/certify coordinator, and
memo-table thread discipline.

The correctness bar everywhere is *sequential equality*: a
coordinator-warmed engine must answer every query, and digest to, exactly
what a sequential engine produces — a seeded exit is consumed only where
the engine's own demand derives the entry it was computed at.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.daig import DaigEngine
from repro.daig.memo import MemoTable
from repro.domains import ConstantDomain, IntervalDomain
from repro.domains.nonrel import EnvState
from repro.interproc import InterproceduralEngine, policy_by_name
from repro.intern import InternTable
from repro.lang import ast as A
from repro.lang import build_program_cfgs, parse_program
from repro.lang.programs import wide_call_graph_source
from repro.parallel import (
    JobPayload,
    ParallelCoordinator,
    PersistentWorkerPool,
    run_summary_job,
)
from repro.parallel import coordinator as coordinator_module
from repro.parallel import pool as pool_module
from repro.parallel.worker import edge_statements
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


#: CHAIN_PROGRAM with a loop in the leaf, so every job has facts to hand
#: back.
LOOP_CHAIN_PROGRAM = """
function leaf(x) {
  var i = 0;
  while (i < x) {
    i = i + 1;
  }
  return i;
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


#: Speculation havocs ``r``, so ``leaf`` is dispatched at ``x = 1``, but
#: ``zero`` returns 0 and demand derives a bottom entry for ``leaf``: its
#: seed is never consumed.
UNCONSUMED_SEED_PROGRAM = """
function zero() {
  return 0;
}

function leaf(x) {
  var i = 0;
  while (i < x) {
    i = i + 1;
  }
  return i;
}

function main() {
  var r = zero();
  var q = 0;
  if (r > 5) {
    q = leaf(1);
  }
  return q;
}
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


def _assert_answers_equal(domain, engine, reference):
    """Main's exit, every state of every procedure, and the digests."""
    assert domain.equal(engine.query_entry_exit(),
                        reference.query_entry_exit())
    _assert_results_equal(domain, engine.analyze_everything(),
                          reference.analyze_everything())
    assert engine.summary_digest() == reference.summary_digest()


def _assert_ledgers_equal(domain, engine, reference):
    """The entry ledger, the contributions and the entry targets: only the
    engine's own demand writes them, so a coordinated open leaves a
    sequential open's."""
    assert engine._recorded == reference._recorded
    assert set(engine._contribs) == set(reference._contribs)
    for key, sites in reference._contribs.items():
        assert set(engine._contribs[key]) == set(sites), key
        for site, state in sites.items():
            assert domain.equal(engine._contribs[key][site], state), key
    assert set(engine._entry_target) == set(reference._entry_target)
    for key, target in reference._entry_target.items():
        assert domain.equal(engine._entry_target[key], target), key


def _noise(daig):
    daig.insert_statement_after(daig.cfg.entry,
                                A.AssignStmt("noise", A.IntLit(1)))


def _record_installs(monkeypatch):
    """Patch ``MemoTable.install`` to record how many facts each call got."""
    sizes = []
    install = MemoTable.install

    def recording(memo, facts):
        facts = list(facts)
        sizes.append(len(facts))
        return install(memo, facts)

    monkeypatch.setattr(MemoTable, "install", recording)
    return sizes


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

    def test_process_pool_warmup_reaches_every_worker(self):
        """Each warmup task waits at the workers' start barrier, so the
        two tasks of a 2-worker pool run in two processes."""
        with PersistentWorkerPool(workers=2, kind="process") as pool:
            pids = pool.warmup()
            assert pool.warmed and len(pids) == 2
            assert len(set(pids)) == 2 and os.getpid() not in pids
            assert sorted(pool.warmup()) == sorted(pids)  # reusable

    def test_warmup_fails_instead_of_hanging_without_its_siblings(
            self, monkeypatch):
        """A worker whose siblings never reach the barrier gives up after
        the timeout, so a dead worker fails warmup instead of hanging it."""
        monkeypatch.setattr(pool_module, "WARMUP_TIMEOUT", 0.05)
        monkeypatch.setattr(pool_module, "_barrier", threading.Barrier(2))
        with pytest.raises(threading.BrokenBarrierError):
            pool_module._warmup_task(0)

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
    def _payload(self, source, procedure, domain):
        cfgs = cfgs_of(source)
        return JobPayload(
            procedure=procedure,
            cfg=cfgs[procedure].copy(),
            context=(),
            entry=domain.initial(cfgs[procedure].params),
            domain_spec=domain.name,
        )

    def test_leaf_job_matches_sequential_exit(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain)
        engine.query("leaf", engine.cfgs["leaf"].exit)
        expected = engine.analyze_everything()[("leaf", ())][
            engine.cfgs["leaf"].exit]
        result = run_summary_job(self._payload(CHAIN_PROGRAM, "leaf", domain))
        assert result.error is None
        assert domain.equal(result.exit_state, expected)
        assert result.cpu_seconds >= 0.0

    def test_external_calls_havoc_as_in_the_engine(self):
        """A leaf's calls name no procedure of the program; the job, which
        has no call hook, havocs them through the domain exactly as the
        engine does."""
        source = """
            function leaf(x) { var y = ext(x); var z = x + 1; return z; }
            function main() { var a = leaf(2); return a; }
        """
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(source), domain)
        expected = engine.query("leaf", engine.cfgs["leaf"].exit)
        result = run_summary_job(self._payload(source, "leaf", domain))
        assert result.error is None
        assert domain.equal(result.exit_state, expected)

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

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_a_seed_demand_does_not_consume_leaves_every_answer_sequential(
            self, policy_name):
        """``leaf`` is dispatched at its speculated entry, but demand
        derives another one: only ``zero``'s seed is consumed, the engine
        keys are a sequential engine's, and so is every answer, after the
        open and after an edit of each procedure."""
        domain = IntervalDomain()
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            sequential, parallel, report = _warmed_pair(
                UNCONSUMED_SEED_PROGRAM, domain, policy_name, pool)
        assert report["jobs"] == 2 and not report["errors"]
        assert report["certified"] == 1 and report["knocked_out"] == 1
        assert report["memo_facts"] > 0
        sequential.query_entry_exit()
        assert set(parallel.engines) == set(sequential.engines)
        _assert_ledgers_equal(domain, parallel, sequential)
        _assert_answers_equal(domain, parallel, sequential)
        for procedure in ("leaf", "zero", "main"):
            parallel.edit_procedure(procedure, _noise)
            sequential.edit_procedure(procedure, _noise)
            _assert_answers_equal(domain, parallel, sequential)
            assert set(parallel.engines) == set(sequential.engines)

    def test_total_phase_seconds_carry_the_coordinator_phases(self):
        domain = IntervalDomain()
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            _sequential, parallel, report = _warmed_pair(
                CHAIN_PROGRAM, domain, "insensitive", pool)
        parallel.query_entry_exit()
        phases = parallel.total_phase_seconds()
        assert set(phases) == {"structure", "build", "snapshot", "splice",
                               "query", "speculate", "dispatch", "certify"}
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

    def test_process_pool_results_intern_on_the_calling_thread(
            self, monkeypatch):
        """Jobs return pickled bytes that the coordinator unpickles itself,
        so the executor's result-handling thread never interns: every intern
        lookup of a run happens on the thread that called ``run()``."""
        threads = set()
        lookup = InternTable.get

        def recording_get(table, key):
            threads.add(threading.get_ident())
            return lookup(table, key)

        installed = []
        install = MemoTable.install

        def recording_install(memo, facts):
            facts = list(facts)
            installed.extend(facts)
            return install(memo, facts)

        engine = InterproceduralEngine(
            cfgs_of(wide_call_graph_source(4, inner_loops=1)),
            IntervalDomain(), policy_by_name("context-insensitive"))
        with PersistentWorkerPool(workers=2, kind="process") as pool:
            monkeypatch.setattr(InternTable, "get", recording_get)
            monkeypatch.setattr(MemoTable, "install", recording_install)
            report = ParallelCoordinator(engine, pool).run()
            monkeypatch.undo()
        assert not report["errors"]
        assert report["certified"] == report["jobs"] == 4
        assert threads == {threading.get_ident()}
        # The jobs' memo facts came back in the same pickles: every state
        # in them is this process's canonical object, every transfer names
        # the engine's own statement, and the memo table holds each one
        # (two workers may hand back the same fact).
        assert len({(func, args) for func, args, _value in installed}) == (
            report["memo_facts"]) > 0
        statements = {id(edge.stmt) for cfg in engine.cfgs.values()
                      for edge in cfg.edges}
        for func, args, value in installed:
            assert engine.memo.peek(func, args) == (True, value)
            if func == "transfer":
                assert id(args[0]) in statements
            states = [v for v in args + (value,) if isinstance(v, EnvState)]
            assert states
            for state in states:
                assert EnvState(state.bindings, state.bottom) is state


# ---------------------------------------------------------------------------
# ParallelCoordinator + persistent store
# ---------------------------------------------------------------------------


class TestCoordinatorStore:
    @pytest.mark.parametrize("source, jobs, consumed", [
        (wide_call_graph_source(8, inner_loops=1), 8, 8),
        (UNCONSUMED_SEED_PROGRAM, 2, 1),
    ], ids=["wide", "unconsumed-seed"])
    def test_a_coordinated_open_writes_what_a_sequential_open_writes(
            self, tmp_path, source, jobs, consumed):
        """On fresh stores, a coordinated open writes exactly the keys a
        sequential open does, and reads them too, but for the probe of
        each seed demand does not consume.  On the wide program it
        dispatches the eight leaves and not ``main``, and demand consumes
        every seed; ``leaf``'s seed in ``UNCONSUMED_SEED_PROGRAM`` is never
        consumed, so it is never written."""
        from repro.store import SqliteSummaryStore

        domain = IntervalDomain()
        opened = {}
        for mode in ("sequential", "coordinated"):
            store = SqliteSummaryStore(str(tmp_path / ("%s.db" % mode)))
            engine = InterproceduralEngine(
                cfgs_of(source), domain, policy_by_name("insensitive"),
                store=store)
            if mode == "coordinated":
                with PersistentWorkerPool(workers=2, kind="serial") as pool:
                    report = ParallelCoordinator(engine, pool).run()
            engine.query_entry_exit()
            stats = store.stats()
            opened[mode] = (sorted(store.keys()), stats["gets"],
                            stats["puts"], stats["entries"])
            if mode == "sequential":
                assert engine.counters["interproc_parallel_jobs"] == 0
            store.close()
        keys, gets, puts, entries = opened["coordinated"]
        assert (keys, gets - (jobs - consumed), puts, entries) == (
            opened["sequential"])
        assert report["jobs"] == jobs and report["certified"] == consumed
        assert not report["errors"]
        assert report["knocked_out"] == jobs - consumed
        assert repr(("main", ())) not in report["cpu_durations"]
        assert engine.counters["interproc_parallel_jobs"] == jobs

    def test_coordinator_serves_probed_keys_from_store(self, tmp_path):
        """A warm coordinator run answers previously stored keys without
        dispatching a worker, and every answer stays sequential, also
        after edits."""
        from repro.store import SqliteSummaryStore, open_store

        domain = IntervalDomain()
        source = wide_call_graph_source(4, inner_loops=1)
        store = SqliteSummaryStore(str(tmp_path / "warm.db"))
        InterproceduralEngine(cfgs_of(source), domain,
                              store=store).query_entry_exit()
        store.close()

        warm = InterproceduralEngine(
            cfgs_of(source), domain,
            store=open_store("sqlite:%s" % (tmp_path / "warm.db")))
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            report = ParallelCoordinator(warm, pool).run()
        assert report["jobs"] == 0 and not report["errors"]
        assert report["store_served"] == report["certified"] == 4
        reference = InterproceduralEngine(cfgs_of(source), domain)
        _assert_answers_equal(domain, warm, reference)
        for procedure in ("work1", "main"):
            warm.edit_procedure(procedure, _noise)
            reference.edit_procedure(procedure, _noise)
            _assert_answers_equal(domain, warm, reference)
        warm.store.close()

    def test_store_served_keys_build_no_daig(self, tmp_path):
        """A summary served from the store never builds its callee's DAIG,
        through the coordinator too: on a store a first coordinated open
        filled, a second one serves every key and builds main's DAIG
        alone, at its demand, as a plain restart does."""
        domain = IntervalDomain()
        source = wide_call_graph_source(4, inner_loops=1)
        spec = "sqlite:%s" % (tmp_path / "served.db")
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            cold = InterproceduralEngine(cfgs_of(source), domain, store=spec)
            ParallelCoordinator(cold, pool).run()
            # The keys whose seeds demand consumed are built, and main.
            assert cold.total_stats()["daigs"] == 5
            cold_digest = cold.summary_digest()
            cold.store.close()

            warm = InterproceduralEngine(cfgs_of(source), domain, store=spec)
            report = ParallelCoordinator(warm, pool).run()
        assert report["jobs"] == 0
        assert report["store_served"] == report["certified"] == 4
        assert warm.total_stats()["daigs"] == 1
        warm.query_entry_exit()
        assert warm.total_stats()["daigs"] == 1
        assert warm.summary_digest() == cold_digest
        warm.store.close()

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
# Memo facts: the workers' evaluated DAIGs, handed back to the engine
# ---------------------------------------------------------------------------


class TestMemoFacts:
    def test_facts_are_exactly_what_sequential_evaluation_memoizes(self):
        """A job's facts, their statements put back from the CFG, are the
        entries a sequential evaluation at the same entry stores."""
        domain = IntervalDomain()
        cfgs = cfgs_of(wide_call_graph_source(1, inner_loops=2))
        entry = domain.call_entry(domain.initial(), ("n",), (A.IntLit(0),))
        result = run_summary_job(JobPayload(
            procedure="work0", cfg=cfgs["work0"].copy(), context=(),
            entry=entry, domain_spec=domain.name))
        assert result.error is None
        # Statements travel as edge positions, never as objects.
        assert not any(isinstance(fact[1][0], A.AtomicStmt)
                       for fact in result.facts)
        memo = MemoTable()
        DaigEngine(cfgs["work0"], domain, memo=memo,
                   entry_state=entry).query_exit()
        installed = MemoTable()
        assert installed.install(
            edge_statements(result.facts, cfgs["work0"])) == len(memo)
        assert dict(installed._table) == dict(memo._table)

    def test_install_honours_enabled_and_capacity(self):
        """A disabled table installs nothing; a bounded one keeps the most
        recent entries; a present key keeps its value and place; no query
        counter moves."""
        facts = [("join", (index, index + 1), index) for index in range(5)]
        disabled = MemoTable(enabled=False)
        assert disabled.install(facts) == 0 and len(disabled) == 0
        bounded = MemoTable(capacity=3)
        bounded.store("join", (0, 1), "kept")
        assert bounded.install(facts) == 4
        assert list(bounded._table) == [("join", 2, 3), ("join", 3, 4),
                                        ("join", 4, 5)]
        assert bounded.evictions == 2
        unbounded = MemoTable()
        unbounded.store("join", (0, 1), "kept")
        assert unbounded.install(facts + [("join", ([],), 0)]) == 4
        assert unbounded.lookup("join", (0, 1)) == (True, "kept")
        assert next(iter(unbounded._table)) == ("join", 0, 1)
        assert (unbounded.hits, unbounded.misses, unbounded.stores) == (
            1, 0, 1)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_failed_jobs_leave_every_answer_sequential(
            self, policy_name, monkeypatch):
        """Every job that did not raise hands its facts back, and one that
        raised hands back nothing and seeds nothing; either way, after the
        open and after an edit of each procedure, the engine answers like
        a storeless sequential one."""
        domain = IntervalDomain()
        policy = policy_by_name(policy_name)
        cfgs = cfgs_of(LOOP_CHAIN_PROGRAM)

        def failing(payload):
            raise RuntimeError("worker died")

        for fail in (False, True):
            sizes = _record_installs(monkeypatch)
            if fail:
                monkeypatch.setattr(coordinator_module,
                                    "run_summary_job_pickled", failing)
            engine = InterproceduralEngine(_fresh_copy(cfgs), domain, policy)
            with PersistentWorkerPool(workers=2, kind="serial") as pool:
                report = ParallelCoordinator(engine, pool).run()
            monkeypatch.undo()
            jobs = report["jobs"]
            assert set(report["cpu_durations"]) == {
                repr(key) for key in engine.engines if key[0] == "leaf"}
            if fail:
                assert len(report["errors"]) == report["knocked_out"] == jobs
                assert sizes == [] and report["memo_facts"] == 0
            else:
                assert not report["errors"] and report["knocked_out"] == 0
                assert len(sizes) == jobs and all(sizes)
                assert report["memo_facts"] > 0
            reference = InterproceduralEngine(_fresh_copy(cfgs), domain,
                                              policy)
            _assert_answers_equal(domain, engine, reference)
            for procedure in ("leaf", "middle", "main"):
                engine.edit_procedure(procedure, _noise)
                reference.edit_procedure(procedure, _noise)
                _assert_answers_equal(domain, engine, reference)


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


def _assert_warming_equals_sequential(seed, policy_name, recursive):
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
    _assert_ledgers_equal(domain, parallel, sequential)
    for step in workload.steps:
        for procedure, loc in step.query_sites:
            assert domain.equal(sequential.query(procedure, loc),
                                parallel.query(procedure, loc)), (
                procedure, loc)
    _assert_results_equal(domain, parallel.analyze_everything(),
                          sequential.analyze_everything())
    assert parallel.summary_digest() == sequential.summary_digest()


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
    _assert_warming_equals_sequential(seed, policy_name, recursive)


@pytest.mark.parametrize("recursive", [False, True],
                         ids=["acyclic", "recursive"])
@pytest.mark.parametrize("policy_name", POLICIES)
def test_parallel_warming_equals_sequential_on_a_fixed_sweep(
        policy_name, recursive):
    """The random-program property on a fixed sweep: the final programs of
    seeds 0-199, so every run checks the same 200 programs per policy."""
    for seed in range(200):
        _assert_warming_equals_sequential(seed, policy_name, recursive)
