"""Acceptance tests for incremental DAIG splicing and iterative queries.

These pin down the two headline properties of the incremental engine:

* **Locality** — a structural edit on a large program removes, re-encodes,
  and dirties strictly fewer cells than a from-scratch DAIG build, and
  answering queries afterwards recomputes strictly fewer cells than a fresh
  engine would (the paper's incrementality claim, measured via engine
  stats).
* **Equivalence** — the spliced DAIG's query results are identical to a
  fresh engine's over every location, edit after edit, including when
  consecutive edits are coalesced by :meth:`DaigEngine.batch_edits`.

Plus the iterative-query property: demand chains far deeper than Python's
default recursion limit evaluate without touching ``sys.setrecursionlimit``.
"""

import sys

import pytest

from helpers import random_workload

from repro.daig import DaigEngine, MemoTable, StructureSnapshot
from repro.domains import IntervalDomain, SignDomain
from repro.lang import ast as A
from repro.lang.cfg import Cfg


def empty_cfg():
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    return cfg


def grown_engine(domain, seed=5, edits=150):
    """An engine over a large random program, fully evaluated."""
    _generator, steps = random_workload(seed, edits)
    engine = DaigEngine(empty_cfg(), domain)
    with engine.batch_edits():
        for step in steps:
            step.edit.apply_to_engine(engine)
    engine.query_all()
    return engine


def assert_results_match(engine, domain):
    fresh = DaigEngine(engine.cfg.copy(), type(domain)())
    fresh_results = fresh.query_all()
    results = engine.query_all()
    assert set(results) == set(fresh_results)
    for loc, value in results.items():
        assert domain.equal(value, fresh_results[loc]), "mismatch at %d" % loc
    return fresh


class TestSpliceLocality:
    """A structural edit touches the impacted region, not the program."""

    def test_edit_on_large_program_splices_fewer_cells_than_rebuild(self):
        domain = IntervalDomain()
        engine = grown_engine(domain)
        assert len(engine.cfg.reachable_locations()) >= 200

        middle = sorted(engine.cfg.reachable_locations())[
            len(engine.cfg.reachable_locations()) // 2]
        engine.insert_statement_after(middle, A.AssignStmt("v0", A.IntLit(9)))

        report = engine.edit_stats.last_report
        fresh = assert_results_match(engine, domain)
        fresh_cells, fresh_computations = fresh.size()
        touched = (report.cells_removed + report.cells_added
                   + report.cells_dirtied)
        assert touched < fresh_cells
        assert report.values_retained > 0

    def test_query_after_edit_recomputes_fewer_cells_than_fresh_engine(self):
        domain = IntervalDomain()
        engine = grown_engine(domain)
        middle = sorted(engine.cfg.reachable_locations())[
            len(engine.cfg.reachable_locations()) // 2]
        engine.insert_statement_after(middle, A.AssignStmt("v1", A.IntLit(3)))

        computed_before = engine.stats.cells_computed
        engine.query_all()
        incremental_work = engine.stats.cells_computed - computed_before

        fresh = DaigEngine(engine.cfg.copy(), IntervalDomain())
        fresh.query_all()
        assert incremental_work < fresh.stats.cells_computed

    def test_edit_before_exit_leaves_loops_unrolled(self):
        """Unaffected loops keep their demanded unrollings across edits.

        (The previous full-rebuild synchronization rolled *every* loop back
        to its initial two-iterate form on any structural edit.)
        """
        from repro.lang import build_cfg, parse_program
        from helpers import LOOP_SOURCE

        domain = IntervalDomain()
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, domain)
        engine.query_all()
        head = engine.cfg.loop_heads()[0]
        unrolled = engine.builder.current_unrolling(engine.daig, head, {})
        assert unrolled >= 2
        pre_exit = engine.cfg.in_edges(engine.cfg.exit)[0].src
        engine.insert_statement_after(pre_exit, A.AssignStmt("z", A.IntLit(1)))
        assert engine.builder.current_unrolling(engine.daig, head, {}) == unrolled
        assert_results_match(engine, domain)

    def test_whole_program_splice_updates_the_live_snapshot(self):
        """Raw edge surgery forces the structure rebuild; the
        whole-program splice re-signs the live snapshot in place rather
        than swapping in a new capture."""
        domain = IntervalDomain()
        engine = grown_engine(domain)
        snapshot = engine._snapshot
        captures = engine.edit_stats.snapshot_full_captures
        engine.cfg.add_edge(engine.cfg.entry,
                            A.AssignStmt("v2", A.IntLit(4)), engine.cfg.exit)
        engine.resync()
        assert engine.edit_stats.snapshot_full_captures == captures + 1
        assert engine.edit_stats.last_report.full_capture
        assert engine._snapshot is snapshot
        assert snapshot == StructureSnapshot.capture(engine.cfg)
        engine.check_consistency()
        assert_results_match(engine, domain)


class TestBatchEdits:
    def test_batch_coalesces_to_one_splice(self):
        domain = SignDomain()
        engine = DaigEngine(empty_cfg(), domain)
        engine.materialize()
        _generator, steps = random_workload(seed=3, edits=25)
        splices_before = engine.edit_stats.splices
        with engine.batch_edits():
            for step in steps:
                step.edit.apply_to_engine(engine)
        assert engine.edit_stats.splices == splices_before + 1
        assert engine.edit_stats.edits == 25
        engine.check_consistency()
        assert_results_match(engine, domain)

    def test_nested_batches_join_the_outer_batch(self):
        domain = SignDomain()
        engine = DaigEngine(empty_cfg(), domain)
        engine.materialize()
        with engine.batch_edits():
            engine.insert_statement_after(
                engine.cfg.entry, A.AssignStmt("a", A.IntLit(1)))
            with engine.batch_edits():
                engine.insert_statement_after(
                    engine.cfg.entry, A.AssignStmt("b", A.IntLit(2)))
        assert engine.edit_stats.splices == 1
        engine.check_consistency()
        assert_results_match(engine, domain)

    def test_query_inside_batch_flushes_and_sees_the_edit(self):
        """A mid-batch query must observe the edits made so far, not the
        pre-batch state (clients interleave queries with edit callbacks)."""
        domain = IntervalDomain()
        engine = DaigEngine(empty_cfg(), domain)
        engine.materialize()
        with engine.batch_edits():
            loc = engine.insert_statement_after(
                engine.cfg.entry, A.AssignStmt("k", A.IntLit(7)))
            result = engine.query_location(loc)
            assert domain.numeric_bounds(A.Var("k"), result) == (7, 7)
            engine.insert_statement_after(loc, A.AssignStmt("m", A.IntLit(1)))
        # One splice for the flush, one for the remainder of the batch.
        assert engine.edit_stats.splices == 2
        engine.check_consistency()
        assert_results_match(engine, domain)

    def test_interproc_edit_callback_may_query_mid_edit(self):
        """edit_procedure callbacks that query after a structural edit keep
        working even though the engine batches the callback's edits."""
        from repro.interproc import InterproceduralEngine
        from repro.lang import build_program_cfgs, parse_program

        domain = IntervalDomain()
        cfgs = build_program_cfgs(parse_program("""
            function helper(x) { var y = x + 1; return y; }
            function main() { var r = helper(2); return r; }
        """))
        engine = InterproceduralEngine(cfgs, domain, entry="main")
        engine.query_entry_exit()
        observed = {}

        def callback(procedure_engine):
            loc = procedure_engine.insert_statement_after(
                procedure_engine.cfg.entry, A.AssignStmt("z", A.IntLit(5)))
            observed["mid"] = procedure_engine.query_location(loc)

        engine.edit_procedure("helper", callback)
        assert domain.numeric_bounds(A.Var("z"), observed["mid"]) == (5, 5)
        exit_state = engine.query_entry_exit()
        assert domain.numeric_bounds(A.Var("r"), exit_state) == (3, 3)

    def test_batched_and_unbatched_streams_agree(self):
        domain = IntervalDomain()
        _generator, steps = random_workload(seed=11, edits=30)
        one_by_one = DaigEngine(empty_cfg(), domain)
        for step in steps:
            step.edit.apply_to_engine(one_by_one)
        batched = DaigEngine(empty_cfg(), domain)
        with batched.batch_edits():
            for step in steps:
                step.edit.apply_to_engine(batched)
        left = one_by_one.query_all()
        right = batched.query_all()
        assert set(left) == set(right)
        for loc in left:
            assert domain.equal(left[loc], right[loc])


class TestIterativeQueries:
    def test_deep_demand_chain_at_default_recursion_limit(self):
        limit = sys.getrecursionlimit()
        depth = max(5000, limit * 4)
        cfg = Cfg("deep")
        current = cfg.entry
        for _ in range(depth):
            nxt = cfg.fresh_loc()
            cfg.add_edge(current, A.AssignStmt(
                "x", A.BinOp("+", A.Var("x"), A.IntLit(1))), nxt)
            current = nxt
        cfg.add_edge(current, A.AssignStmt(
            A.RETURN_VARIABLE, A.Var("x")), cfg.exit)
        engine = DaigEngine(cfg, SignDomain())
        engine.query_exit()
        assert engine.stats.cells_computed >= depth
        assert sys.getrecursionlimit() == limit

    def test_engine_does_not_touch_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        engine = grown_engine(IntervalDomain(), seed=2, edits=60)
        engine.query_all()
        assert sys.getrecursionlimit() == limit


class TestBoundedMemoTable:
    def test_capacity_evicts_least_recently_used(self):
        memo = MemoTable(capacity=2)
        memo.store("f", (1,), "one")
        memo.store("f", (2,), "two")
        found, value = memo.lookup("f", (1,))  # refresh (1,)
        assert found and value == "one"
        memo.store("f", (3,), "three")  # evicts (2,)
        assert memo.lookup("f", (2,)) == (False, None)
        assert memo.lookup("f", (1,)) == (True, "one")
        assert memo.lookup("f", (3,)) == (True, "three")
        assert memo.stats()["evictions"] == 1
        assert len(memo) == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoTable(capacity=0)

    def test_unbounded_table_never_evicts(self):
        memo = MemoTable()
        for i in range(100):
            memo.store("f", (i,), i)
        assert len(memo) == 100
        assert memo.stats()["evictions"] == 0
        assert memo.stats()["capacity"] == -1

    def test_bounded_memo_is_sound_for_analysis(self):
        domain = IntervalDomain()
        _generator, steps = random_workload(seed=7, edits=20)
        bounded = DaigEngine(empty_cfg(), domain, memo=MemoTable(capacity=16))
        unbounded = DaigEngine(empty_cfg(), domain)
        for step in steps:
            step.edit.apply_to_engine(bounded)
            step.edit.apply_to_engine(unbounded)
        left = bounded.query_all()
        right = unbounded.query_all()
        for loc in left:
            assert domain.equal(left[loc], right[loc])
        assert len(bounded.memo) <= 16
