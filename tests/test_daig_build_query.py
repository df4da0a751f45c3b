"""Tests for initial DAIG construction, demanded queries, and unrolling.

The headline property is Theorem 6.1 (from-scratch consistency): a DAIG
query for the abstract state at any location returns exactly the invariant
the classical batch interpreter computes.  These tests check it for every
shipped domain over the subject-program corpus, along with the structural
properties of ``Dinit`` (Lemma 4.1) and the demanded-unrolling behaviour
(rules Q-Loop-Converge / Q-Loop-Unroll).
"""

import pytest

from repro.ai import BatchAnalyzer, analyze_cfg
from repro.daig import DaigBuilder, DaigEngine, MemoTable
from repro.daig.graph import FIX, JOIN, TRANSFER, WIDEN
from repro.daig.query import QueryEvaluator
from repro.domains import (
    ConstantDomain,
    IntervalDomain,
    OctagonDomain,
    ShapeDomain,
    SignDomain,
)
from repro.lang import ast as A
from repro.lang import build_cfg, build_program_cfgs, parse_program
from repro.lang.programs import append_program, array_program, list_program

from helpers import BRANCH_SOURCE, LOOP_SOURCE, NESTED_SOURCE, random_cfg


class TestInitialConstruction:
    def test_statement_cells_hold_every_forward_and_back_edge(self, loop_cfg,
                                                              interval_domain):
        daig = DaigBuilder(loop_cfg, interval_domain).build()
        stmt_values = [daig.value(name) for name in daig.refs
                       if name.kind == "stmt"]
        assert len(stmt_values) == loop_cfg.size()
        for edge in loop_cfg.edges:
            assert edge.stmt in stmt_values

    def test_entry_cell_holds_initial_state(self, branch_cfg, interval_domain):
        builder = DaigBuilder(branch_cfg, interval_domain)
        daig = builder.build()
        entry = builder.state_name(branch_cfg.entry, {})
        assert daig.value(entry) == interval_domain.initial(branch_cfg.params)

    def test_initial_daig_is_well_formed(self, nested_cfg, interval_domain):
        DaigBuilder(nested_cfg, interval_domain).build().check_well_formed()

    def test_join_points_get_join_computations(self, branch_cfg, interval_domain):
        builder = DaigBuilder(branch_cfg, interval_domain)
        daig = builder.build()
        join_loc = next(iter(branch_cfg.join_points()))
        comp = daig.defining(builder.state_name(join_loc, {}))
        assert comp.func == JOIN
        assert len(comp.srcs) == 2

    def test_loops_get_fix_widen_and_prewiden(self, loop_cfg, interval_domain):
        builder = DaigBuilder(loop_cfg, interval_domain)
        daig = builder.build()
        head = loop_cfg.loop_heads()[0]
        fix_comp = daig.defining(builder.fix_name(head, {}))
        assert fix_comp.func == FIX
        assert fix_comp.srcs[0].iteration_of(head) == 0
        assert fix_comp.srcs[1].iteration_of(head) == 1
        widen_comp = daig.defining(fix_comp.srcs[1])
        assert widen_comp.func == WIDEN

    def test_nested_loops_have_their_own_fix_cells(self, nested_cfg, interval_domain):
        builder = DaigBuilder(nested_cfg, interval_domain)
        daig = builder.build()
        for head in nested_cfg.loop_heads():
            assert daig.defining(builder.fix_name(head, {})) is not None

    def test_acyclic_despite_loops(self, nested_cfg, interval_domain):
        daig = DaigBuilder(nested_cfg, interval_domain).build()
        daig.check_well_formed()  # includes the acyclicity check

    def test_multiple_back_edges_to_one_head_rejected(self, interval_domain):
        from repro.lang.cfg import Cfg
        cfg = Cfg("bad")
        head = cfg.fresh_loc()
        a, b = cfg.fresh_loc(), cfg.fresh_loc()
        cfg.add_edge(cfg.entry, A.SkipStmt(), head)
        cfg.add_edge(head, A.AssumeStmt(A.Var("c")), a)
        cfg.add_edge(head, A.AssumeStmt(A.Var("d")), b)
        cfg.add_edge(a, A.SkipStmt(), head)
        cfg.add_edge(b, A.SkipStmt(), head)
        cfg.add_edge(head, A.SkipStmt(), cfg.exit)
        with pytest.raises(ValueError):
            DaigBuilder(cfg, interval_domain).build()


class TestDemandedUnrolling:
    def test_unroll_slides_fix_forward_and_stays_well_formed(
            self, loop_cfg, interval_domain):
        builder = DaigBuilder(loop_cfg, interval_domain)
        daig = builder.build()
        head = loop_cfg.loop_heads()[0]
        assert builder.current_unrolling(daig, head, {}) == 1
        new_iteration = builder.unroll(daig, head, {})
        assert new_iteration == 2
        assert builder.current_unrolling(daig, head, {}) == 2
        daig.check_well_formed()

    def test_roll_resets_to_two_iterates(self, loop_cfg, interval_domain):
        builder = DaigBuilder(loop_cfg, interval_domain)
        daig = builder.build()
        head = loop_cfg.loop_heads()[0]
        builder.unroll(daig, head, {})
        builder.unroll(daig, head, {})
        builder.roll(daig, head, {})
        assert builder.current_unrolling(daig, head, {}) == 1
        daig.check_well_formed()
        assert not any(name.mentions_head_iteration(head, 2) for name in daig.refs)

    def test_queries_unroll_only_until_convergence(self, loop_cfg, interval_domain):
        engine = DaigEngine(loop_cfg, interval_domain)
        engine.query_location(loop_cfg.exit)
        # The loop counter stabilizes after one widening and the accumulator
        # after a second: two demanded unrollings, far fewer than the ten
        # concrete iterations (and bounded by widening convergence).
        assert engine.stats.unrollings == 2

    def test_non_accumulating_loop_needs_single_unrolling(self, interval_domain):
        cfg = build_cfg(parse_program("""
            function main() {
              var i = 0;
              while (i < 10) { i = i + 1; }
              return i;
            }""").procedure("main"))
        engine = DaigEngine(cfg, interval_domain)
        engine.query_location(cfg.exit)
        assert engine.stats.unrollings == 1

    def test_second_query_reuses_fixed_point(self, loop_cfg, interval_domain):
        engine = DaigEngine(loop_cfg, interval_domain)
        engine.query_location(loop_cfg.exit)
        work_before = engine.stats.cells_computed
        engine.query_location(loop_cfg.exit)
        assert engine.stats.cells_computed == work_before  # pure reuse

    def test_finite_height_domain_needs_no_widening_tricks(self, loop_cfg, sign_domain):
        engine = DaigEngine(loop_cfg, sign_domain)
        result = engine.query_location(loop_cfg.exit)
        assert not sign_domain.is_bottom(result)


class TestMemoTable:
    def test_memo_hits_across_equal_inputs(self, branch_cfg, interval_domain):
        memo = MemoTable()
        engine = DaigEngine(branch_cfg, interval_domain, memo=memo)
        engine.query_location(branch_cfg.exit)
        assert memo.hits + memo.misses > 0
        assert len(memo) > 0

    def test_memo_disabled_never_stores(self, branch_cfg, interval_domain):
        memo = MemoTable(enabled=False)
        engine = DaigEngine(branch_cfg, interval_domain, memo=memo)
        engine.query_location(branch_cfg.exit)
        assert len(memo) == 0

    def test_clearing_memo_is_sound(self, loop_cfg, interval_domain):
        memo = MemoTable()
        engine = DaigEngine(loop_cfg, interval_domain, memo=memo)
        before = engine.query_location(loop_cfg.exit)
        memo.clear()
        engine.insert_statement_after(loop_cfg.entry, A.SkipStmt())
        after = engine.query_location(engine.cfg.exit)
        assert interval_domain.equal(before, after)

    def test_unhashable_inputs_fall_back_to_recompute(self):
        memo = MemoTable()
        assert memo.key("f", ([1, 2],)) is None
        found, _ = memo.lookup("f", ([1, 2],))
        assert not found
        memo.store("f", ([1, 2],), "value")
        assert len(memo) == 0


DOMAINS = {
    "sign": SignDomain,
    "constant": ConstantDomain,
    "interval": IntervalDomain,
    "octagon": OctagonDomain,
}

SOURCES = {
    "loop": LOOP_SOURCE,
    "branch": BRANCH_SOURCE,
    "nested": NESTED_SOURCE,
}


class TestFromScratchConsistency:
    """Theorem 6.1: demanded query results equal the batch fixed point."""

    @pytest.mark.parametrize("domain_name", sorted(DOMAINS))
    @pytest.mark.parametrize("source_name", sorted(SOURCES))
    def test_small_programs_all_locations(self, domain_name, source_name):
        domain = DOMAINS[domain_name]()
        cfg = build_cfg(parse_program(SOURCES[source_name]).procedure("main"))
        batch = analyze_cfg(cfg, domain)
        engine = DaigEngine(cfg.copy(), domain)
        for loc in cfg.reachable_locations():
            assert domain.equal(engine.query_location(loc), batch[loc]), (
                "mismatch at %d (%s/%s)" % (loc, domain_name, source_name))

    @pytest.mark.parametrize("program_name", ["sum", "reverse", "histogram",
                                              "bounded_walk", "sliding_sum"])
    def test_array_subjects_interval(self, program_name, interval_domain):
        cfg = build_program_cfgs(array_program(program_name))["main"]
        batch = analyze_cfg(cfg, interval_domain)
        engine = DaigEngine(cfg.copy(), interval_domain)
        for loc in cfg.reachable_locations():
            assert interval_domain.equal(engine.query_location(loc), batch[loc])

    @pytest.mark.parametrize("program_name", ["append", "foreach", "last", "build"])
    def test_list_subjects_shape(self, program_name, shape_domain):
        cfg = build_program_cfgs(list_program(program_name))[program_name]
        batch = analyze_cfg(cfg, shape_domain)
        engine = DaigEngine(cfg.copy(), shape_domain)
        for loc in cfg.reachable_locations():
            assert shape_domain.equal(engine.query_location(loc), batch[loc])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_programs_octagon(self, seed, octagon_domain):
        cfg = random_cfg(seed, edits=25)
        batch = analyze_cfg(cfg, octagon_domain)
        engine = DaigEngine(cfg.copy(), octagon_domain)
        for loc in cfg.reachable_locations():
            assert octagon_domain.equal(engine.query_location(loc), batch[loc])

    def test_queries_preserve_well_formedness(self, nested_cfg, interval_domain):
        engine = DaigEngine(nested_cfg, interval_domain)
        for loc in sorted(nested_cfg.reachable_locations()):
            engine.query_location(loc)
            engine.check_consistency()

    def test_demand_computes_less_than_batch(self, interval_domain):
        cfg = build_program_cfgs(array_program("first_last"))["main"]
        batch = BatchAnalyzer(cfg, interval_domain)
        batch.analyze()
        engine = DaigEngine(cfg.copy(), interval_domain)
        # Query only the state after the first statement: far fewer transfers
        # than the exhaustive analysis needed.
        first_loc = cfg.successors(cfg.entry)[0]
        engine.query_location(first_loc)
        assert engine.stats.transfers < batch.transfer_count


class TestStatsSurface:
    """Demand is one sequential walk; its counters and phase timers, which
    other layers and the edit-latency benchmark read, say so."""

    def test_query_stats_report_no_parallel_batches(self, nested_cfg,
                                                    interval_domain):
        engine = DaigEngine(nested_cfg, interval_domain)
        engine.query_exit()
        stats = engine.stats.as_dict()
        assert stats["cells_computed"] > 0 and stats["transfers"] > 0
        assert stats["parallel_batches"] == 0

    def test_phase_seconds_name_the_sequential_phases(self, nested_cfg,
                                                      interval_domain):
        engine = DaigEngine(nested_cfg, interval_domain)
        engine.query_exit()
        phases = engine.phase_seconds()
        assert set(phases) == {"structure", "snapshot", "splice", "query"}
        assert phases["query"] > 0.0
        assert set(engine.phase_seconds(include_structure=False)) == {
            "snapshot", "splice", "query"}
