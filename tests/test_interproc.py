"""Tests for the interprocedural engine, call graphs, and context policies."""

import gc
import weakref

import pytest

from repro.domains import IntervalDomain, OctagonDomain
from repro.interproc import (
    CallGraph,
    CallStringSensitive,
    ContextInsensitive,
    InterproceduralEngine,
    RecursionError_,
    policy_by_name,
)
from repro.lang import ast as A
from repro.lang import build_program_cfgs, parse_expression, parse_program
from repro.lang.programs import wide_call_graph_source
from repro.parallel import ParallelCoordinator, PersistentWorkerPool
from repro.workload.edits import relabel_assignment

CALL_PROGRAM = """
function double(x) {
  var r = x + x;
  return r;
}

function main() {
  var a = double(3);
  var b = double(10);
  var c = a + b;
  return c;
}
"""

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

RECURSIVE_PROGRAM = """
function f(x) {
  var y = g(x);
  return y;
}
function g(x) {
  var y = f(x);
  return y;
}
function main() { var z = f(1); return z; }
"""


def cfgs_of(source):
    return build_program_cfgs(parse_program(source))


class TestCallGraph:
    def test_edges_and_reachability(self):
        graph = CallGraph(cfgs_of(CHAIN_PROGRAM))
        assert graph.callees("main") == {"middle"}
        assert graph.callees("middle") == {"leaf"}
        assert graph.callers("leaf") == {"middle"}
        assert graph.reachable_from("main") == {"main", "middle", "leaf"}
        assert graph.reachable_from("leaf") == {"leaf"}

    def test_topological_order_puts_callees_first(self):
        graph = CallGraph(cfgs_of(CHAIN_PROGRAM))
        order = graph.topological_order()
        assert order.index("leaf") < order.index("middle") < order.index("main")

    def test_recursion_detected(self):
        graph = CallGraph(cfgs_of(RECURSIVE_PROGRAM))
        with pytest.raises(RecursionError_):
            graph.check_nonrecursive()

    def test_unknown_callees_ignored(self):
        graph = CallGraph(cfgs_of("function main() { log(1); return 0; }"))
        assert graph.callees("main") == set()

    def test_reverse_index_tracks_updates(self):
        cfgs = cfgs_of(CHAIN_PROGRAM)
        graph = CallGraph(cfgs)
        assert graph.callers("middle") == {"main"}
        assert graph.transitive_callers("leaf") == {"middle", "main"}
        # Rewire middle's call from leaf to nothing: its reverse entries
        # must follow without a whole-graph rebuild.
        middle = cfgs["middle"]
        call_edge = next(e for e in middle.edges
                         if isinstance(e.stmt, A.CallStmt))
        middle.replace_edge_statement(call_edge, A.SkipStmt())
        graph.update_procedure("middle", middle)
        assert graph.callers("leaf") == set()
        assert graph.callees("middle") == set()
        assert graph.callers("middle") == {"main"}

    def test_sccs_and_recursive_procedures(self):
        graph = CallGraph(cfgs_of(RECURSIVE_PROGRAM))
        assert graph.scc_of("f") == frozenset({"f", "g"})
        assert graph.recursive_procedures() == {"f", "g"}
        assert graph.is_recursive("f") and not graph.is_recursive("main")
        order = graph.topological_order()
        assert order.index("f") < order.index("main")
        assert order.index("g") < order.index("main")

    def test_self_call_is_recursive(self):
        graph = CallGraph(cfgs_of(
            "function f(x) { var y = f(x); return y; }"
            "function main() { var z = f(1); return z; }"))
        assert graph.is_recursive("f")
        with pytest.raises(RecursionError_):
            graph.check_nonrecursive()


class TestContextPolicies:
    def test_insensitive_always_same_context(self):
        policy = ContextInsensitive()
        site = ("main", A.CallStmt("x", "f", ()))
        assert policy.callee_context((), site) == ()
        assert policy.callee_context(("anything",), site) == ()

    def test_call_string_truncation(self):
        policy = CallStringSensitive(2)
        first = ("main", A.CallStmt("x", "f", ()))
        second = ("f", A.CallStmt("y", "g", ()))
        third = ("g", A.CallStmt("z", "h", ()))
        ctx1 = policy.callee_context((), first)
        ctx2 = policy.callee_context(ctx1, second)
        ctx3 = policy.callee_context(ctx2, third)
        assert len(ctx1) == 1 and len(ctx2) == 2 and len(ctx3) == 2
        assert ctx3[0][0] == "f"  # the oldest site fell off

    def test_policy_by_name(self):
        assert policy_by_name("insensitive").name == "context-insensitive"
        assert policy_by_name("1-call-site").k == 1
        assert policy_by_name("2").k == 2
        with pytest.raises(KeyError):
            policy_by_name("banana")

    def test_invalid_call_string_length(self):
        with pytest.raises(ValueError):
            CallStringSensitive(0)


class TestInterproceduralAnalysis:
    def test_context_sensitive_keeps_call_sites_apart(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CALL_PROGRAM), domain,
                                       CallStringSensitive(1))
        exit_state = engine.query_entry_exit()
        bounds = domain.numeric_bounds(A.Var("c"), exit_state)
        assert bounds == (26, 26)
        assert len(engine.contexts_of("double")) == 2

    def test_context_insensitive_joins_call_sites(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CALL_PROGRAM), domain,
                                       ContextInsensitive())
        exit_state = engine.query_entry_exit()
        bounds = domain.numeric_bounds(A.Var("c"), exit_state)
        assert bounds[0] <= 12 and (bounds[1] is None or bounds[1] >= 26)
        assert len(engine.contexts_of("double")) == 1

    def test_two_level_chain_needs_two_call_sites(self):
        domain = IntervalDomain()
        precise = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                        CallStringSensitive(2))
        merged = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       CallStringSensitive(1))
        precise_bounds = domain.numeric_bounds(
            A.Var("ret"), precise.query_entry_exit())
        merged_bounds = domain.numeric_bounds(
            A.Var("ret"), merged.query_entry_exit())
        assert precise_bounds == (103, 103)
        # 1-call-site merges leaf's two transitive callers, losing precision.
        assert merged_bounds != (103, 103)

    def test_recursion_rejected_only_on_opt_in(self):
        # Recursive programs analyze via the SCC summary fixpoint by
        # default; the paper's original restriction is an opt-in validation.
        engine = InterproceduralEngine(cfgs_of(RECURSIVE_PROGRAM),
                                       IntervalDomain())
        assert engine.query_entry_exit() is not None
        with pytest.raises(RecursionError_):
            CallGraph(cfgs_of(RECURSIVE_PROGRAM)).check_nonrecursive()

    def test_unknown_external_calls_are_havocked(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(
            cfgs_of("function main() { var x = mystery(); return x; }"), domain)
        exit_state = engine.query_entry_exit()
        assert domain.numeric_bounds(A.Var("x"), exit_state) == (None, None)

    def test_analyze_everything_covers_all_constructed_daigs(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       CallStringSensitive(2))
        results = engine.analyze_everything()
        analyzed = {name for name, _ctx in results}
        assert analyzed == {"main", "middle", "leaf"}
        stats = engine.total_stats()
        assert stats["daigs"] >= 5  # main + 2 middle contexts + 2 leaf contexts

    def test_query_uncalled_procedure_uses_initial_state(self):
        domain = IntervalDomain()
        cfgs = cfgs_of("""
            function orphan(x) { var y = x + 1; return y; }
            function main() { return 0; }
        """)
        engine = InterproceduralEngine(cfgs, domain)
        result = engine.query("orphan", cfgs["orphan"].exit)
        assert not domain.is_bottom(result)

    def test_octagon_interprocedural(self):
        domain = OctagonDomain()
        engine = InterproceduralEngine(cfgs_of(CALL_PROGRAM), domain,
                                       CallStringSensitive(1))
        exit_state = engine.query_entry_exit()
        assert exit_state.variable_bounds("c") == (26, 26)

    def test_site_contribution_grows_by_join_not_replacement(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CALL_PROGRAM), domain,
                                       ContextInsensitive())
        exit_state = engine.query_entry_exit()
        (context,) = engine.contexts_of("double")
        contribs = engine._contribs[("double", context)]
        (first_site, first), (_second_site, second) = sorted(contribs.items())
        assert not domain.leq(second, first)
        caller_key, skey = first_site
        engine.record_call_contribution(caller_key, skey, "double", context,
                                        second)
        grown = contribs[first_site]
        assert domain.equal(grown, domain.join(first, second))
        # Within one program version a site never shrinks back.
        engine.record_call_contribution(caller_key, skey, "double", context,
                                        first)
        assert contribs[first_site] is grown
        # The shared entry already covered both sites: no answer moves.
        assert domain.equal(engine.query_entry_exit(), exit_state)

    def test_replaying_derived_contributions_moves_no_entry(self):
        """Call cells and the parallel coordinator's replay record through
        one method, so replaying what sequential demand derived is a
        no-op."""
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       CallStringSensitive(1))
        exit_state = engine.query_entry_exit()
        derived = [(callee_key, site_id, state)
                   for callee_key, contribs in engine._contribs.items()
                   for site_id, state in contribs.items()]
        assert len(derived) == 4  # middle: 2 sites; leaf: 1 site x 2 contexts
        updates = engine.counters["interproc_entry_updates"]
        for (callee, context), (caller_key, skey), state in derived:
            engine.record_call_contribution(caller_key, skey, callee, context,
                                            state)
        assert engine.counters["interproc_entry_updates"] == updates
        assert domain.equal(engine.query_entry_exit(), exit_state)


class TestInterproceduralEdits:
    def test_editing_a_callee_dirties_callers(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CALL_PROGRAM), domain,
                                       CallStringSensitive(1))
        before = domain.numeric_bounds(A.Var("c"), engine.query_entry_exit())
        assert before == (26, 26)

        def edit(procedure_engine):
            target = next(
                edge for edge in procedure_engine.cfg.edges
                if isinstance(edge.stmt, A.AssignStmt) and edge.stmt.target == "r")
            procedure_engine.replace_statement(
                target, A.AssignStmt("r", A.BinOp("+", A.BinOp("+", A.Var("x"),
                                                                A.Var("x")),
                                                  A.IntLit(1))))

        engine.edit_procedure("double", edit)
        after = domain.numeric_bounds(A.Var("c"), engine.query_entry_exit())
        assert after == (28, 28)

    def test_editing_never_scans_daig_ref_sets(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CALL_PROGRAM), domain,
                                       CallStringSensitive(1))
        engine.query_entry_exit()

        def edit(procedure_engine):
            target = next(
                edge for edge in procedure_engine.cfg.edges
                if isinstance(edge.stmt, A.AssignStmt) and edge.stmt.target == "r")
            procedure_engine.replace_statement(
                target, A.AssignStmt("r", A.BinOp("*", A.Var("x"), A.IntLit(3))))

        engine.edit_procedure("double", edit)
        # The edit itself dirties exactly main's two call cells, found
        # through the call graph; the follow-up query adds per-context
        # exit-change dirtying, still bounded by the dependent sites.
        assert engine.counters["interproc_callsite_dirties"] == 2
        engine.query_entry_exit()
        assert engine.counters["interproc_callsite_dirties"] <= 8

    def test_unchanged_entries_hit_memoized_summaries(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       CallStringSensitive(2))
        engine.analyze_everything()
        hits_before = engine.counters["interproc_summary_hits"]
        misses_before = engine.counters["interproc_summary_misses"]
        # Re-demanding the same exits at unchanged entries is pure reuse.
        engine.query_entry_exit()
        assert engine.counters["interproc_summary_misses"] == misses_before
        assert engine.counters["interproc_summary_hits"] >= hits_before

    def test_editing_the_entry_procedure(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CALL_PROGRAM), domain,
                                       CallStringSensitive(1))
        engine.query_entry_exit()

        def edit(procedure_engine):
            procedure_engine.insert_statement_after(
                procedure_engine.cfg.entry, A.AssignStmt("bonus", A.IntLit(1)))

        engine.edit_procedure("main", edit)
        exit_state = engine.query_entry_exit()
        assert domain.numeric_bounds(A.Var("bonus"), exit_state) == (1, 1)
        assert domain.numeric_bounds(A.Var("c"), exit_state) == (26, 26)


class TestTeardown:
    """Nothing an engine builds refers back to it strongly, so dropping an
    engine frees it and every DAIG it built by reference counting.  A
    process that opens engine after engine (an editor restarting on its
    store) then leaves no cyclic garbage for a full collection to trace
    in the middle of a later edit."""

    def test_a_dropped_engine_leaves_no_cyclic_garbage(self, tmp_path):
        cfgs = build_program_cfgs(parse_program(
            wide_call_graph_source(3, inner_loops=1)))
        gc.collect()
        gc.disable()
        try:
            engine = InterproceduralEngine(
                cfgs, IntervalDomain(), policy_by_name("insensitive"),
                store="sqlite:%s" % (tmp_path / "summaries.db"))
            with PersistentWorkerPool(workers=2, kind="serial") as pool:
                ParallelCoordinator(engine, pool).run()
            engine.query_entry_exit()
            engine.edit_procedure(
                "work1", relabel_assignment("t0", parse_expression("m0 + acc")))
            engine.query_entry_exit()
            engine.store.close()
            assert len(engine.engines) > 1
            dropped = [weakref.ref(engine)] + [
                weakref.ref(daig) for daig in engine.engines.values()]
            del engine
            assert [ref() for ref in dropped] == [None] * len(dropped)
            del cfgs
            assert gc.collect() == 0
        finally:
            gc.enable()
