"""Tests for the demanded interprocedural layer: incremental-vs-fresh
equality under edit streams, recursion via the SCC summary fixpoint,
call-string context maintenance, and cross-procedure edit locality."""

import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from helpers import (SHARED_CALLEE_EDITED_SOURCE, SHARED_CALLEE_SOURCE,
                     assert_daig_matches_fresh_build)
from repro.concrete.interp import ConcreteError, ProgramInterpreter
from repro.domains import IntervalDomain
from repro.interproc import (
    CallStringSensitive,
    InterproceduralEngine,
    policy_by_name,
)
from repro.lang import ast as A
from repro.lang import build_program_cfgs, parse_program
from repro.lang.programs import bystander_source
from repro.workload import WorkloadGenerator
from repro.workload.edits import relabel_assignment

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

EVEN_ODD_PROGRAM = """
function even(n) { var r = 1; if (n > 0) { var m = n - 1; r = odd(m); } return r; }
function odd(n) { var r = 0; if (n > 0) { var m = n - 1; r = even(m); } return r; }
function main() { var z = even(6); return z; }
"""

RECURSIVE_PROGRAMS = {"fact": FACT_PROGRAM, "even_odd": EVEN_ODD_PROGRAM}

#: Replays one multi-procedure edit stream on a storeless context-insensitive
#: engine and prints the canonical bytes of every answer, one per line.
REPLAY_SCRIPT = r"""
from repro.domains import IntervalDomain
from repro.interproc import InterproceduralEngine, policy_by_name
from repro.store import canonical_bytes
from repro.workload import WorkloadGenerator

workload = WorkloadGenerator(seed=2045, queries_per_edit=2).generate_multiprocedure(
    edits=12, procedures=4, call_probability=0.4)
engine = InterproceduralEngine(workload.fresh_cfgs(), IntervalDomain(),
                               policy_by_name("insensitive"))
for step in workload.steps:
    engine.edit_procedure(step.procedure, step.edit.apply_to_engine)
    for procedure, loc in step.query_sites:
        print(canonical_bytes(engine.query(procedure, loc)).hex())
"""


def cfgs_of(source):
    return build_program_cfgs(parse_program(source))


def _fresh_copy(cfgs):
    return {name: cfg.copy() for name, cfg in cfgs.items()}


def _assert_results_equal(domain, incremental, fresh):
    assert set(incremental) == set(fresh)
    for key in incremental:
        assert set(incremental[key]) == set(fresh[key]), key
        for loc, state in incremental[key].items():
            assert domain.equal(state, fresh[key][loc]), (key, loc)


def _drive_edits(engine, steps):
    for step in steps:
        engine.edit_procedure(step.procedure, step.edit.apply_to_engine)
        for procedure, loc in step.query_sites:
            engine.query(procedure, loc)


# ---------------------------------------------------------------------------
# From-scratch consistency under random interprocedural edit streams
# ---------------------------------------------------------------------------


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       policy_name=st.sampled_from(POLICIES))
def test_demanded_equals_from_scratch_after_interproc_edits(seed, policy_name):
    """After a random multi-procedure edit stream, the incrementally
    maintained engine answers every (procedure, context, location) exactly
    like a from-scratch engine on the final program."""
    domain = IntervalDomain()
    generator = WorkloadGenerator(seed=seed, queries_per_edit=2)
    workload = generator.generate_multiprocedure(
        edits=8, procedures=4, recursive=False)
    engine = InterproceduralEngine(workload.fresh_cfgs(), domain,
                                   policy_by_name(policy_name))
    engine.analyze_everything()
    _drive_edits(engine, workload.steps)
    engine.collect_garbage()
    incremental = engine.analyze_everything()
    fresh_engine = InterproceduralEngine(_fresh_copy(engine.cfgs), domain,
                                         policy_by_name(policy_name))
    # Issue the same demand on the fresh engine: procedures the incremental
    # engine analyzed from the initial state (bare queries while they had
    # no callers) are queried here too, so both sides hold the same roots.
    for procedure in engine.queried_roots():
        fresh_engine.query(procedure, fresh_engine.cfgs[procedure].entry)
    fresh = fresh_engine.analyze_everything()
    _assert_results_equal(domain, incremental, fresh)


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       policy_name=st.sampled_from(POLICIES))
def test_recursive_streams_stay_sound_and_stable(seed, policy_name):
    """Random *recursive* edit streams: the engine converges (no summary
    divergence), re-analysis is stable, and results cover the concrete
    interpreter wherever it terminates."""
    domain = IntervalDomain()
    generator = WorkloadGenerator(seed=seed, queries_per_edit=2)
    workload = generator.generate_multiprocedure(
        edits=8, procedures=4, recursive=True)
    engine = InterproceduralEngine(workload.fresh_cfgs(), domain,
                                   policy_by_name(policy_name))
    _drive_edits(engine, workload.steps)
    engine.collect_garbage()
    first = engine.analyze_everything()
    second = engine.analyze_everything()  # stability: a fixed point
    _assert_results_equal(domain, first, second)
    # Soundness against the concrete interpreter on terminating runs.
    exit_state = engine.query_entry_exit()
    try:
        result = ProgramInterpreter(
            _fresh_copy(engine.cfgs), fuel=20_000).call("main", [])
    except ConcreteError:
        return  # non-terminating or stuck program: nothing to check
    if isinstance(result, int):
        low, high = domain.numeric_bounds(A.Var(A.RETURN_VARIABLE), exit_state)
        assert low is None or low <= result
        assert high is None or result <= high


# ---------------------------------------------------------------------------
# Edit-time contribution retraction (precision regressions)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_sibling_contexts_match_a_fresh_build_after_every_step(seed):
    """Under ``2-call-site``, several contexts of a procedure share its
    CFG: an edit goes through one of their engines, and the others catch
    up by ``resync``.  After every step, each built engine matches a fresh
    build of its CFG."""
    workload = WorkloadGenerator(seed=seed).generate_multiprocedure(30)
    engine = InterproceduralEngine(workload.fresh_cfgs(), IntervalDomain(),
                                   policy_by_name("2-call-site"))
    siblings = 0
    for index, step in enumerate(workload.steps):
        _drive_edits(engine, [step])
        contexts = {}
        for key, daig_engine in engine.engines.items():
            if daig_engine.built:
                assert_daig_matches_fresh_build(daig_engine, (index, key))
                contexts[key[0]] = contexts.get(key[0], 0) + 1
        siblings = max([siblings, *contexts.values()])
    assert siblings > 1


class TestContributionRetraction:
    def test_retraction_cascades_through_callee_entry_changes(self):
        """Shrinking p's exit must also retract q's stale contribution to t:
        retraction is transitive through entry-target changes, so demanded
        results equal from-scratch even two call hops away from the edit."""
        source = """
            function t(w) { return w + 0; }
            function q(b) { var u = t(b); return u; }
            function p() { return 101; }
            function main() { var a = p(); var c = q(a); return c; }
        """
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(source), domain,
                                       policy_by_name("insensitive"))
        engine.analyze_everything()

        def shrink_p(procedure_engine):
            edge = next(e for e in procedure_engine.cfg.edges
                        if isinstance(e.stmt, A.AssignStmt)
                        and e.stmt.target == A.RETURN_VARIABLE)
            procedure_engine.replace_statement(
                edge, A.AssignStmt(A.RETURN_VARIABLE, A.IntLit(2)))

        engine.edit_procedure("p", shrink_p)
        engine.collect_garbage()
        incremental = engine.analyze_everything()
        fresh = InterproceduralEngine(
            _fresh_copy(engine.cfgs), domain,
            policy_by_name("insensitive")).analyze_everything()
        _assert_results_equal(domain, incremental, fresh)

    def test_editing_an_unanalyzed_procedure_keeps_caller_precision(self):
        """Editing a procedure before it was ever demanded must not inject
        the domain's initial (top-parameter) state into its entry."""
        source = """
            function h(x) { return x + 2; }
            function main() { var a = h(5); return a; }
        """
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(source), domain,
                                       policy_by_name("insensitive"))
        engine.edit_procedure("h", lambda pe: pe.insert_statement_after(
            pe.cfg.entry, A.AssignStmt("noise", A.IntLit(1))))
        bounds = domain.numeric_bounds(A.Var("a"), engine.query_entry_exit())
        assert bounds == (7, 7)

    def test_answers_do_not_depend_on_the_hash_seed(self):
        """Retraction takes callers and their sites in key order, so an
        edit stream answers alike under every ``PYTHONHASHSEED``.  This
        stream answered differently under hash seeds 0 and 2 while
        retraction walked a set of keys in hash order."""
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src_dir, env.get("PYTHONPATH")) if part)
        answers = []
        for hash_seed in ("0", "2"):
            completed = subprocess.run(
                [sys.executable, "-c", REPLAY_SCRIPT],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(env, PYTHONHASHSEED=hash_seed), check=False)
            assert completed.returncode == 0, completed.stderr.decode()
            answers.append(completed.stdout.splitlines())
        assert answers[0] and answers[0] == answers[1]

    @pytest.mark.parametrize("policy_name", [
        pytest.param("insensitive", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="a summary is not keyed by the callee entries it consumed")),
        "1-call-site", "2-call-site"])
    def test_dropping_one_caller_of_a_shared_callee(self, policy_name):
        """Once ``p`` stops calling ``c``, main's ``a`` is 0 as in a fresh
        engine, with cutoff on or off.  Known gap under the insensitive
        policy: ``q``'s memoized summary was computed at ``c``'s joined
        entry [1, 100], and its key (``q``, (), deep digest, ``q``'s entry)
        does not change when ``p`` drops its call, so the edited engine
        answers ``a`` in [0, 1] (ROADMAP item 3)."""
        domain = IntervalDomain()
        policy = policy_by_name(policy_name)
        fresh = InterproceduralEngine(cfgs_of(SHARED_CALLEE_EDITED_SOURCE),
                                      domain, policy).query_entry_exit()

        def drop_call(procedure_engine):
            edge = next(e for e in procedure_engine.cfg.edges
                        if isinstance(e.stmt, A.CallStmt))
            procedure_engine.replace_statement(
                edge, A.AssignStmt("y", A.IntLit(1)))

        answers = []
        for cutoff in (True, False):
            engine = InterproceduralEngine(cfgs_of(SHARED_CALLEE_SOURCE),
                                           domain, policy, cutoff=cutoff)
            engine.query_entry_exit()
            engine.edit_procedure("p", drop_call)
            answers.append(engine.query_entry_exit())
        assert all(domain.equal(answer, fresh) for answer in answers)


# ---------------------------------------------------------------------------
# Recursion via the SCC summary fixpoint
# ---------------------------------------------------------------------------


class TestRecursiveAnalysis:
    @pytest.mark.parametrize("name", sorted(RECURSIVE_PROGRAMS))
    def test_recursive_invariants_cover_concrete_execution(self, name):
        domain = IntervalDomain()
        cfgs = cfgs_of(RECURSIVE_PROGRAMS[name])
        engine = InterproceduralEngine(cfgs, domain)
        exit_state = engine.query_entry_exit()
        concrete = ProgramInterpreter(_fresh_copy(cfgs)).call("main", [])
        low, high = domain.numeric_bounds(A.Var("z"), exit_state)
        assert low is None or low <= concrete
        assert high is None or concrete <= high
        assert engine.counters["interproc_fixpoint_rounds"] > 0

    def test_mutual_recursion_is_precise_on_parity(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(EVEN_ODD_PROGRAM), domain,
                                       CallStringSensitive(1))
        bounds = domain.numeric_bounds(A.Var("z"), engine.query_entry_exit())
        # even/odd only ever return 0 or 1; the summary fixpoint keeps that.
        assert bounds == (0, 1)

    def test_editing_a_recursive_procedure_propagates(self):
        domain = IntervalDomain()
        cfgs = cfgs_of(FACT_PROGRAM)
        engine = InterproceduralEngine(cfgs, domain)
        before = engine.query_entry_exit()
        concrete_before = ProgramInterpreter(_fresh_copy(cfgs)).call("main", [])
        low, high = domain.numeric_bounds(A.Var("z"), before)
        assert low is None or low <= concrete_before
        assert high is None or concrete_before <= high

        def edit(procedure_engine):
            target = next(
                edge for edge in procedure_engine.cfg.edges
                if isinstance(edge.stmt, A.AssignStmt)
                and edge.stmt.target == "r"
                and isinstance(edge.stmt.value, A.IntLit))
            procedure_engine.replace_statement(
                target, A.AssignStmt("r", A.IntLit(-3)))

        engine.edit_procedure("fact", edit)
        after = engine.query_entry_exit()
        # The edited base case changes the concrete result; the demanded
        # re-analysis must still cover it.
        concrete_after = ProgramInterpreter(_fresh_copy(engine.cfgs)).call(
            "main", [])
        assert concrete_after != concrete_before
        low, high = domain.numeric_bounds(A.Var("z"), after)
        assert low is None or low <= concrete_after
        assert high is None or concrete_after <= high


# ---------------------------------------------------------------------------
# Call-string contexts under edit streams
# ---------------------------------------------------------------------------


class TestCallStringEditStreams:
    def _exit_bounds(self, engine, domain):
        return domain.numeric_bounds(A.Var(A.RETURN_VARIABLE),
                                     engine.query_entry_exit())

    def test_precision_ordering_holds_across_edits(self):
        """k=2 stays at least as precise as k=1 at the entry exit,
        before and after each edit of a shared chain program."""
        domain = IntervalDomain()
        one = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                    CallStringSensitive(1))
        two = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                    CallStringSensitive(2))

        def width(bounds):
            low, high = bounds
            if low is None or high is None:
                return float("inf")
            return high - low

        def edit_leaf(procedure_engine):
            target = next(
                edge for edge in procedure_engine.cfg.edges
                if isinstance(edge.stmt, A.AssignStmt)
                and edge.stmt.target == A.RETURN_VARIABLE)
            procedure_engine.replace_statement(
                target, A.AssignStmt(A.RETURN_VARIABLE,
                                     A.BinOp("+", A.Var("x"), A.IntLit(3))))

        assert width(self._exit_bounds(two, domain)) <= width(
            self._exit_bounds(one, domain))
        for engine in (one, two):
            engine.edit_procedure("leaf", edit_leaf)
        bounds_two = self._exit_bounds(two, domain)
        assert width(bounds_two) <= width(self._exit_bounds(one, domain))
        # k=2 separates leaf's transitive call chains: exact result,
        # (1 + 3) + (100 + 3) after the edit.
        assert bounds_two == (107, 107)

    def test_dirtying_reaches_every_live_context(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       CallStringSensitive(2))
        engine.analyze_everything()
        contexts = engine.contexts_of("leaf")
        assert len(contexts) == 2

        def edit_leaf(procedure_engine):
            target = next(
                edge for edge in procedure_engine.cfg.edges
                if isinstance(edge.stmt, A.AssignStmt)
                and edge.stmt.target == A.RETURN_VARIABLE)
            procedure_engine.replace_statement(
                target, A.AssignStmt(A.RETURN_VARIABLE,
                                     A.BinOp("+", A.Var("x"), A.IntLit(10))))

        engine.edit_procedure("leaf", edit_leaf)
        engine.query_entry_exit()
        for context in engine.contexts_of("leaf"):
            exit_state = engine.query(
                "leaf", engine.cfgs["leaf"].exit, context)
            low, high = domain.numeric_bounds(
                A.Var(A.RETURN_VARIABLE), exit_state)
            # Every context reflects the new `+ 10` body.
            assert low is not None and low >= 11

    def test_contexts_stay_consistent_after_call_site_removal(self):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       CallStringSensitive(1))
        engine.analyze_everything()
        assert len(engine.contexts_of("middle")) == 2

        def drop_second_call(procedure_engine):
            target = [edge for edge in procedure_engine.cfg.edges
                      if isinstance(edge.stmt, A.CallStmt)][1]
            procedure_engine.replace_statement(
                target, A.AssignStmt("big", A.IntLit(7)))

        engine.edit_procedure("main", drop_second_call)
        live = engine.contexts_of("middle", live_only=True)
        assert len(live) == 1
        # Garbage collection retires the orphaned context entirely.
        collected = engine.collect_garbage()
        assert collected >= 1
        assert engine.contexts_of("middle") == live
        # And the surviving analysis matches a from-scratch engine.
        incremental = engine.analyze_everything()
        fresh = InterproceduralEngine(
            _fresh_copy(engine.cfgs), domain,
            CallStringSensitive(1)).analyze_everything()
        _assert_results_equal(domain, incremental, fresh)


# ---------------------------------------------------------------------------
# Engine hygiene: opaque contexts, memo retention, SCC cache
# ---------------------------------------------------------------------------


class TestEngineHygiene:
    def test_unorderable_contexts_are_supported(self):
        """Contexts are opaque hashables: a policy returning frozensets
        (unorderable against each other's procedure twins) must work."""
        from repro.interproc.context import ContextPolicy

        class FrozensetPolicy(ContextPolicy):
            name = "frozenset-of-callers"

            def callee_context(self, caller_context, site):
                previous = (caller_context
                            if isinstance(caller_context, frozenset)
                            else frozenset())
                return previous | {site[0]}

        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       FrozensetPolicy())
        results = engine.analyze_everything()
        assert any(name == "leaf" for name, _ctx in results)

    def test_version_bumps_purge_orphaned_summaries(self):
        """Long edit streams must not leak dead version-stamped summaries
        in the shared (unbounded) memo table."""
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       CallStringSensitive(1))
        engine.query_entry_exit()

        def relabel(step):
            def edit(procedure_engine):
                target = next(
                    edge for edge in procedure_engine.cfg.edges
                    if isinstance(edge.stmt, A.AssignStmt)
                    and edge.stmt.target == A.RETURN_VARIABLE)
                procedure_engine.replace_statement(
                    target, A.AssignStmt(A.RETURN_VARIABLE,
                                         A.BinOp("+", A.Var("x"),
                                                 A.IntLit(step))))
            return edit

        def summary_entries():
            return sum(1 for key in engine.memo._table if key[0] == "summary")

        sizes = []
        for step in range(12):
            engine.edit_procedure("leaf", relabel(step))
            engine.query_entry_exit()
            sizes.append(summary_entries())
        # Entries reflect the *live* program version only — no growth with
        # the number of edits.
        assert sizes[-1] <= max(sizes[:3])

    def test_statement_edits_keep_the_scc_cache(self):
        """Statement edits that do not touch call sites must not invalidate
        the SCC condensation (no per-edit Tarjan pass)."""
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain)
        engine.query_entry_exit()
        graph = engine.callgraph
        graph.sccs()
        cached = graph._sccs
        assert cached is not None
        engine.edit_procedure("leaf", lambda pe: pe.insert_statement_after(
            pe.cfg.entry, A.AssignStmt("noise", A.IntLit(1))))
        assert graph._sccs is cached  # same object: no recomputation
        # An edit that changes the call-edge set does invalidate it
        # (middle's only call to leaf disappears).
        engine.edit_procedure("middle", lambda pe: pe.replace_statement(
            next(e for e in pe.cfg.edges
                 if isinstance(e.stmt, A.CallStmt)), A.SkipStmt()))
        assert graph._sccs is not cached


# ---------------------------------------------------------------------------
# Cross-procedure edit locality (O(dependent call sites))
# ---------------------------------------------------------------------------


class TestEditLocality:
    def _dirties_per_edit(self, bystanders, edits=6):
        domain = IntervalDomain()
        engine = InterproceduralEngine(
            cfgs_of(bystander_source(bystanders)), domain,
            policy_by_name("1-call-site"))
        engine.query_entry_exit()
        before = engine.counters["interproc_callsite_dirties"]
        for step in range(edits):
            engine.edit_procedure("leaf", relabel_assignment(
                "r", A.BinOp("+", A.Var("x"), A.IntLit(step))))
            engine.query_entry_exit()
        return (engine.counters["interproc_callsite_dirties"] - before) / edits

    def test_caller_dirtying_is_independent_of_program_size(self):
        small = self._dirties_per_edit(bystanders=3)
        large = self._dirties_per_edit(bystanders=20)
        assert small == large

    def test_structure_analysis_is_shared_across_contexts(self):
        cfgs = cfgs_of("""
            function leaf(x) { return x + 1; }
            function mid(y) { var a = leaf(y); var b = leaf(a); return a + b; }
            function main() { var u = mid(1); var v = mid(50); return u + v; }
        """)
        for cfg in cfgs.values():
            cfg.ensure_structure()
        builds_before = sum(cfg.structure_stats()["structure_full_builds"]
                            for cfg in cfgs.values())
        engine = InterproceduralEngine(cfgs, IntervalDomain(),
                                       CallStringSensitive(2))
        engine.analyze_everything()
        builds_after = sum(cfg.structure_stats()["structure_full_builds"]
                           for cfg in cfgs.values())
        assert builds_after == builds_before
        assert engine.total_stats()["daigs"] > len(cfgs)
