"""The incremental CFG structure layer: correctness and locality.

Four properties pin down the new layer:

* **From-scratch equality** — after every edit in a long random stream
  (insertions of statements / conditionals / loops, statement relabels,
  edge removals that delete loops or disconnect regions, and
  locality-defeating fallbacks), the incrementally maintained analysis is
  *identical* to a from-scratch analysis of a copy of the same graph.
* **Statement-only identity** — relabelling a statement leaves the cached
  analysis *object* in place and its dominator/loop structures untouched:
  zero structural recomputation.
* **Live snapshot equality** — the engine's structure snapshot, captured
  once at construction and thereafter updated in place over each edit's
  affected region, stays equal to a fresh ``StructureSnapshot.capture``
  after every edit (including batched edits and interleaved queries).
* **Locality counters** — the acceptance criterion of the refactor:
  statement-only edits perform zero dominator/loop recomputation and zero
  full-CFG snapshot walks; structural edits near the exit do work
  independent of program size.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_workload

from repro.analysis.config import IncrementalDemandConfiguration
from repro.daig import DaigEngine
from repro.daig.splice import StructureSnapshot
from repro.domains import IntervalDomain, SignDomain
from repro.lang import ast as A
from repro.lang.cfg import Cfg
from repro.workload import generate_trials, run_trial
from repro.workload.generator import WorkloadGenerator

COMMON_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ANALYSIS_FACTS = (
    "reachable", "dominators", "back_pairs", "natural_loops", "loop_heads",
    "heads_by_loc", "containing", "fwd_edges_to", "join_points",
    "has_forward_cycle",
)


def assert_analysis_matches_scratch(cfg, tag=""):
    """The live analysis equals a from-scratch analysis of the same graph."""
    fresh = cfg.copy()
    live, scratch = cfg._analyze(), fresh._analyze()
    for fact in ANALYSIS_FACTS:
        assert getattr(live, fact) == getattr(scratch, fact), (tag, fact)
    assert dict(live.bad_loop_exits) == dict(scratch.bad_loop_exits), (tag, "exits")
    assert cfg.back_edges() == fresh.back_edges(), (tag, "back list")
    assert cfg.forward_edges() == fresh.forward_edges(), (tag, "forward list")
    assert cfg.reverse_postorder() == fresh.reverse_postorder(), (tag, "rpo")


def assert_snapshot_matches_capture(engine, tag=""):
    """The engine's live snapshot equals a from-scratch capture."""
    live = engine._snapshot
    fresh = StructureSnapshot.capture(engine.cfg)
    assert set(live.reachable) == set(fresh.reachable), (tag, "reachable")
    assert live.loc_sigs == fresh.loc_sigs, (tag, "loc_sigs")
    assert live.loop_sigs == fresh.loop_sigs, (tag, "loop_sigs")
    assert live.stmt_cells == fresh.stmt_cells, (tag, "stmt_cells")
    assert live.natural_loops == fresh.natural_loops, (tag, "natural_loops")
    assert live.stmt_keys_by_loc == fresh.stmt_keys_by_loc, (tag, "keys")


def _seed_cfg():
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    return cfg


class TestIncrementalEqualsFromScratch:
    @settings(**COMMON_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_edit_stream(self, seed):
        """Insert streams (statements, conditionals, loops) stay equal."""
        generator = WorkloadGenerator(seed=seed, call_probability=0.0)
        cfg = generator.cfg
        cfg.ensure_structure()
        for index in range(25):
            edit = generator.next_edit()
            edit.apply_to_cfg(cfg)
            assert_analysis_matches_scratch(cfg, (seed, index, edit.describe()))

    @settings(**COMMON_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_stream_with_relabels_and_removals(self, seed):
        """Statement relabels and edge removals (loop deletion, region
        disconnection) interleaved with insertions stay equal, including
        relabels landing while a structural delta is still pending."""
        generator = WorkloadGenerator(seed=seed, call_probability=0.0)
        cfg = generator.cfg
        cfg.ensure_structure()
        rng = random.Random(seed)
        for index in range(30):
            generator.next_edit().apply_to_cfg(cfg)
            if rng.random() < 0.5 and cfg.edges:
                # Relabel before any query: the patch rides the pending delta.
                edge = rng.choice(cfg.edges)
                cfg.replace_edge_statement(
                    edge, A.AssignStmt("r", A.IntLit(index)))
            if rng.random() < 0.25 and len(cfg.edges) > 2:
                cfg.remove_edge(rng.choice(cfg.edges))
            assert_analysis_matches_scratch(cfg, (seed, index))

    def test_loop_deletion_via_back_edge_removal(self):
        cfg = _seed_cfg()
        cfg.insert_loop_after(cfg.entry, A.BinOp("<", A.Var("i"), A.IntLit(3)),
                              [A.AssignStmt("i", A.BinOp("+", A.Var("i"), A.IntLit(1)))])
        cfg.ensure_structure()
        assert len(cfg.loop_heads()) == 1
        head = cfg.loop_heads()[0]
        back = cfg.back_edges_to(head)[0]
        cfg.remove_edge(back)
        assert cfg.loop_heads() == []
        assert_analysis_matches_scratch(cfg, "loop deleted")

    def test_irreducible_fallback_and_recovery(self):
        cfg = Cfg("irr")
        a, b = cfg.fresh_loc(), cfg.fresh_loc()
        cfg.add_edge(cfg.entry, A.AssumeStmt(A.Var("x")), a)
        cfg.ensure_structure()  # start incremental
        cfg.add_edge(cfg.entry, A.AssumeStmt(A.Var("y")), b)
        cfg.add_edge(a, A.SkipStmt(), b)
        cycle_back = cfg.add_edge(b, A.SkipStmt(), a)
        cfg.add_edge(a, A.SkipStmt(), cfg.exit)
        assert not cfg.is_reducible()
        assert_analysis_matches_scratch(cfg, "irreducible")
        cfg.remove_edge(cycle_back)
        assert cfg.is_reducible()
        assert_analysis_matches_scratch(cfg, "recovered")

    def test_wholesale_invalidation_falls_back_to_rebuild(self):
        cfg = _seed_cfg()
        cfg.insert_statement_after(cfg.entry, A.AssignStmt("x", A.IntLit(1)))
        builds_before = cfg.structure_stats()["structure_full_builds"]
        cfg._invalidate()
        cfg.ensure_structure()
        assert cfg.structure_stats()["structure_full_builds"] == builds_before + 1
        assert_analysis_matches_scratch(cfg, "after invalidate")

    @settings(**COMMON_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_raw_edge_mutations_stay_equal(self, seed):
        """Raw add_edge/remove_edge between arbitrary existing locations
        (not just the structured insert operations) stay equal — including
        edges whose source is outside the refreshed region, e.g. an edge
        out of a loop body into downstream code."""
        generator = WorkloadGenerator(seed=seed, call_probability=0.0)
        cfg = generator.cfg
        generator.generate(12)
        cfg.ensure_structure()
        rng = random.Random(seed)
        added = []
        for index in range(15):
            locs = sorted(cfg.locations)
            src, dst = rng.choice(locs), rng.choice(locs)
            if src != cfg.exit:
                added.append(cfg.add_edge(src, A.SkipStmt(), dst))
            if added and rng.random() < 0.4:
                cfg.remove_edge(added.pop(rng.randrange(len(added))))
            assert_analysis_matches_scratch(cfg, (seed, index))

    def test_added_loop_exit_edge_outside_region_is_detected(self):
        """Regression: an added edge leaving a loop body from a non-head
        location must be flagged even though its *source* is not
        forward-reachable from the edge's destination (it lies outside the
        refreshed region)."""
        cfg = _seed_cfg()
        after = cfg.insert_statement_after(cfg.entry, A.AssignStmt("a", A.IntLit(1)))
        cfg.insert_loop_after(after, A.BinOp("<", A.Var("i"), A.IntLit(3)),
                              [A.AssignStmt("i", A.BinOp("+", A.Var("i"), A.IntLit(1)))])
        cfg.ensure_structure()
        head = cfg.loop_heads()[0]
        body_loc = sorted(cfg.natural_loop(head) - {head})[0]
        cfg.add_edge(body_loc, A.SkipStmt(), cfg.exit)
        violations = cfg.loop_exit_violations()
        assert any(edge.src == body_loc and violated == head
                   for edge, violated in violations)
        assert_analysis_matches_scratch(cfg, "escaping edge")

    def test_relabel_then_remove_in_one_batch_leaves_no_phantom_violation(self):
        """Regression: relabelling a loop-exit-violating edge while a
        structural delta is pending, then removing it in the same batch,
        must not resurrect its violation entry."""
        cfg = _seed_cfg()
        after = cfg.insert_statement_after(cfg.entry, A.AssignStmt("a", A.IntLit(1)))
        cfg.insert_loop_after(after, A.BinOp("<", A.Var("i"), A.IntLit(3)),
                              [A.AssignStmt("i", A.BinOp("+", A.Var("i"), A.IntLit(1)))])
        cfg.ensure_structure()
        head = cfg.loop_heads()[0]
        body_loc = sorted(cfg.natural_loop(head) - {head})[0]
        bad = cfg.add_edge(body_loc, A.SkipStmt(), cfg.exit)  # delta now pending
        relabelled = cfg.replace_edge_statement(bad, A.AssignStmt("z", A.IntLit(2)))
        cfg.remove_edge(relabelled)
        assert cfg.loop_exit_violations() == []
        assert_analysis_matches_scratch(cfg, "repaired")

    def test_region_disconnect_and_reconnect(self):
        cfg = Cfg("u")
        mid, tail = cfg.fresh_loc(), cfg.fresh_loc()
        first = cfg.add_edge(cfg.entry, A.SkipStmt(), mid)
        cfg.add_edge(mid, A.AssignStmt("v", A.IntLit(1)), tail)
        cfg.add_edge(tail, A.AssignStmt("ret", A.NullLit()), cfg.exit)
        cfg.ensure_structure()
        cfg.remove_edge(first)
        assert cfg.reachable_locations() == {cfg.entry}
        assert_analysis_matches_scratch(cfg, "disconnected")
        cfg.add_edge(cfg.entry, A.SkipStmt(), mid)
        assert tail in cfg.reachable_locations()
        assert_analysis_matches_scratch(cfg, "reconnected")


class TestStatementOnlyEdits:
    def test_relabel_preserves_the_analysis_object(self):
        """A statement-only edit patches the live analysis in place: same
        object, same dominator and loop structures (identity, not equality)."""
        generator = WorkloadGenerator(seed=3, call_probability=0.0)
        cfg = generator.cfg
        generator.generate(30)
        cfg.ensure_structure()
        analysis = cfg._analysis
        dominators = analysis.dominators
        loops = analysis.natural_loops
        containing = analysis.containing
        refreshes = cfg.structure_stats()["structure_refreshes"]
        for index, edge in enumerate(list(cfg.edges)[:10]):
            cfg.replace_edge_statement(edge, A.AssignStmt("s", A.IntLit(index)))
            assert cfg._analysis is analysis
            assert analysis.dominators is dominators
            assert analysis.natural_loops is loops
            assert analysis.containing is containing
        stats = cfg.structure_stats()
        assert stats["structure_refreshes"] == refreshes
        assert stats["structure_stmt_patches"] >= 10
        assert_analysis_matches_scratch(cfg, "after relabels")

    def test_relabel_reorders_join_indices_correctly(self):
        """Relabelling one arm of an empty conditional re-sorts the join's
        pre-join indices (they sort on statement text) — the one piece of
        derived structure a statement-only edit may touch."""
        cfg = _seed_cfg()
        join = cfg.insert_conditional_after(
            cfg.entry, A.BinOp(">", A.Var("f"), A.IntLit(0)), [], [])
        cfg.ensure_structure()
        arm = cfg.fwd_edges_to(join)[0][1]
        cfg.replace_edge_statement(arm, A.AssignStmt("zz", A.IntLit(9)))
        assert_analysis_matches_scratch(cfg, "join relabel")


@pytest.mark.parametrize("domain_cls", [IntervalDomain, SignDomain])
class TestLiveSnapshot:
    def test_snapshot_tracks_random_edits(self, domain_cls):
        domain = domain_cls()
        generator, steps = random_workload(seed=17, edits=25)
        engine = DaigEngine(_seed_cfg(), domain)
        rng = random.Random(17)
        for index, step in enumerate(steps):
            step.edit.apply_to_engine(engine)
            assert_snapshot_matches_capture(engine, (index, step.edit.describe()))
            if rng.random() < 0.4 and engine.cfg.edges:
                edge = rng.choice(engine.cfg.edges)
                engine.replace_statement(edge, A.AssignStmt("q", A.IntLit(index)))
                assert_snapshot_matches_capture(engine, (index, "relabel"))
            if rng.random() < 0.3:
                engine.query_all()
        engine.check_consistency()

    def test_snapshot_tracks_batched_edits(self, domain_cls):
        domain = domain_cls()
        generator, steps = random_workload(seed=23, edits=20)
        engine = DaigEngine(_seed_cfg(), domain)
        for start in range(0, len(steps), 5):
            with engine.batch_edits():
                for step in steps[start:start + 5]:
                    step.edit.apply_to_engine(engine)
            assert_snapshot_matches_capture(engine, start)
        engine.check_consistency()


class TestLocalityCounters:
    """The acceptance criterion: per-phase work counters prove the
    O(program) term is gone from the edit path."""

    def _grown_engine(self, edits=120, seed=11):
        generator = WorkloadGenerator(seed=seed, call_probability=0.0)
        engine = DaigEngine(_seed_cfg(), SignDomain())
        for step in generator.generate(edits):
            step.edit.apply_to_engine(engine)
        engine.query_all()
        return engine, generator

    def test_statement_only_edits_do_zero_structure_work(self):
        engine, _generator = self._grown_engine()
        before = engine.edit_stats.as_dict()
        rng = random.Random(1)
        relabels = 20
        for index in range(relabels):
            edge = rng.choice(engine.cfg.edges)
            engine.replace_statement(edge, A.AssignStmt("sv", A.IntLit(index)))
        delta = {key: value - before.get(key, 0)
                 for key, value in engine.edit_stats.as_dict().items()}
        assert delta["structure_refreshes"] == 0
        assert delta["structure_full_builds"] == 0
        assert delta["structure_locs_reanalyzed"] == 0
        assert delta["snapshot_full_captures"] == 0
        assert 0 < delta["snapshot_locs_resigned"] <= relabels
        assert delta["structure_stmt_patches"] == relabels

    def test_tail_insertions_do_size_independent_work(self):
        """A structural edit whose forward region is small (just before the
        exit) re-analyzes a constant neighbourhood at any program size."""
        works = []
        for edits in (60, 120):
            engine, _generator = self._grown_engine(edits=edits)
            before = engine.edit_stats.as_dict()
            for index in range(10):
                loc = engine.cfg.in_edges(engine.cfg.exit)[0].src
                engine.insert_statement_after(
                    loc, A.AssignStmt("t", A.IntLit(index)))
            delta = {key: value - before.get(key, 0)
                     for key, value in engine.edit_stats.as_dict().items()}
            assert delta["structure_full_builds"] == 0, delta
            assert delta["snapshot_full_captures"] == 0, delta
            works.append(delta["structure_locs_reanalyzed"]
                         + delta["snapshot_locs_resigned"])
        assert works[1] <= 2 * works[0] + 40, works

    def test_snapshot_captured_once_at_construction(self):
        """No per-edit full snapshot walk: the capture happens at engine
        construction and ordinary edits update it in place."""
        engine, generator = self._grown_engine(edits=40)
        for step in generator.generate(10):
            step.edit.apply_to_engine(engine)
        # Random mid-program edits may legitimately hit the locality
        # fallback (their forward region covers most of a small program);
        # edits with a small forward region must never re-capture.
        captures = engine.edit_stats.as_dict()["snapshot_full_captures"]
        for index in range(5):
            loc = engine.cfg.in_edges(engine.cfg.exit)[0].src
            engine.insert_statement_after(loc, A.AssignStmt("u", A.IntLit(index)))
        assert engine.edit_stats.as_dict()["snapshot_full_captures"] == captures

    def test_fig10_stream_rebuilds_less_than_once_per_edit(self):
        """Full structure builds and full snapshot captures happen at
        construction or on the locality fallback, never once per edit."""
        edits = 60
        configuration = IncrementalDemandConfiguration(SignDomain())
        run_trial(configuration,
                  generate_trials(edits=edits, trials=1, base_seed=0)[0])
        stats = configuration.engine.edit_stats.as_dict()
        assert stats["structure_full_builds"] < edits, stats
        assert stats["snapshot_full_captures"] < edits, stats

    def test_random_structural_edits_reanalyze_less_than_full_rebuilds(self):
        """Averaged over random edit positions, the structure phase
        re-analyzes well under what a per-edit full rebuild would pay."""
        engine, generator = self._grown_engine(edits=60, seed=0)
        before = engine.edit_stats.as_dict()
        probe = 30
        for step in generator.generate(probe):
            step.edit.apply_to_engine(engine)
        after = engine.edit_stats.as_dict()
        size = engine.cfg.size()
        reanalyzed = (
            after["structure_locs_reanalyzed"]
            - before["structure_locs_reanalyzed"]
            + (after["structure_full_builds"] - before["structure_full_builds"])
            * size)
        assert reanalyzed < 0.8 * probe * size, (reanalyzed, size)


class TestEdgeIndices:
    """The edge-position/adjacency indices behind O(1) single edits."""

    def test_replace_with_duplicate_edges_present(self):
        cfg = _seed_cfg()
        join = cfg.insert_conditional_after(
            cfg.entry, A.BinOp(">", A.Var("x"), A.IntLit(0)), [], [])
        # Make the two arm statements *identical* (duplicate edge values).
        first, second = [edge for _i, edge in cfg.fwd_edges_to(join)]
        dup = cfg.replace_edge_statement(first, second.stmt)
        assert cfg.edges.count(dup) == 2
        relabelled = cfg.replace_edge_statement(dup, A.SkipStmt())
        assert cfg.edges.count(relabelled) == 1
        assert cfg.edges.count(dup) == 1
        assert_analysis_matches_scratch(cfg, "duplicates")

    def test_remove_unknown_edge_raises(self):
        from repro.lang.cfg import CfgEdge
        cfg = _seed_cfg()
        ghost = CfgEdge(cfg.entry, A.AssignStmt("g", A.IntLit(1)), cfg.exit)
        with pytest.raises(ValueError):
            cfg.remove_edge(ghost)
        with pytest.raises(ValueError):
            cfg.replace_edge_statement(ghost, A.SkipStmt())

    def test_positions_survive_swap_removal(self):
        cfg = _seed_cfg()
        locs = [cfg.entry]
        for index in range(6):
            locs.append(cfg.insert_statement_after(
                locs[-1], A.AssignStmt("x", A.IntLit(index))))
        edges = list(cfg.edges)
        rng = random.Random(4)
        rng.shuffle(edges)
        for edge in edges[:4]:
            cfg.remove_edge(edge)
            for survivor in cfg.edges:
                assert cfg.replace_edge_statement(survivor, survivor.stmt) == survivor
        assert_analysis_matches_scratch(cfg, "after swap removals")
