"""The live CFG structure layer: correctness and locality.

Four properties pin down the layer:

* **From-scratch equality** — after every edit in a long random stream
  (insertions of statements / conditionals / loops, statement relabels,
  and raw edge surgery that deletes loops, disconnects regions or makes
  the graph irreducible), the live analysis is *identical* to a
  from-scratch analysis of a copy of the same graph; so is it after each
  insertion case a random stream rarely hits (:class:`TestInsertionCases`).
* **Statement-only identity** — relabelling a statement leaves the cached
  analysis *object* in place and its dominator/loop structures untouched:
  zero structural recomputation.
* **Fresh-build equality** — the encodings the engine's builder filed
  when it built the DAIG, and re-filed over each edit's affected
  locations, equal a fresh build's after every edit (including batched
  edits and interleaved queries), and so do the DAIG's statement cells,
  its all-zero-iteration cells and their computations
  (:func:`helpers.assert_daig_matches_fresh_build`).
* **Locality counters** — statement-only edits perform zero
  dominator/loop recomputation and zero whole-program splices; an
  insertion analyzes exactly its new locations and never rebuilds, and
  insertions at either end of the program do work independent of its
  size.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (LOOP_SOURCE, NESTED_SOURCE,
                     assert_daig_matches_fresh_build, random_workload)

from repro.ai import analyze_cfg
from repro.analysis.config import IncrementalDemandConfiguration
from repro.daig import DaigEngine
from repro.domains import IntervalDomain, SignDomain
from repro.lang import ast as A
from repro.lang import build_cfg, parse_program
from repro.lang.cfg import Cfg
from repro.workload import generate_trials, run_trial
from repro.workload.generator import WorkloadGenerator

COMMON_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ANALYSIS_FACTS = (
    "reachable", "idom", "dom_children", "back_pairs", "natural_loops",
    "loop_heads", "heads_by_loc", "containing", "fwd_edges_to",
    "join_points", "has_forward_cycle",
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
        insertions right after a removal, which rebuild the structure
        first."""
        generator = WorkloadGenerator(seed=seed, call_probability=0.0)
        cfg = generator.cfg
        cfg.ensure_structure()
        rng = random.Random(seed)
        for index in range(30):
            generator.next_edit().apply_to_cfg(cfg)
            if rng.random() < 0.5 and cfg.edges:
                # Relabel before any query: patched into the live structure.
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
        (not just the structured insert operations) stay equal — each one
        drops the structure, which the next query rebuilds — including
        edges out of a loop body into downstream code."""
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
        location must be flagged, although its *source* is not
        forward-reachable from the edge's destination."""
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
        """Regression: relabelling a loop-exit-violating edge while the
        structure is stale, then removing it before the next query, must
        not resurrect its violation entry."""
        cfg = _seed_cfg()
        after = cfg.insert_statement_after(cfg.entry, A.AssignStmt("a", A.IntLit(1)))
        cfg.insert_loop_after(after, A.BinOp("<", A.Var("i"), A.IntLit(3)),
                              [A.AssignStmt("i", A.BinOp("+", A.Var("i"), A.IntLit(1)))])
        cfg.ensure_structure()
        head = cfg.loop_heads()[0]
        body_loc = sorted(cfg.natural_loop(head) - {head})[0]
        bad = cfg.add_edge(body_loc, A.SkipStmt(), cfg.exit)  # structure now stale
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
        object, same dominator tree and loop structures (identity, not
        equality)."""
        generator = WorkloadGenerator(seed=3, call_probability=0.0)
        cfg = generator.cfg
        generator.generate(30)
        cfg.ensure_structure()
        analysis = cfg._analysis
        idom = analysis.idom
        loops = analysis.natural_loops
        containing = analysis.containing
        refreshes = cfg.structure_stats()["structure_refreshes"]
        for index, edge in enumerate(list(cfg.edges)[:10]):
            cfg.replace_edge_statement(edge, A.AssignStmt("s", A.IntLit(index)))
            assert cfg._analysis is analysis
            assert analysis.idom is idom
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


def _queried_engine(source):
    cfg = build_cfg(parse_program(source).procedure("main"))
    engine = DaigEngine(cfg, IntervalDomain())
    engine.query_all()
    return engine


def _body_locations(cfg, head):
    return sorted(cfg.natural_loop(head) - {head})


def _increment(var, step=1):
    return A.AssignStmt(var, A.BinOp("+", A.Var(var), A.IntLit(step)))


def assert_insertion_exact(engine, tag=""):
    """Structure, DAIG encoding and answers all equal their from-scratch
    counterparts."""
    assert_analysis_matches_scratch(engine.cfg, tag)
    assert_daig_matches_fresh_build(engine, tag)
    batch = analyze_cfg(engine.cfg.copy(), engine.domain)
    assert set(batch) == set(engine.cfg.reachable_locations()), tag
    for loc, expected in batch.items():
        assert engine.domain.equal(engine.query_location(loc), expected), (tag, loc)


class TestInsertionCases:
    """Insertion shapes a random stream rarely hits, each checked against
    a from-scratch structure, a fresh DAIG build and the batch
    interpreter."""

    @staticmethod
    def _rebuilds(engine):
        stats = engine.edit_stats.as_dict()
        return stats["structure_full_builds"], stats["snapshot_full_captures"]

    def test_insertion_right_after_a_loop_head_keeps_the_exit_at_the_head(self):
        engine = _queried_engine(LOOP_SOURCE)
        cfg = engine.cfg
        head = cfg.loop_heads()[0]
        exits = [e for e in cfg.out_edges(head)
                 if e.dst not in cfg.natural_loop(head)]
        rebuilds = self._rebuilds(engine)
        cont = engine.insert_statement_after(head, _increment("total", 2))
        assert [e for e in cfg.out_edges(head)
                if e.dst not in cfg.natural_loop(head)] == exits
        assert cont in cfg.natural_loop(head)
        assert self._rebuilds(engine) == rebuilds
        assert_insertion_exact(engine, "after head")

    def test_insertion_after_the_last_body_location_moves_the_back_edge(self):
        engine = _queried_engine(LOOP_SOURCE)
        cfg = engine.cfg
        head = cfg.loop_heads()[0]
        last = cfg.back_edges_to(head)[0].src
        loop_writes = engine.builder.loop_encodings[head]
        rebuilds = self._rebuilds(engine)
        cont = engine.insert_statement_after(last, _increment("total"))
        assert [e.src for e in cfg.back_edges_to(head)] == [cont]
        assert engine.builder.loop_encodings[head] != loop_writes
        assert self._rebuilds(engine) == rebuilds
        assert_insertion_exact(engine, "back edge moved")

    def test_loop_inserted_inside_a_nested_loop(self):
        engine = _queried_engine(NESTED_SOURCE)
        cfg = engine.cfg
        outer, inner = sorted(cfg.loop_heads(),
                              key=lambda h: -len(cfg.natural_loop(h)))
        heads = set(cfg.loop_heads())
        rebuilds = self._rebuilds(engine)
        engine.insert_loop_after(
            _body_locations(cfg, inner)[0],
            A.BinOp("<", A.Var("k"), A.IntLit(2)), [_increment("k")])
        (new_head,) = set(cfg.loop_heads()) - heads
        assert cfg.containing_loop_heads(new_head) == (outer, inner, new_head)
        assert self._rebuilds(engine) == rebuilds
        assert_insertion_exact(engine, "nested loop")

    def test_insertion_at_an_unreachable_location(self):
        engine = _queried_engine(LOOP_SOURCE)
        cfg = engine.cfg
        dead = cfg.fresh_loc()
        cfg.add_edge(dead, A.AssignStmt("total", A.IntLit(99)), cfg.exit)
        engine.resync()
        rebuilds = self._rebuilds(engine)
        cont = engine.insert_statement_after(dead, _increment("total"))
        assert not {dead, cont} & cfg.reachable_locations()
        assert self._rebuilds(engine) == rebuilds
        assert_insertion_exact(engine, "unreachable")

    def test_insertion_while_raw_surgery_is_pending_rebuilds_first(self):
        engine = _queried_engine(LOOP_SOURCE)
        cfg = engine.cfg
        head = cfg.loop_heads()[0]
        builds, captures = self._rebuilds(engine)
        cfg.add_edge(cfg.entry, A.AssignStmt("total", A.IntLit(5)), cfg.exit)
        engine.insert_statement_after(
            _body_locations(cfg, head)[0], _increment("total"))
        assert self._rebuilds(engine) == (builds + 1, captures + 1)
        assert_insertion_exact(engine, "raw edge pending")

    def test_conditional_whose_continuation_becomes_a_join(self):
        engine = _queried_engine(LOOP_SOURCE)
        cfg = engine.cfg
        head = cfg.loop_heads()[0]
        rebuilds = self._rebuilds(engine)
        cont = engine.insert_conditional_after(
            _body_locations(cfg, head)[0],
            A.BinOp(">", A.Var("total"), A.IntLit(4)), [_increment("total")])
        assert cont in cfg.join_points()
        assert len(cfg.fwd_edges_to(cont)) == 2
        assert self._rebuilds(engine) == rebuilds
        assert_insertion_exact(engine, "join")

    def test_batch_of_insertions(self):
        engine = _queried_engine(NESTED_SOURCE)
        cfg = engine.cfg
        outer, inner = sorted(cfg.loop_heads(),
                              key=lambda h: -len(cfg.natural_loop(h)))
        rebuilds = self._rebuilds(engine)
        splices = engine.edit_stats.splices
        with engine.batch_edits():
            engine.insert_statement_after(cfg.entry, A.AssignStmt("k", A.IntLit(0)))
            engine.insert_statement_after(inner, _increment("k"))
            engine.insert_conditional_after(
                cfg.back_edges_to(outer)[0].src,
                A.BinOp("<", A.Var("k"), A.IntLit(3)), [], [_increment("k")])
            engine.insert_loop_after(
                outer, A.BinOp("<", A.Var("m"), A.IntLit(2)), [_increment("m")])
            engine.insert_statement_after(
                cfg.in_edges(cfg.exit)[0].src, _increment("total"))
        assert engine.edit_stats.splices == splices + 1
        assert self._rebuilds(engine) == rebuilds
        assert_insertion_exact(engine, "batch")


@pytest.mark.parametrize("domain_cls", [IntervalDomain, SignDomain])
class TestLiveSnapshot:
    """The builder's filed encodings, which stand where a separate
    structure snapshot once stood, track edit streams exactly."""

    def test_snapshot_tracks_random_edits(self, domain_cls):
        domain = domain_cls()
        generator, steps = random_workload(seed=17, edits=25)
        engine = DaigEngine(_seed_cfg(), domain)
        engine.materialize()
        rng = random.Random(17)
        for index, step in enumerate(steps):
            step.edit.apply_to_engine(engine)
            assert_daig_matches_fresh_build(
                engine, (index, step.edit.describe()))
            if rng.random() < 0.4 and engine.cfg.edges:
                edge = rng.choice(engine.cfg.edges)
                engine.replace_statement(edge, A.AssignStmt("q", A.IntLit(index)))
                assert_daig_matches_fresh_build(engine, (index, "relabel"))
            if rng.random() < 0.3:
                engine.query_all()
        engine.check_consistency()

    def test_snapshot_tracks_batched_edits(self, domain_cls):
        domain = domain_cls()
        generator, steps = random_workload(seed=23, edits=20)
        engine = DaigEngine(_seed_cfg(), domain)
        engine.materialize()
        for start in range(0, len(steps), 5):
            with engine.batch_edits():
                for step in steps[start:start + 5]:
                    step.edit.apply_to_engine(engine)
            assert_daig_matches_fresh_build(engine, start)
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
        """Insertions just before the exit re-analyze and compare a
        constant neighbourhood at any program size."""
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
        """No per-edit whole-program splice: the builder files the
        encoding when it builds the DAIG, and ordinary edits compare and
        re-file only their suspects."""
        engine, generator = self._grown_engine(edits=40)
        for step in generator.generate(10):
            step.edit.apply_to_engine(engine)
        # Random mid-program insertions are pinned by the fig10 stream
        # test below; this pins insertions just before the exit.
        captures = engine.edit_stats.as_dict()["snapshot_full_captures"]
        for index in range(5):
            loc = engine.cfg.in_edges(engine.cfg.exit)[0].src
            engine.insert_statement_after(loc, A.AssignStmt("u", A.IntLit(index)))
        assert engine.edit_stats.as_dict()["snapshot_full_captures"] == captures

    def test_fig10_stream_rebuilds_less_than_once_per_edit(self):
        """The structure is built once, when the stream starts; every
        insertion after that is applied exactly, and no splice compares
        the whole program."""
        edits = 60
        configuration = IncrementalDemandConfiguration(SignDomain())
        run_trial(configuration,
                  generate_trials(edits=edits, trials=1, base_seed=0)[0])
        stats = configuration.engine.edit_stats.as_dict()
        assert stats["structure_full_builds"] == 1, stats
        assert stats["snapshot_full_captures"] == 0, stats

    def test_random_structural_edits_reanalyze_less_than_full_rebuilds(self):
        """At random edit positions, the structure phase analyzes exactly
        the inserted locations and never rebuilds."""
        engine, generator = self._grown_engine(edits=60, seed=0)
        before = engine.edit_stats.as_dict()
        locations = len(engine.cfg.locations)
        for step in generator.generate(30):
            step.edit.apply_to_engine(engine)
        after = engine.edit_stats.as_dict()
        assert after["structure_full_builds"] == before["structure_full_builds"]
        inserted = len(engine.cfg.locations) - locations
        assert (after["structure_locs_reanalyzed"]
                - before["structure_locs_reanalyzed"]) == inserted

    def test_head_insertions_do_size_independent_work(self):
        """Insertions right after the entry, whose downstream is the whole
        program, analyze and compare the same locations and write the same
        immediate dominators at any size: each re-parents the entry's one
        dominator-tree child and leaves its subtree alone."""
        works = []
        for edits in (60, 120):
            engine, _generator = self._grown_engine(edits=edits)
            # Leave the entry one out-edge, so every measured insertion
            # moves exactly one edge at both sizes.
            engine.insert_statement_after(
                engine.cfg.entry, A.AssignStmt("h", A.IntLit(-1)))
            analysis = engine.cfg._analysis
            analysis.idom = idom = _WriteCounter(analysis.idom)
            before = engine.edit_stats.as_dict()
            for index in range(10):
                engine.insert_statement_after(
                    engine.cfg.entry, A.AssignStmt("h", A.IntLit(index)))
            delta = {key: value - before.get(key, 0)
                     for key, value in engine.edit_stats.as_dict().items()}
            assert delta["structure_full_builds"] == 0, delta
            assert delta["snapshot_full_captures"] == 0, delta
            assert engine.cfg._analysis.idom is idom
            assert_analysis_matches_scratch(engine.cfg, edits)
            works.append((delta["structure_refreshes"],
                          delta["structure_locs_reanalyzed"],
                          delta["snapshot_locs_resigned"],
                          idom.writes))
        assert works[0] == works[1], works


class _WriteCounter(dict):
    """A dict that counts the entries written into it."""

    def __init__(self, items):
        super().__init__(items)
        self.writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def update(self, *args, **kwargs):
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]


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
