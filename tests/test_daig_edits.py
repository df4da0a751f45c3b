"""Tests for incremental edits: cell-level (Fig. 9) and structural (engine).

The key property is incremental consistency: after any sequence of edits,
demanded query results must equal a from-scratch batch analysis of the
edited program (the paper's Theorems 6.1/6.3 applied across versions).
"""

import pytest

from repro.ai import analyze_cfg
from repro.daig import DaigEngine, InvalidEditError, write_cell
from repro.daig import names as N
from repro.domains import IntervalDomain, OctagonDomain, SignDomain
from repro.lang import ast as A
from repro.lang import build_cfg, build_program_cfgs, parse_expression, parse_program
from repro.lang.programs import array_program

from helpers import LOOP_SOURCE, random_workload


class TestCellLevelEdits:
    """The D ⊢ n ⇐ v ; D' judgment of Fig. 9."""

    def _engine(self, interval_domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        return cfg, DaigEngine(cfg, interval_domain)

    def test_editing_a_statement_cell_dirties_downstream(self, interval_domain):
        cfg, engine = self._engine(interval_domain)
        engine.query_location(cfg.exit)
        builder = engine.builder
        exit_name = builder.state_name(cfg.exit, {})
        assert engine.daig.has_value(exit_name)
        # Edit the first assignment (i = 0 -> i = 5) directly in its cell.
        edge = cfg.out_edges(cfg.entry)[0]
        name = N.stmt_name(edge.src, edge.dst)
        write_cell(engine.daig, builder, name, A.AssignStmt("i", A.IntLit(5)))
        assert not engine.daig.has_value(exit_name)

    def test_edit_rolls_back_unrolled_loops(self, interval_domain):
        cfg, engine = self._engine(interval_domain)
        engine.query_location(cfg.exit)
        head = cfg.loop_heads()[0]
        assert engine.builder.current_unrolling(engine.daig, head, {}) >= 2
        edge = cfg.out_edges(cfg.entry)[0]
        write_cell(engine.daig, engine.builder, N.stmt_name(edge.src, edge.dst),
                   A.AssignStmt("i", A.IntLit(3)))
        assert engine.builder.current_unrolling(engine.daig, head, {}) == 1
        engine.daig.check_well_formed()

    def test_dirtying_is_lazy_no_recomputation(self, interval_domain):
        cfg, engine = self._engine(interval_domain)
        engine.query_location(cfg.exit)
        transfers_before = engine.stats.transfers
        edge = cfg.out_edges(cfg.entry)[0]
        write_cell(engine.daig, engine.builder, N.stmt_name(edge.src, edge.dst),
                   A.AssignStmt("i", A.IntLit(3)))
        assert engine.stats.transfers == transfers_before

    def test_downstream_only_dirtying(self, interval_domain):
        cfg, engine = self._engine(interval_domain)
        engine.query_location(cfg.exit)
        # Editing the last edge (into the exit) must not dirty the loop head.
        last_edge = cfg.in_edges(cfg.exit)[0]
        indexed = cfg.fwd_edges_to(cfg.exit)
        index = indexed[0][0] if len(indexed) > 1 else 0
        write_cell(engine.daig, engine.builder,
                   N.stmt_name(last_edge.src, last_edge.dst, index),
                   A.AssignStmt(A.RETURN_VARIABLE, A.IntLit(0)))
        head = cfg.loop_heads()[0]
        assert engine.daig.has_value(engine.builder.fix_name(head, {}))

    def test_cannot_empty_source_cells(self, interval_domain):
        cfg, engine = self._engine(interval_domain)
        edge = cfg.out_edges(cfg.entry)[0]
        with pytest.raises(InvalidEditError):
            write_cell(engine.daig, engine.builder,
                       N.stmt_name(edge.src, edge.dst), None)

    def test_cannot_edit_unknown_cells(self, interval_domain):
        cfg, engine = self._engine(interval_domain)
        with pytest.raises(InvalidEditError):
            write_cell(engine.daig, engine.builder, N.stmt_name(77, 88),
                       A.SkipStmt())

    def test_write_statement_in_place(self, interval_domain):
        cfg, engine = self._engine(interval_domain)
        before = engine.query_location(cfg.exit)
        edge = cfg.out_edges(cfg.entry)[0]
        # Starting the counter past the loop bound changes the exit invariant.
        engine.write_statement(edge, A.AssignStmt("i", A.IntLit(20)))
        after = engine.query_location(engine.cfg.exit)
        fresh = analyze_cfg(engine.cfg, interval_domain)[engine.cfg.exit]
        assert interval_domain.equal(after, fresh)
        assert not interval_domain.equal(before, after)


class TestStructuralEdits:
    def test_insert_statement_matches_from_scratch(self, interval_domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, interval_domain)
        engine.query_location(cfg.exit)
        engine.insert_statement_after(cfg.entry, A.AssignStmt("k", A.IntLit(7)))
        result = engine.query_location(engine.cfg.exit)
        fresh = analyze_cfg(engine.cfg, interval_domain)[engine.cfg.exit]
        assert interval_domain.equal(result, fresh)
        assert interval_domain.numeric_bounds(A.Var("k"), result) == (7, 7)

    def test_insert_conditional_and_loop_match_from_scratch(self, interval_domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, interval_domain)
        engine.query_location(cfg.exit)
        engine.insert_conditional_after(
            cfg.entry, parse_expression("total > 2"),
            [A.AssignStmt("flagged", A.IntLit(1))],
            [A.AssignStmt("flagged", A.IntLit(0))])
        engine.insert_loop_after(
            cfg.entry, parse_expression("w < 3"),
            [A.AssignStmt("w", parse_expression("w + 1"))])
        fresh = analyze_cfg(engine.cfg, interval_domain)
        for loc in engine.cfg.reachable_locations():
            assert interval_domain.equal(engine.query_location(loc), fresh[loc])

    def test_replace_and_delete_match_from_scratch(self, interval_domain):
        cfg = build_program_cfgs(array_program("swap"))["main"]
        engine = DaigEngine(cfg, interval_domain)
        engine.query_location(cfg.exit)
        edge = engine.cfg.out_edges(engine.cfg.entry)[0]
        engine.replace_statement(edge, A.AssignStmt("extra", A.IntLit(2)))
        engine.delete_statement(engine.cfg.out_edges(engine.cfg.entry)[0])
        fresh = analyze_cfg(engine.cfg, interval_domain)
        for loc in engine.cfg.reachable_locations():
            assert interval_domain.equal(engine.query_location(loc), fresh[loc])

    def test_edit_inside_loop_body_dirties_fixed_point(self, interval_domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, interval_domain)
        before = engine.query_location(cfg.exit)
        head = engine.cfg.loop_heads()[0]
        body_loc = sorted(engine.cfg.natural_loop(head) - {head})[0]
        engine.insert_statement_after(
            body_loc, A.AssignStmt("total", parse_expression("total + 5")))
        after = engine.query_location(engine.cfg.exit)
        fresh = analyze_cfg(engine.cfg, interval_domain)[engine.cfg.exit]
        assert interval_domain.equal(after, fresh)

    def test_edit_after_loop_reuses_fixed_point(self, interval_domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, interval_domain)
        engine.query_location(cfg.exit)
        widens_before = engine.stats.widens
        # Insert just before the exit: the loop's fixed point stays valid.
        pre_exit = engine.cfg.in_edges(engine.cfg.exit)[0].src
        engine.insert_statement_after(pre_exit, A.AssignStmt("z", A.IntLit(1)))
        engine.query_location(engine.cfg.exit)
        assert engine.stats.widens == widens_before

    def test_unreachable_location_queries_bottom(self, interval_domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, interval_domain)
        assert interval_domain.is_bottom(engine.query_location(987654))

    @pytest.mark.parametrize("queried", [True, False],
                             ids=["queried", "never-queried"])
    def test_rejected_edit_recovers_after_repair(self, interval_domain,
                                                 queried):
        """An edge leaving a loop body from a non-head location is rejected
        when the engine resyncs, whether or not its DAIG was ever built
        (building on first demand never delays validation); removing the
        edge and resyncing restores every answer."""
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, interval_domain)
        if queried:
            engine.query_all()
        head = cfg.loop_heads()[0]
        body_loc = sorted(cfg.natural_loop(head) - {head})[0]
        escape = cfg.add_edge(body_loc, A.SkipStmt(), cfg.exit)
        with pytest.raises(ValueError):
            engine.resync()
        cfg.remove_edge(escape)
        engine.resync()
        batch = analyze_cfg(cfg.copy(), interval_domain)
        for loc in cfg.reachable_locations():
            assert interval_domain.equal(engine.query_location(loc), batch[loc])

    def test_entry_state_override_and_update(self, interval_domain):
        cfg = build_cfg(parse_program(
            "function main(n) { var x = n + 1; return x; }").procedure("main"))
        seeded = interval_domain.transfer(
            A.AssignStmt("n", A.IntLit(5)), interval_domain.initial())
        engine = DaigEngine(cfg, interval_domain, entry_state=seeded)
        result = engine.query_location(cfg.exit)
        assert interval_domain.numeric_bounds(A.Var("x"), result) == (6, 6)
        engine.set_entry_state(interval_domain.transfer(
            A.AssignStmt("n", A.IntLit(10)), interval_domain.initial()))
        result = engine.query_location(cfg.exit)
        assert interval_domain.numeric_bounds(A.Var("x"), result) == (11, 11)


@pytest.mark.parametrize("domain_cls", [SignDomain, IntervalDomain, OctagonDomain])
@pytest.mark.parametrize("seed", [0, 1])
class TestIncrementalConsistencyOverRandomEditSequences:
    """Differential test: incremental results always equal from-scratch results."""

    def test_random_edit_stream(self, domain_cls, seed):
        domain = domain_cls()
        generator, steps = random_workload(seed, edits=18)
        engine = DaigEngine(_empty_cfg(), domain)
        for step in steps:
            step.edit.apply_to_engine(engine)
            engine.check_consistency()
            fresh = analyze_cfg(engine.cfg.copy(), domain)
            for loc in step.query_locations:
                assert domain.equal(engine.query_location(loc), fresh[loc]), (
                    "divergence at %d after %s" % (loc, step.edit.describe()))

    def test_spliced_query_all_equals_fresh_engine_after_every_edit(
            self, domain_cls, seed):
        """After each splice, exhaustive results match a from-scratch engine
        at every location, and the DAIG stays well-formed."""
        domain = domain_cls()
        generator, steps = random_workload(seed + 50, edits=12)
        engine = DaigEngine(_empty_cfg(), domain)
        for step in steps:
            step.edit.apply_to_engine(engine)
            engine.check_consistency()
            spliced = engine.query_all()
            fresh_engine = DaigEngine(engine.cfg.copy(), domain_cls())
            fresh = fresh_engine.query_all()
            assert set(spliced) == set(fresh)
            for loc in spliced:
                assert domain.equal(spliced[loc], fresh[loc]), (
                    "divergence at %d after %s" % (loc, step.edit.describe()))
            engine.check_consistency()

    def test_edits_before_the_first_query_splice_nothing(self, domain_cls,
                                                         seed):
        """An engine that was never queried has no DAIG to splice: an edit
        stream only changes the CFG, and the first query builds the DAIG
        of the edited program."""
        domain = domain_cls()
        generator, steps = random_workload(seed + 150, edits=15)
        engine = DaigEngine(_empty_cfg(), domain)
        for step in steps:
            step.edit.apply_to_engine(engine)
        assert engine.edit_stats.splices == 0
        fresh = analyze_cfg(engine.cfg.copy(), domain)
        answers = engine.query_all()
        assert set(answers) == set(engine.cfg.reachable_locations())
        for loc, value in answers.items():
            assert domain.equal(value, fresh[loc])
        assert engine.edit_stats.splices == 0

    def test_batched_edit_stream_matches_from_scratch(self, domain_cls, seed):
        """Coalescing a whole stream into one splice is equivalent too."""
        domain = domain_cls()
        generator, steps = random_workload(seed + 100, edits=15)
        engine = DaigEngine(_empty_cfg(), domain)
        engine.materialize()
        with engine.batch_edits():
            for step in steps:
                step.edit.apply_to_engine(engine)
        assert engine.edit_stats.splices == 1
        engine.check_consistency()
        fresh = analyze_cfg(engine.cfg.copy(), domain)
        for loc in engine.cfg.reachable_locations():
            assert domain.equal(engine.query_location(loc), fresh[loc])


def _empty_cfg():
    from repro.lang.cfg import Cfg
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    return cfg
