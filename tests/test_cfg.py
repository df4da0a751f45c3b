"""Unit tests for CFG construction, structural analyses, and edits."""

import gc
import pickle
import weakref

import pytest

from repro.lang import ast as A
from repro.lang import build_cfg, parse_program
from repro.lang.cfg import Cfg, IrreducibleCfgError

from helpers import LOOP_SOURCE, random_cfg
from test_structure_incremental import assert_analysis_matches_scratch


class TestLowering:
    def test_straightline_program(self):
        cfg = build_cfg(parse_program(
            "function main() { var x = 1; var y = x + 1; return y; }").procedure("main"))
        assert cfg.size() == 3
        assert cfg.loop_heads() == []
        assert cfg.is_reducible()

    def test_branches_create_assume_edges(self, branch_cfg):
        assumes = [e for e in branch_cfg.edges if isinstance(e.stmt, A.AssumeStmt)]
        assert len(assumes) == 2
        conditions = {str(e.stmt) for e in assumes}
        assert any("flag > 0" in c for c in conditions)
        assert any("flag <= 0" in c for c in conditions)

    def test_branch_join_point(self, branch_cfg):
        joins = branch_cfg.join_points()
        assert len(joins) == 1
        join = next(iter(joins))
        assert len(branch_cfg.fwd_edges_to(join)) == 2

    def test_loop_has_single_back_edge(self, loop_cfg):
        assert len(loop_cfg.loop_heads()) == 1
        head = loop_cfg.loop_heads()[0]
        assert len(loop_cfg.back_edges_to(head)) == 1

    def test_loop_head_dominates_body(self, loop_cfg):
        head = loop_cfg.loop_heads()[0]
        for loc in loop_cfg.natural_loop(head):
            assert loop_cfg.dominates(head, loc)

    def test_nested_loops(self, nested_cfg):
        heads = nested_cfg.loop_heads()
        assert len(heads) == 2
        outer = max(heads, key=lambda h: len(nested_cfg.natural_loop(h)))
        inner = min(heads, key=lambda h: len(nested_cfg.natural_loop(h)))
        assert nested_cfg.natural_loop(inner) < nested_cfg.natural_loop(outer)
        # Containing loop heads are reported outermost first.
        body_loc = next(iter(nested_cfg.natural_loop(inner) - {inner, outer}))
        assert nested_cfg.containing_loop_heads(body_loc)[0] == outer

    def test_return_short_circuits_lowering(self):
        cfg = build_cfg(parse_program(
            "function main() { return 1; var x = 2; return x; }").procedure("main"))
        # The dead tail is pruned.
        statements = [str(e.stmt) for e in cfg.edges]
        assert statements == ["ret = 1"]

    def test_implicit_return_null(self):
        cfg = build_cfg(parse_program(
            "function main() { var x = 1; }").procedure("main"))
        last = [e for e in cfg.edges if e.dst == cfg.exit]
        assert len(last) == 1
        assert str(last[0].stmt) == "ret = null"

    def test_both_branches_return(self):
        cfg = build_cfg(parse_program("""
            function main(x) {
              if (x > 0) { return 1; } else { return 2; }
            }""").procedure("main"))
        assert all(loc in cfg.reachable_locations() or loc == cfg.exit
                   for loc in cfg.locations)
        assert len(cfg.in_edges(cfg.exit)) == 2

    def test_append_structure_matches_paper(self, append_cfg):
        # Fig. 2: one loop, reducible, exit reachable from both branches.
        assert len(append_cfg.loop_heads()) == 1
        assert append_cfg.is_reducible()
        assert len(append_cfg.in_edges(append_cfg.exit)) == 2


class TestStructuralAnalyses:
    def test_reverse_postorder_is_topological_over_forward_edges(self, loop_cfg):
        order = loop_cfg.reverse_postorder()
        position = {loc: i for i, loc in enumerate(order)}
        for edge in loop_cfg.forward_edges():
            assert position[edge.src] < position[edge.dst]

    def test_entry_dominates_everything(self, nested_cfg):
        for loc in nested_cfg.reachable_locations():
            assert nested_cfg.dominates(nested_cfg.entry, loc)

    def test_fwd_edge_indices_are_one_based_and_unique(self, branch_cfg):
        join = next(iter(branch_cfg.join_points()))
        indices = [i for i, _ in branch_cfg.fwd_edges_to(join)]
        assert indices == [1, 2]

    def test_irreducible_graph_detected(self):
        cfg = Cfg("irreducible")
        a, b = cfg.fresh_loc(), cfg.fresh_loc()
        cfg.add_edge(cfg.entry, A.AssumeStmt(A.Var("x")), a)
        cfg.add_edge(cfg.entry, A.AssumeStmt(A.Var("y")), b)
        cfg.add_edge(a, A.SkipStmt(), b)
        cfg.add_edge(b, A.SkipStmt(), a)
        cfg.add_edge(a, A.SkipStmt(), cfg.exit)
        with pytest.raises(IrreducibleCfgError):
            cfg.check_reducible()

    def test_variables_include_params_and_ret(self, append_cfg):
        names = append_cfg.variables()
        assert {"p", "q", "r", "ret"} <= names

    def test_structure_does_not_keep_its_graph_alive(self):
        # The graph owns its structure and the structure refers back
        # weakly, so reference counting alone frees a dropped graph.
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        cfg.back_edges()
        graph = weakref.ref(cfg)
        gc.disable()
        try:
            del cfg
            assert graph() is None
        finally:
            gc.enable()

    def test_a_graph_pickles_after_a_structural_query(self, loop_cfg):
        dominators = loop_cfg.dominators()
        clone = pickle.loads(pickle.dumps(loop_cfg))
        assert clone.edges == loop_cfg.edges
        assert clone.dominators() == dominators
        clone.insert_statement_after(clone.entry, A.SkipStmt())
        assert_analysis_matches_scratch(clone)

    def test_copy_is_independent(self, loop_cfg):
        clone = loop_cfg.copy()
        clone.insert_statement_after(loop_cfg.entry, A.SkipStmt())
        assert clone.size() == loop_cfg.size() + 1


class TestEdits:
    def test_insert_statement_preserves_successors(self, branch_cfg):
        before = branch_cfg.size()
        old_succs = set(branch_cfg.successors(branch_cfg.entry))
        cont = branch_cfg.insert_statement_after(
            branch_cfg.entry, A.AssignStmt("z", A.IntLit(1)))
        assert branch_cfg.size() == before + 1
        assert branch_cfg.successors(branch_cfg.entry) == [cont]
        assert set(branch_cfg.successors(cont)) == old_succs
        assert branch_cfg.is_reducible()

    def test_insert_conditional_creates_join(self, loop_cfg):
        cond = A.BinOp(">", A.Var("total"), A.IntLit(5))
        cont = loop_cfg.insert_conditional_after(
            loop_cfg.entry, cond, [A.AssignStmt("x", A.IntLit(1))], [])
        assert cont in loop_cfg.join_points()
        assert loop_cfg.is_reducible()

    def test_insert_loop_creates_back_edge(self, branch_cfg):
        heads_before = len(branch_cfg.loop_heads())
        branch_cfg.insert_loop_after(
            branch_cfg.entry,
            A.BinOp("<", A.Var("k"), A.IntLit(3)),
            [A.AssignStmt("k", A.BinOp("+", A.Var("k"), A.IntLit(1)))])
        assert len(branch_cfg.loop_heads()) == heads_before + 1
        assert branch_cfg.is_reducible()

    def test_replace_and_delete_statement(self, loop_cfg):
        edge = loop_cfg.out_edges(loop_cfg.entry)[0]
        replaced = loop_cfg.replace_edge_statement(
            edge, A.AssignStmt("i", A.IntLit(5)))
        assert replaced in loop_cfg.edges
        deleted = loop_cfg.delete_edge_statement(replaced)
        assert isinstance(deleted.stmt, A.SkipStmt)

    def test_cannot_insert_after_exit(self, loop_cfg):
        with pytest.raises(ValueError):
            loop_cfg.insert_statement_after(loop_cfg.exit, A.SkipStmt())

    def test_cannot_insert_at_unknown_location(self, loop_cfg):
        with pytest.raises(ValueError):
            loop_cfg.insert_statement_after(99_999, A.SkipStmt())

    def test_fresh_locations_never_recycled(self, loop_cfg):
        seen = set(loop_cfg.locations)
        for _ in range(5):
            loc = loop_cfg.fresh_loc()
            assert loc not in seen
            seen.add(loc)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_edit_sequences_stay_reducible(self, seed):
        cfg = random_cfg(seed, edits=40)
        assert cfg.is_reducible()
        assert cfg.exit in cfg.reachable_locations()
        # Every loop head has exactly one back edge (paper assumption).
        for head in cfg.loop_heads():
            assert len(cfg.back_edges_to(head)) == 1
