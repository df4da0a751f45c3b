"""Tests for the separation-logic shape domain (symbolic heaps + lseg)."""

import pytest

from repro.ai import analyze_cfg
from repro.concrete import ConcreteState, exec_stmt
from repro.daig import DaigEngine
from repro.domains import ShapeDomain
from repro.domains.shape import NIL, ListSeg, PointsTo, SymbolicHeap
from repro.lang import ast as A
from repro.lang import build_cfg, parse_expression
from repro.lang.programs import append_program, list_program


@pytest.fixture
def domain():
    return ShapeDomain()


def run(domain, statements, state=None, params=("p", "q")):
    current = state if state is not None else domain.initial(params)
    for stmt in statements:
        current = domain.transfer(stmt, current)
    return current


class TestSymbolicHeap:
    def test_must_differ_from_disequality(self):
        heap = SymbolicHeap(env={"x": 1}, disequalities=[(NIL, 1)])
        assert heap.must_differ(1, NIL)
        assert not heap.must_equal(1, NIL)

    def test_must_equal_through_equalities(self):
        heap = SymbolicHeap(env={"x": 1, "y": 2}, equalities=[(1, 2)])
        assert heap.must_equal(1, 2)

    def test_points_to_source_is_non_null(self):
        heap = SymbolicHeap(env={"x": 1}, points_to=[PointsTo(1, NIL)])
        assert heap.must_differ(1, NIL)

    def test_inconsistency_detection(self):
        heap = SymbolicHeap(equalities=[(1, 2)], disequalities=[(1, 2)])
        assert heap.is_inconsistent()
        null_source = SymbolicHeap(points_to=[PointsTo(1, 2)], equalities=[(1, NIL)])
        assert null_source.is_inconsistent()

    def test_normalize_removes_empty_segments(self):
        heap = SymbolicHeap(env={"x": 1}, lsegs=[ListSeg(1, 2)], equalities=[(1, 2)])
        assert not heap.normalize().lsegs

    def test_abstract_folds_anonymous_cells(self):
        heap = SymbolicHeap(env={"x": 1},
                            points_to=[PointsTo(1, 2), PointsTo(2, NIL)])
        folded = heap.abstract()
        assert folded.lsegs  # the chain through the anonymous α2 became a segment
        assert folded.entails_lseg(1, NIL)

    def test_aggressive_abstraction_folds_named_cells_too(self):
        heap = SymbolicHeap(env={"x": 1, "y": 2}, points_to=[PointsTo(1, 2)])
        assert heap.abstract().points_to  # both ends named: kept by default
        assert not heap.abstract(aggressive=True).points_to

    def test_canonical_is_alpha_invariant(self):
        first = SymbolicHeap(env={"x": 5}, lsegs=[ListSeg(5, NIL)],
                             disequalities=[(NIL, 5)])
        second = SymbolicHeap(env={"x": 9}, lsegs=[ListSeg(9, NIL)],
                              disequalities=[(NIL, 9)])
        assert first.canonical() == second.canonical()

    def test_materialize_existing_points_to(self):
        heap = SymbolicHeap(env={"x": 1}, points_to=[PointsTo(1, 2)])
        cases = heap.materialize_next(1)
        assert len(cases) == 1
        assert cases[0][1] == 2

    def test_materialize_unfolds_segment(self):
        heap = SymbolicHeap(env={"x": 1}, lsegs=[ListSeg(1, NIL)],
                            disequalities=[(NIL, 1)])
        cases = heap.materialize_next(1)
        assert len(cases) == 1
        unfolded, successor = cases[0]
        assert successor is not None
        assert unfolded.next_of(1) == successor

    def test_materialize_possibly_null_reports_fault_case(self):
        heap = SymbolicHeap(env={"x": 1}, lsegs=[ListSeg(1, NIL)])
        cases = heap.materialize_next(1)
        assert any(successor is None for _heap, successor in cases)
        assert any(successor is not None for _heap, successor in cases)

    def test_materialize_null_always_faults(self):
        heap = SymbolicHeap(env={"x": NIL})
        cases = heap.materialize_next(NIL)
        assert all(successor is None for _heap, successor in cases)

    def test_entailment_through_mixed_atoms(self):
        heap = SymbolicHeap(env={"x": 1, "y": 3},
                            points_to=[PointsTo(1, 2)],
                            lsegs=[ListSeg(2, 3), ListSeg(3, NIL)])
        assert heap.entails_lseg(1, NIL)
        assert heap.entails_lseg(2, 3)
        assert not heap.entails_lseg(3, 1)


class TestTransfers:
    def test_initial_state_assumes_wellformed_parameters(self, domain):
        state = domain.initial(("p",))
        disjunct = state.disjuncts[0]
        assert disjunct.entails_lseg(disjunct.env["p"], NIL)

    def test_null_assignment_and_null_test(self, domain):
        state = run(domain, [A.AssignStmt("x", A.NullLit()),
                             A.AssumeStmt(parse_expression("x == null"))])
        assert not state.is_bottom()
        contradictory = run(domain, [A.AssignStmt("x", A.NullLit()),
                                     A.AssumeStmt(parse_expression("x != null"))])
        assert contradictory.is_bottom()

    def test_allocation_is_non_null(self, domain):
        state = run(domain, [A.AssignStmt("n", A.AllocRecord()),
                             A.AssumeStmt(parse_expression("n == null"))])
        assert state.is_bottom()

    def test_copy_assignment_aliases(self, domain):
        state = run(domain, [A.AssignStmt("r", A.Var("p")),
                             A.AssumeStmt(parse_expression("r != p"))])
        assert state.is_bottom()

    def test_field_read_materializes(self, domain):
        state = run(domain, [A.AssumeStmt(parse_expression("p != null")),
                             A.AssignStmt("x", parse_expression("p.next"))])
        assert not state.faults()
        assert not state.is_bottom()

    def test_field_read_on_possibly_null_reports_fault(self, domain):
        state = run(domain, [A.AssignStmt("x", parse_expression("p.next"))])
        assert state.faults()

    def test_field_write_updates_cell(self, domain):
        state = run(domain, [
            A.AssignStmt("n", A.AllocRecord()),
            A.FieldWriteStmt("n", "next", A.Var("q")),
        ])
        disjunct = state.disjuncts[0]
        assert disjunct.next_of(disjunct.env["n"]) == disjunct.env["q"]
        assert not state.faults()

    def test_field_write_through_null_faults(self, domain):
        state = run(domain, [A.AssignStmt("n", A.NullLit()),
                             A.FieldWriteStmt("n", "next", A.NullLit())])
        assert state.faults()

    def test_data_fields_only_checked_for_null(self, domain):
        state = run(domain, [A.AssignStmt("n", A.AllocRecord()),
                             A.FieldWriteStmt("n", "data", A.IntLit(3)),
                             A.AssignStmt("v", parse_expression("n.data"))])
        assert not state.faults()

    def test_scalar_assignments_do_not_touch_heap(self, domain):
        state = run(domain, [A.AssignStmt("i", A.IntLit(0)),
                             A.AssignStmt("i", parse_expression("i + 1"))])
        assert not state.is_bottom()

    def test_join_deduplicates_alpha_equivalent_disjuncts(self, domain):
        left = run(domain, [A.AssignStmt("x", A.Var("p"))])
        right = run(domain, [A.AssignStmt("x", A.Var("p"))])
        assert len(domain.join(left, right).disjuncts) == len(left.disjuncts)

    def test_disjunct_cap_collapses(self):
        domain = ShapeDomain(max_disjuncts=2)
        state = domain.initial(("p",))
        for index in range(4):
            branch = domain.transfer(
                A.AssignStmt("x%d" % index, A.AllocRecord()), state)
            state = domain.join(state, branch)
        assert len(state.disjuncts) <= 2

    def test_widen_converges_on_list_traversal(self, domain):
        state = run(domain, [A.AssumeStmt(parse_expression("p != null")),
                             A.AssignStmt("r", A.Var("p"))], params=("p",))
        def body(s):
            s = domain.transfer(A.AssumeStmt(parse_expression("r.next != null")), s)
            s = domain.transfer(A.AssignStmt("r", parse_expression("r.next")), s)
            return s
        iterate = state
        for _ in range(5):
            nxt = domain.widen(iterate, body(iterate))
            if domain.equal(nxt, iterate):
                break
            iterate = nxt
        else:
            pytest.fail("shape widening did not converge")


class TestConcretization:
    def test_concrete_list_models_lseg(self, domain):
        state = ConcreteState()
        state = exec_stmt(A.AssignStmt("a", A.AllocRecord()), state)
        state = exec_stmt(A.FieldWriteStmt("a", "next", A.NullLit()), state)
        state = state.write("p", state.env["a"]).write("q", None)
        abstract = domain.initial(("p", "q"))
        assert domain.models(state, abstract)

    def test_cyclic_list_does_not_model_lseg_to_null(self, domain):
        state = ConcreteState()
        state = exec_stmt(A.AssignStmt("a", A.AllocRecord()), state)
        state = exec_stmt(A.FieldWriteStmt("a", "next", A.Var("a")), state)
        state = state.write("p", state.env["a"])
        abstract = domain.initial(("p",))
        assert not domain.models(state, abstract)

    def test_nothing_models_bottom(self, domain):
        assert not domain.models(ConcreteState(), domain.bottom())


class TestEndToEndVerification:
    def test_append_is_verified_with_one_unrolling(self, domain):
        cfg = build_cfg(append_program().procedure("append"))
        engine = DaigEngine(cfg, domain)
        exit_state = engine.query_location(cfg.exit)
        assert not exit_state.faults()
        assert domain.verifies_wellformed(exit_state, A.RETURN_VARIABLE)
        assert engine.stats.unrollings == 1

    @pytest.mark.parametrize("name,wellformed", [
        ("foreach", True), ("last", True), ("build", True), ("prepend", True),
        ("indexof", None), ("length", None),
    ])
    def test_list_utilities_are_memory_safe(self, domain, name, wellformed):
        cfg = build_cfg(list_program(name).procedure(name))
        invariants = analyze_cfg(cfg, domain)
        exit_state = invariants[cfg.exit]
        assert not exit_state.faults()
        if wellformed:
            assert domain.verifies_wellformed(exit_state, A.RETURN_VARIABLE)

    def test_broken_append_reports_fault(self, domain):
        cfg = build_cfg(append_program().procedure("append"))
        target = next(edge for edge in cfg.edges
                      if isinstance(edge.stmt, A.AssumeStmt)
                      and "p != null" in str(edge.stmt))
        cfg.replace_edge_statement(target, A.AssumeStmt(A.BoolLit(True)))
        invariants = analyze_cfg(cfg, domain)
        assert invariants[cfg.exit].faults()

    def test_daig_matches_batch(self, domain):
        cfg = build_cfg(list_program("last").procedure("last"))
        invariants = analyze_cfg(cfg, domain)
        engine = DaigEngine(cfg.copy(), domain)
        assert domain.equal(engine.query_location(cfg.exit), invariants[cfg.exit])
