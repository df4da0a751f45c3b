"""Tests for the non-relational environment domains (sign/constant/interval).

Covers the abstract environment's lattice operations, transfer functions
(including ``assume`` refinement and arrays), the concretization relation
used by the soundness tests, and end-to-end soundness of the batch analysis
against the concrete collecting semantics on the subject programs.
"""

import pytest

from repro.ai import analyze_cfg
from repro.concrete import ConcreteState, collecting_semantics, initial_state
from repro.domains import ConstantDomain, IntervalDomain, SignDomain
from repro.domains.nonrel import ArraySummary, ScalarValue
from repro.lang import ast as A
from repro.lang import build_cfg, parse_expression, parse_program
from repro.lang.programs import array_program

from helpers import BRANCH_SOURCE, LOOP_SOURCE


def transfer_sequence(domain, statements, state=None):
    current = state if state is not None else domain.initial()
    for stmt in statements:
        current = domain.transfer(stmt, current)
    return current


class TestLatticeStructure:
    @pytest.mark.parametrize("domain_cls", [SignDomain, ConstantDomain, IntervalDomain])
    def test_bottom_below_everything(self, domain_cls):
        domain = domain_cls()
        state = domain.transfer(A.AssignStmt("x", A.IntLit(1)), domain.initial())
        assert domain.leq(domain.bottom(), state)
        assert not domain.leq(state, domain.bottom())
        assert domain.is_bottom(domain.bottom())

    def test_join_drops_disagreeing_bindings(self, interval_domain):
        left = interval_domain.transfer(A.AssignStmt("x", A.IntLit(1)),
                                        interval_domain.initial())
        right = interval_domain.transfer(A.AssignStmt("y", A.IntLit(2)),
                                         interval_domain.initial())
        joined = interval_domain.join(left, right)
        # x is only known on one side, so the join knows nothing about it.
        assert joined.get("x") is None and joined.get("y") is None

    def test_join_merges_common_bindings(self, interval_domain):
        base = interval_domain.initial()
        left = interval_domain.transfer(A.AssignStmt("x", A.IntLit(1)), base)
        right = interval_domain.transfer(A.AssignStmt("x", A.IntLit(5)), base)
        joined = interval_domain.join(left, right)
        assert interval_domain.numeric_bounds(A.Var("x"), joined) == (1, 5)

    def test_widen_environment(self, interval_domain):
        base = interval_domain.initial()
        older = interval_domain.transfer(A.AssignStmt("i", A.IntLit(0)), base)
        newer = interval_domain.transfer(A.AssignStmt("i", A.IntLit(1)), base)
        widened = interval_domain.widen(older, newer)
        assert interval_domain.numeric_bounds(A.Var("i"), widened) == (0, None)

    def test_equal_is_structural(self, interval_domain):
        a = interval_domain.transfer(A.AssignStmt("x", A.IntLit(1)),
                                     interval_domain.initial())
        b = interval_domain.transfer(A.AssignStmt("x", A.IntLit(1)),
                                     interval_domain.initial())
        assert interval_domain.equal(a, b)
        assert hash(a) == hash(b)


class TestTransfers:
    def test_assignment_and_expression_evaluation(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("x", A.IntLit(4)),
            A.AssignStmt("y", parse_expression("x * 2 + 1")),
        ])
        assert interval_domain.numeric_bounds(A.Var("y"), state) == (9, 9)

    def test_assume_refines_both_variables(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("i", A.IntLit(3)),
            A.AssumeStmt(parse_expression("i < n")),
        ])
        assert interval_domain.numeric_bounds(A.Var("n"), state)[0] == 4

    def test_assume_infeasible_comparison_gives_bottom(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("x", A.IntLit(1)),
            A.AssumeStmt(parse_expression("x > 5")),
        ])
        assert interval_domain.is_bottom(state)

    def test_assume_equality_meets(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssumeStmt(parse_expression("x == 7")),
        ])
        assert interval_domain.numeric_bounds(A.Var("x"), state) == (7, 7)

    @pytest.mark.parametrize("op, keeps_flags", [
        ("<", False), ("<=", False), (">", False), (">=", False),
        ("==", True), ("!=", True)])
    def test_assume_ordering_clears_null_and_reference_flags(
            self, interval_domain, op, keeps_flags):
        # Unbound variables are top: maybe null and maybe a reference.  Only
        # numbers are ordered, so an ordering assume clears both flags on
        # both operands; == and != keep them.
        state = transfer_sequence(interval_domain, [
            A.AssumeStmt(parse_expression("x %s y" % op)),
        ])
        for name in ("x", "y"):
            value = state.get(name)
            assert isinstance(value, ScalarValue)
            assert value.maybe_null == keeps_flags
            assert value.maybe_other == keeps_flags

    def test_assume_null_tests(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("p", A.NullLit()),
            A.AssumeStmt(parse_expression("p != null")),
        ])
        assert interval_domain.is_bottom(state)
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("p", A.IntLit(3)),
            A.AssumeStmt(parse_expression("p == null")),
        ])
        assert interval_domain.is_bottom(state)

    def test_conjunction_and_disjunction(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssumeStmt(parse_expression("x >= 0 && x <= 10")),
        ])
        assert interval_domain.numeric_bounds(A.Var("x"), state) == (0, 10)
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("x", A.IntLit(20)),
            A.AssumeStmt(parse_expression("x < 5 || x > 15")),
        ])
        assert not interval_domain.is_bottom(state)

    def test_array_literal_summary(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("a", parse_expression("[1, 2, 3]")),
        ])
        binding = state.get("a")
        assert isinstance(binding, ArraySummary)
        assert interval_domain.array_length_bounds(A.Var("a"), state) == (3, 3)
        assert interval_domain.numeric_bounds(
            parse_expression("a[0]"), state) == (1, 3)
        assert interval_domain.numeric_bounds(
            parse_expression("a.length"), state) == (3, 3)

    def test_array_write_is_weak_update(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("a", parse_expression("[1, 1]")),
            A.ArrayWriteStmt("a", A.IntLit(0), A.IntLit(9)),
        ])
        assert interval_domain.numeric_bounds(parse_expression("a[1]"), state) == (1, 9)
        assert interval_domain.array_length_bounds(A.Var("a"), state) == (2, 2)

    def test_call_havocs_target_and_array_arguments(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("a", parse_expression("[1, 2]")),
            A.AssignStmt("x", A.IntLit(5)),
            A.CallStmt("x", "mystery", (A.Var("a"),)),
        ])
        assert state.get("x") is None
        assert interval_domain.array_length_bounds(A.Var("a"), state) == (2, 2)
        assert interval_domain.numeric_bounds(
            parse_expression("a[0]"), state) == (None, None)

    def test_field_operations_are_sound_no_ops(self, interval_domain):
        state = transfer_sequence(interval_domain, [
            A.AssignStmt("x", parse_expression("r.next")),
            A.FieldWriteStmt("r", "next", A.IntLit(1)),
        ])
        assert interval_domain.numeric_bounds(A.Var("x"), state) == (None, None)

    def test_unknown_variables_are_top(self, interval_domain):
        state = interval_domain.initial()
        assert interval_domain.numeric_bounds(A.Var("ghost"), state) == (None, None)


class TestConcretization:
    def test_models_accepts_consistent_states(self, interval_domain):
        abstract = transfer_sequence(interval_domain, [
            A.AssignStmt("x", A.IntLit(3)),
            A.AssignStmt("a", parse_expression("[1, 2]")),
        ])
        from repro.concrete import ArrayValue
        concrete = initial_state(x=3, a=ArrayValue([1, 2]))
        assert interval_domain.models(concrete, abstract)

    def test_models_rejects_out_of_range(self, interval_domain):
        abstract = transfer_sequence(interval_domain, [A.AssignStmt("x", A.IntLit(3))])
        assert not interval_domain.models(initial_state(x=99), abstract)

    def test_nothing_models_bottom(self, interval_domain):
        assert not interval_domain.models(initial_state(), interval_domain.bottom())

    def test_null_flag(self, interval_domain):
        abstract = transfer_sequence(interval_domain, [A.AssignStmt("p", A.NullLit())])
        assert interval_domain.models(initial_state(p=None), abstract)
        assert not interval_domain.models(initial_state(p=7), abstract)


class TestInterproceduralHooks:
    def test_call_entry_binds_parameters(self, interval_domain):
        caller = transfer_sequence(interval_domain, [A.AssignStmt("x", A.IntLit(5))])
        entry = interval_domain.call_entry(caller, ("a",), (parse_expression("x + 1"),))
        assert interval_domain.numeric_bounds(A.Var("a"), entry) == (6, 6)

    def test_call_return_binds_result(self, interval_domain):
        caller = transfer_sequence(interval_domain, [A.AssignStmt("x", A.IntLit(5))])
        callee_exit = transfer_sequence(interval_domain, [
            A.AssignStmt(A.RETURN_VARIABLE, A.IntLit(42))])
        after = interval_domain.call_return(caller, callee_exit, "y", ())
        assert interval_domain.numeric_bounds(A.Var("y"), after) == (42, 42)
        assert interval_domain.numeric_bounds(A.Var("x"), after) == (5, 5)


@pytest.mark.parametrize("domain_cls", [SignDomain, ConstantDomain, IntervalDomain])
class TestSoundnessAgainstConcreteSemantics:
    """Proposition 3.2: every collected concrete state models the invariant."""

    @pytest.mark.parametrize("source", [LOOP_SOURCE, BRANCH_SOURCE])
    def test_small_programs(self, domain_cls, source):
        domain = domain_cls()
        cfg = build_cfg(parse_program(source).procedure("main"))
        invariants = analyze_cfg(cfg, domain)
        initial_states = [ConcreteState(env={name: value})
                          for name in cfg.params for value in (-2, 0, 3)]
        initial_states = initial_states or [ConcreteState()]
        collected = collecting_semantics(cfg, initial_states)
        for loc, states in collected.items():
            for concrete in states:
                assert domain.models(concrete, invariants[loc]), (
                    "unsound at %d with %s" % (loc, domain.name))

    @pytest.mark.parametrize("program_name", ["sum", "reverse", "count"])
    def test_array_subjects(self, domain_cls, program_name):
        domain = domain_cls()
        from repro.lang import build_program_cfgs
        cfg = build_program_cfgs(array_program(program_name))["main"]
        invariants = analyze_cfg(cfg, domain)
        collected = collecting_semantics(cfg, [ConcreteState()])
        for loc, states in collected.items():
            for concrete in states:
                assert domain.models(concrete, invariants[loc])
