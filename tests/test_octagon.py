"""Tests for the DBM-based octagon domain."""

import numpy as np
import pytest

from repro.ai import analyze_cfg
from repro.concrete import ConcreteState, collecting_semantics, initial_state
from repro.daig import DaigEngine
from repro.domains import OctagonDomain
from repro.domains.octagon import OctagonState, _close
from repro.lang import ast as A
from repro.lang import build_cfg, build_program_cfgs, parse_expression, parse_program
from repro.lang.cfg import Cfg
from repro.lang.programs import array_program
from repro.workload.generator import WorkloadGenerator

from helpers import BRANCH_SOURCE, LOOP_SOURCE, NESTED_SOURCE


@pytest.fixture
def domain():
    return OctagonDomain()


def run(domain, statements, state=None):
    current = state if state is not None else domain.initial()
    for stmt in statements:
        current = domain.transfer(stmt, current)
    return current


class TestTransferPrecision:
    def test_constant_assignment(self, domain):
        state = run(domain, [A.AssignStmt("x", A.IntLit(5))])
        assert state.variable_bounds("x") == (5, 5)

    def test_relational_assignment(self, domain):
        state = run(domain, [
            A.AssignStmt("x", A.IntLit(3)),
            A.AssignStmt("y", parse_expression("x + 2")),
        ])
        assert state.variable_bounds("y") == (5, 5)
        # The relation persists after x is forgotten only through its bounds,
        # but while both are live the difference constraint is exact:
        refined = domain.transfer(A.AssumeStmt(parse_expression("x == 10")), state)
        assert domain.is_bottom(refined)

    def test_invertible_self_increment(self, domain):
        state = run(domain, [
            A.AssignStmt("i", A.IntLit(0)),
            A.AssignStmt("i", parse_expression("i + 1")),
            A.AssignStmt("i", parse_expression("i + 1")),
        ])
        assert state.variable_bounds("i") == (2, 2)

    def test_relation_between_variables_survives_increment(self, domain):
        state = run(domain, [
            A.AssignStmt("x", A.IntLit(0)),
            A.AssignStmt("y", parse_expression("x + 1")),
            A.AssignStmt("x", parse_expression("x + 5")),
            A.AssumeStmt(parse_expression("y == x - 4")),
        ])
        # y = x - 4 is consistent with the tracked relation, not bottom.
        assert not domain.is_bottom(state)

    def test_negated_assignment(self, domain):
        state = run(domain, [
            A.AssignStmt("x", A.IntLit(4)),
            A.AssignStmt("y", parse_expression("-x")),
        ])
        assert state.variable_bounds("y") == (-4, -4)

    def test_assume_upper_and_lower_bounds(self, domain):
        state = run(domain, [
            A.AssumeStmt(parse_expression("x >= 0")),
            A.AssumeStmt(parse_expression("x < 10")),
        ])
        assert state.variable_bounds("x") == (0, 9)

    def test_assume_relational(self, domain):
        state = run(domain, [
            A.AssignStmt("n", A.IntLit(8)),
            A.AssumeStmt(parse_expression("i < n")),
            A.AssumeStmt(parse_expression("i >= 0")),
        ])
        assert state.variable_bounds("i") == (0, 7)

    def test_assume_sum_constraint(self, domain):
        state = run(domain, [
            A.AssumeStmt(parse_expression("x + y <= 4")),
            A.AssumeStmt(parse_expression("x >= 1")),
            A.AssumeStmt(parse_expression("y >= 1")),
        ])
        assert state.variable_bounds("x") == (1, 3)
        assert state.variable_bounds("y") == (1, 3)

    def test_contradiction_is_bottom(self, domain):
        state = run(domain, [
            A.AssumeStmt(parse_expression("x > 5")),
            A.AssumeStmt(parse_expression("x < 3")),
        ])
        assert domain.is_bottom(state)

    def test_equality_assume(self, domain):
        state = run(domain, [A.AssumeStmt(parse_expression("x == y + 2")),
                             A.AssumeStmt(parse_expression("y == 1"))])
        assert state.variable_bounds("x") == (3, 3)

    def test_nonlinear_assignment_falls_back_to_bounds(self, domain):
        state = run(domain, [
            A.AssignStmt("x", A.IntLit(3)),
            A.AssignStmt("y", parse_expression("x * x")),
        ])
        lo, hi = state.variable_bounds("y")
        assert lo is None or lo <= 9
        assert hi is None or hi >= 9

    def test_non_numeric_assignment_forgets(self, domain):
        state = run(domain, [
            A.AssignStmt("x", A.IntLit(3)),
            A.AssignStmt("x", A.NullLit()),
        ])
        assert state.variable_bounds("x") == (None, None)

    def test_call_havocs_target(self, domain):
        state = run(domain, [
            A.AssignStmt("x", A.IntLit(3)),
            A.CallStmt("x", "mystery", ()),
        ])
        assert state.variable_bounds("x") == (None, None)


class TestLatticeOperations:
    def test_join_is_an_upper_bound(self, domain):
        left = run(domain, [A.AssignStmt("x", A.IntLit(1))])
        right = run(domain, [A.AssignStmt("x", A.IntLit(5))])
        joined = domain.join(left, right)
        assert domain.leq(left, joined) and domain.leq(right, joined)
        assert joined.variable_bounds("x") == (1, 5)

    def test_join_with_bottom(self, domain):
        state = run(domain, [A.AssignStmt("x", A.IntLit(1))])
        assert domain.equal(domain.join(state, domain.bottom()), state)
        assert domain.equal(domain.join(domain.bottom(), state), state)

    def test_widen_is_an_upper_bound_and_stabilizes(self, domain):
        older = run(domain, [A.AssignStmt("i", A.IntLit(0))])
        newer = run(domain, [A.AssignStmt("i", A.IntLit(1))])
        widened = domain.widen(older, newer)
        assert domain.leq(domain.join(older, newer), widened)
        assert widened.variable_bounds("i")[1] is None
        again = domain.widen(widened, run(domain, [A.AssignStmt("i", A.IntLit(7))]))
        assert domain.equal(again, widened)

    def test_leq_with_different_variable_sets(self, domain):
        narrow = run(domain, [A.AssignStmt("x", A.IntLit(1))])
        wide = run(domain, [A.AssignStmt("x", A.IntLit(1)),
                            A.AssignStmt("y", A.IntLit(2))])
        assert domain.leq(wide, narrow)
        assert not domain.leq(narrow, wide)

    def test_equality_is_semantic(self, domain):
        a = run(domain, [A.AssumeStmt(parse_expression("x >= 2")),
                         A.AssumeStmt(parse_expression("x <= 2"))])
        b = run(domain, [A.AssignStmt("x", A.IntLit(2))])
        assert domain.equal(a, b)

    def test_states_are_hashable(self, domain):
        a = run(domain, [A.AssignStmt("x", A.IntLit(2))])
        b = run(domain, [A.AssignStmt("x", A.IntLit(2))])
        assert hash(a) == hash(b)
        assert a == b


class TestClosure:
    def test_copy_chains_close_to_the_same_state(self, domain):
        """``v6 = v5; v9 = v6`` implies ``v9 = v5``: both orders of the
        copies reach one octagon."""
        top = domain.top(["v5"])
        chained = run(domain, [A.AssignStmt("v6", A.Var("v5")),
                               A.AssignStmt("v9", A.Var("v6"))], top)
        direct = run(domain, [A.AssignStmt("v9", A.Var("v5")),
                              A.AssignStmt("v6", A.Var("v5"))], top)
        assert domain.equal(chained, direct)

    def test_closed_flag_is_true_to_the_matrix(self, domain):
        """Every state flagged ``closed`` along a generated edit stream is a
        fixpoint of the closure (the join and ``x := x + c`` fast paths
        trust the flag)."""
        cfg = Cfg("main")
        cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
        engine = DaigEngine(cfg, domain)
        checked = 0
        stream = WorkloadGenerator(seed=185, call_probability=0.0).generate(40)
        for step in stream:
            step.edit.apply_to_engine(engine)
            engine.query_all()
            for state in engine.daig.values.values():
                if (isinstance(state, OctagonState) and state.closed
                        and not state.is_bottom):
                    assert np.array_equal(_close(state.matrix), state.matrix)
                    checked += 1
        assert checked > 0


class TestConcretization:
    def test_models_in_bounds(self, domain):
        state = run(domain, [A.AssumeStmt(parse_expression("x >= 0")),
                             A.AssumeStmt(parse_expression("x <= 5"))])
        assert domain.models(initial_state(x=3), state)
        assert not domain.models(initial_state(x=9), state)

    def test_models_relational(self, domain):
        state = run(domain, [A.AssumeStmt(parse_expression("x < y"))])
        assert domain.models(initial_state(x=1, y=5), state)
        assert not domain.models(initial_state(x=5, y=1), state)

    def test_non_numeric_values_are_unconstrained(self, domain):
        state = run(domain, [A.AssignStmt("x", A.IntLit(1))])
        assert domain.models(initial_state(x=1, p=None), state)

    def test_nothing_models_bottom(self, domain):
        assert not domain.models(initial_state(), domain.bottom())


class TestWholeProgramSoundness:
    @pytest.mark.parametrize("source", [LOOP_SOURCE, BRANCH_SOURCE, NESTED_SOURCE])
    def test_against_collecting_semantics(self, domain, source):
        cfg = build_cfg(parse_program(source).procedure("main"))
        invariants = analyze_cfg(cfg, domain)
        seeds = ([ConcreteState(env={p: v}) for p in cfg.params for v in (-1, 0, 4)]
                 or [ConcreteState()])
        collected = collecting_semantics(cfg, seeds)
        for loc, states in collected.items():
            for concrete in states:
                assert domain.models(concrete, invariants[loc])

    @pytest.mark.parametrize("name", ["sum", "fill", "lastindexof"])
    def test_array_programs(self, domain, name):
        cfg = build_program_cfgs(array_program(name))["main"]
        invariants = analyze_cfg(cfg, domain)
        collected = collecting_semantics(cfg, [ConcreteState()])
        for loc, states in collected.items():
            for concrete in states:
                assert domain.models(concrete, invariants[loc])

    def test_loop_counter_bounds(self, domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        invariants = analyze_cfg(cfg, domain)
        exit_bounds = invariants[cfg.exit].variable_bounds("i")
        assert exit_bounds[0] == 10  # i == 10 at exit (i < 10 fails, i >= 0 + widening)
