"""The concrete denotational semantics ``⟦·⟧ : Stmt → Σ → Σ⊥``.

This module interprets atomic statements over :class:`ConcreteState`, and
lifts the statement semantics to whole CFGs and programs.  It serves two
purposes in the reproduction:

* it is the *soundness oracle*: property-based tests execute programs
  concretely and check that every reachable concrete state is abstracted by
  the analysis results (Definition 3.1 / Proposition 3.2), and
* it is the reference implementation for the collecting semantics
  ``⟦ℓ⟧*`` of Section 3 (bounded, since the true collecting semantics is
  uncomputable).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Tuple

from ..lang import ast as A
from ..lang.cfg import Cfg, Loc
from .state import (
    ArrayValue,
    ConcreteError,
    ConcreteState,
    OutOfBoundsError,
)


class InfeasibleError(Exception):
    """Raised when an ``assume`` statement's condition evaluates to false.

    This is not a runtime error: it simply means the execution cannot take
    the corresponding control-flow edge.
    """


def _to_int(value: Any) -> int:
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, int):
        return value
    raise ConcreteError("expected an integer, found %r" % (value,))


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    if value is None:
        return False
    return True


def eval_expr(expr: A.Expr, state: ConcreteState) -> Any:
    """Evaluate a side-effect-free expression in a concrete state."""
    if isinstance(expr, A.Var):
        return state.read(expr.name)
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.BoolLit):
        return expr.value
    if isinstance(expr, A.NullLit):
        return None
    if isinstance(expr, A.StrLit):
        return expr.value
    if isinstance(expr, A.UnaryOp):
        value = eval_expr(expr.operand, state)
        if expr.op == "-":
            return -_to_int(value)
        return not _truthy(value)
    if isinstance(expr, A.BinOp):
        return _eval_binop(expr, state)
    if isinstance(expr, A.ArrayLit):
        return ArrayValue([eval_expr(e, state) for e in expr.elements])
    if isinstance(expr, A.ArrayRead):
        array = eval_expr(expr.array, state)
        index = _to_int(eval_expr(expr.index, state))
        if not isinstance(array, ArrayValue):
            raise ConcreteError("indexing a non-array value %r" % (array,))
        if index < 0 or index >= len(array):
            raise OutOfBoundsError("index %d out of bounds for length %d"
                                   % (index, len(array)))
        return array.elements[index]
    if isinstance(expr, A.ArrayLen):
        array = eval_expr(expr.array, state)
        if not isinstance(array, ArrayValue):
            raise ConcreteError("length of a non-array value %r" % (array,))
        return len(array)
    if isinstance(expr, A.FieldRead):
        base = eval_expr(expr.base, state)
        return state.read_field(base, expr.fieldname)
    if isinstance(expr, A.AllocRecord):
        raise ConcreteError("new() may only appear as the right-hand side of "
                            "an assignment")
    raise ConcreteError("cannot evaluate expression %r" % (expr,))


def _eval_binop(expr: A.BinOp, state: ConcreteState) -> Any:
    if expr.op == "&&":
        return _truthy(eval_expr(expr.left, state)) and _truthy(
            eval_expr(expr.right, state))
    if expr.op == "||":
        return _truthy(eval_expr(expr.left, state)) or _truthy(
            eval_expr(expr.right, state))
    left = eval_expr(expr.left, state)
    right = eval_expr(expr.right, state)
    if expr.op == "==":
        return left == right
    if expr.op == "!=":
        return left != right
    lhs, rhs = _to_int(left), _to_int(right)
    if expr.op == "+":
        return lhs + rhs
    if expr.op == "-":
        return lhs - rhs
    if expr.op == "*":
        return lhs * rhs
    if expr.op == "/":
        if rhs == 0:
            raise ConcreteError("division by zero")
        quotient = abs(lhs) // abs(rhs)
        return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
    if expr.op == "%":
        if rhs == 0:
            raise ConcreteError("modulo by zero")
        return lhs - rhs * (abs(lhs) // abs(rhs)) * (1 if (lhs >= 0) == (rhs >= 0) else -1)
    if expr.op == "<":
        return lhs < rhs
    if expr.op == "<=":
        return lhs <= rhs
    if expr.op == ">":
        return lhs > rhs
    if expr.op == ">=":
        return lhs >= rhs
    raise ConcreteError("unknown operator %r" % (expr.op,))


def exec_stmt(stmt: A.AtomicStmt, state: ConcreteState) -> ConcreteState:
    """Execute one atomic statement.

    Raises :class:`InfeasibleError` for a failed ``assume`` and
    :class:`ConcreteError` subclasses for genuine runtime errors.
    """
    if isinstance(stmt, A.AssignStmt):
        if isinstance(stmt.value, A.AllocRecord):
            out, addr = state.allocate()
            return out.write(stmt.target, addr)
        return state.write(stmt.target, eval_expr(stmt.value, state))
    if isinstance(stmt, A.AssumeStmt):
        if not _truthy(eval_expr(stmt.cond, state)):
            raise InfeasibleError(str(stmt))
        return state.copy()
    if isinstance(stmt, A.ArrayWriteStmt):
        array = state.read(stmt.array)
        if not isinstance(array, ArrayValue):
            raise ConcreteError("array write to non-array %r" % (array,))
        index = _to_int(eval_expr(stmt.index, state))
        if index < 0 or index >= len(array):
            raise OutOfBoundsError("index %d out of bounds for length %d"
                                   % (index, len(array)))
        value = eval_expr(stmt.value, state)
        out = state.copy()
        target = out.read(stmt.array)
        target.elements[index] = value
        return out
    if isinstance(stmt, A.FieldWriteStmt):
        base = state.read(stmt.base)
        value = eval_expr(stmt.value, state)
        return state.write_field(base, stmt.fieldname, value)
    if isinstance(stmt, A.PrintStmt):
        eval_expr(stmt.value, state)
        return state.copy()
    if isinstance(stmt, A.SkipStmt):
        return state.copy()
    if isinstance(stmt, A.CallStmt):
        raise ConcreteError(
            "call statements require the program-level interpreter")
    raise ConcreteError("cannot execute statement %r" % (stmt,))


class CfgInterpreter:
    """Executes a single CFG concretely (no calls), with bounded fuel."""

    def __init__(self, cfg: Cfg, fuel: int = 10_000) -> None:
        self.cfg = cfg
        self.fuel = fuel

    def run(self, state: ConcreteState) -> ConcreteState:
        """Run from the entry to the exit, returning the final state."""
        loc = self.cfg.entry
        remaining = self.fuel
        current = state
        while loc != self.cfg.exit:
            if remaining <= 0:
                raise ConcreteError("out of fuel at location %d" % loc)
            remaining -= 1
            loc, current = self._step(loc, current)
        return current

    def _step(self, loc: Loc, state: ConcreteState) -> Tuple[Loc, ConcreteState]:
        for edge in self.cfg.out_edges(loc):
            try:
                return edge.dst, exec_stmt(edge.stmt, state)
            except InfeasibleError:
                continue
        raise ConcreteError("execution is stuck at location %d" % loc)

    def trace(self, state: ConcreteState) -> List[Tuple[Loc, ConcreteState]]:
        """Run to the exit, recording the state observed at each location."""
        loc = self.cfg.entry
        remaining = self.fuel
        current = state
        observed: List[Tuple[Loc, ConcreteState]] = [(loc, current)]
        while loc != self.cfg.exit:
            if remaining <= 0:
                raise ConcreteError("out of fuel at location %d" % loc)
            remaining -= 1
            loc, current = self._step(loc, current)
            observed.append((loc, current))
        return observed


class ProgramInterpreter:
    """Executes whole programs, resolving ``x = f(y)`` calls recursively."""

    def __init__(self, cfgs: Dict[str, Cfg], fuel: int = 50_000) -> None:
        self.cfgs = cfgs
        self.fuel = fuel

    def call(self, name: str, args: List[Any]) -> Any:
        """Call procedure ``name`` with concrete argument values."""
        state, budget = self._call(name, args, self.fuel)
        return state.env.get(A.RETURN_VARIABLE)

    def _call(self, name: str, args: List[Any], fuel: int) -> Tuple[ConcreteState, int]:
        cfg = self.cfgs[name]
        if len(args) != len(cfg.params):
            raise ConcreteError("arity mismatch calling %s" % name)
        state = ConcreteState(env=dict(zip(cfg.params, args)))
        loc = cfg.entry
        while loc != cfg.exit:
            if fuel <= 0:
                raise ConcreteError("out of fuel in %s" % name)
            fuel -= 1
            progressed = False
            for edge in cfg.out_edges(loc):
                stmt = edge.stmt
                try:
                    if isinstance(stmt, A.CallStmt):
                        arg_values = [eval_expr(a, state) for a in stmt.args]
                        result_state, fuel = self._call(
                            stmt.function, arg_values, fuel)
                        result = result_state.env.get(A.RETURN_VARIABLE)
                        state = (state.write(stmt.target, result)
                                 if stmt.target is not None else state.copy())
                    else:
                        state = exec_stmt(stmt, state)
                except InfeasibleError:
                    continue
                loc = edge.dst
                progressed = True
                break
            if not progressed:
                raise ConcreteError("execution is stuck at %s:%d" % (name, loc))
        return state, fuel


def collecting_semantics(
    cfg: Cfg,
    initial_states: Iterable[ConcreteState],
    max_steps: int = 20_000,
) -> Dict[Loc, List[ConcreteState]]:
    """A bounded under-approximation of the collecting semantics ``⟦ℓ⟧*``.

    Explores executions of ``cfg`` from each initial state for up to
    ``max_steps`` total transitions, recording every state observed at every
    location.  Runtime errors terminate the offending execution (they are ⊥
    in the concrete semantics) but do not abort collection.  The result is an
    under-approximation of the true collecting semantics, which is exactly
    what a soundness test needs: every collected state must be covered by the
    abstract result.
    """
    collected: Dict[Loc, List[ConcreteState]] = {loc: [] for loc in cfg.locations}
    budget = max_steps
    for start in initial_states:
        frontier: List[Tuple[Loc, ConcreteState]] = [(cfg.entry, start)]
        collected[cfg.entry].append(start)
        while frontier and budget > 0:
            loc, state = frontier.pop()
            for edge in cfg.out_edges(loc):
                if budget <= 0:
                    break
                budget -= 1
                try:
                    nxt = exec_stmt(edge.stmt, state)
                except InfeasibleError:
                    continue
                except ConcreteError:
                    continue
                collected[edge.dst].append(nxt)
                if edge.dst != cfg.exit:
                    frontier.append((edge.dst, nxt))
    return collected


def random_initial_states(
    cfg: Cfg,
    count: int = 5,
    seed: int = 0,
    low: int = -8,
    high: int = 8,
) -> List[ConcreteState]:
    """Generate random integer-valued initial states for a CFG's parameters.

    Used by the soundness property tests for the numeric domains; every
    parameter (and every otherwise-unbound variable read by the program) is
    bound to a small random integer.
    """
    rng = random.Random(seed)
    states = []
    names = sorted(set(cfg.params) | cfg.variables())
    for _ in range(count):
        env = {name: rng.randint(low, high) for name in names}
        states.append(ConcreteState(env=env))
    return states
