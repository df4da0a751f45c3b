"""The synthetic edit/query workload generator of Section 7.3.

The paper's scalability study drives each analysis configuration with 3,000
random edits to an initially-empty program, issuing queries at five
randomly-sampled program locations between consecutive edits.  Each edit
inserts a randomly generated statement (85%), if-then-else conditional
(10%), or while loop (5%) at a randomly-sampled location, with statements
and expressions drawn probabilistically from the grammar of the JavaScript
subset (assignment, arrays, conditionals, loops, and non-recursive calls of
the form ``x = f(y)``).

:class:`WorkloadGenerator` reproduces that process deterministically from a
seed: it maintains its own reference copy of the evolving CFG (so that edit
locations are always sampled from the *current* program) and yields
:class:`WorkloadStep` records that the driver feeds, identically, to every
analysis configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..lang import ast as A
from ..lang.cfg import Cfg, Loc
from .edits import (DeleteStatement, InsertConditional, InsertLoop,
                    InsertStatement, ProgramEdit, ReplaceStatement)

#: Probabilities of each edit kind, as reported in the paper.
STATEMENT_PROBABILITY = 0.85
CONDITIONAL_PROBABILITY = 0.10
LOOP_PROBABILITY = 0.05

#: Queries issued between consecutive edits in the demand-driven configurations.
QUERIES_PER_EDIT = 5


@dataclass(frozen=True)
class WorkloadStep:
    """One step of the interactive session: an edit plus follow-up queries."""

    index: int
    edit: ProgramEdit
    query_locations: Tuple[Loc, ...]
    program_size: int


@dataclass(frozen=True)
class MultiProcStep:
    """One step of a multi-procedure session: an edit to one procedure plus
    follow-up queries at (procedure, location) sites across the program."""

    index: int
    procedure: str
    edit: ProgramEdit
    query_sites: Tuple[Tuple[str, Loc], ...]
    program_size: int


@dataclass(frozen=True)
class MultiProcWorkload:
    """A pre-generated multi-procedure edit/query stream.

    ``initial_cfgs`` is the program every configuration starts from (copies
    of the seed CFGs, *before* any step's edit was applied); ``steps`` is
    the shared edit/query stream.  ``recursive`` records whether backward
    (cycle-forming) call targets were permitted during generation.
    """

    initial_cfgs: dict
    steps: Tuple[MultiProcStep, ...]
    recursive: bool

    def fresh_cfgs(self) -> dict:
        """Independent copies of the initial program (one per
        configuration, so trials never share mutable state)."""
        return {name: cfg.copy() for name, cfg in self.initial_cfgs.items()}


class WorkloadGenerator:
    """Deterministic random generator of edit/query workloads."""

    def __init__(
        self,
        seed: int = 0,
        variable_pool: int = 10,
        call_targets: Sequence[Tuple[str, int]] = (("helper", 1), ("combine", 2)),
        call_probability: float = 0.06,
        queries_per_edit: int = QUERIES_PER_EDIT,
    ) -> None:
        self.rng = random.Random(seed)
        self.variables = ["v%d" % i for i in range(variable_pool)]
        self.call_targets = tuple(call_targets)
        self.call_probability = call_probability
        self.queries_per_edit = queries_per_edit
        self.cfg = Cfg("main")
        # Seed the initially-empty program with a single skip edge so that
        # the entry has a successor and queries have somewhere to land.
        self.cfg.add_edge(self.cfg.entry, A.SkipStmt(), self.cfg.exit)

    # -- random program fragments ------------------------------------------------------

    def _variable(self) -> str:
        return self.rng.choice(self.variables)

    def _constant(self) -> A.Expr:
        return A.IntLit(self.rng.randint(-10, 20))

    def _arith_expression(self, depth: int = 0) -> A.Expr:
        roll = self.rng.random()
        if depth >= 2 or roll < 0.35:
            return self._constant()
        if roll < 0.65:
            return A.Var(self._variable())
        operator = self.rng.choice(["+", "-", "*"])
        return A.BinOp(operator, self._arith_expression(depth + 1),
                       self._arith_expression(depth + 1))

    def _condition(self) -> A.Expr:
        operator = self.rng.choice(list(A.COMPARISON_OPS))
        left = A.Var(self._variable())
        right = self._constant() if self.rng.random() < 0.6 else A.Var(self._variable())
        return A.BinOp(operator, left, right)

    def _statement(self) -> A.AtomicStmt:
        roll = self.rng.random()
        if roll < self.call_probability and self.call_targets:
            name, arity = self.rng.choice(list(self.call_targets))
            args = tuple(A.Var(self._variable()) for _ in range(arity))
            return A.CallStmt(self._variable(), name, args)
        if roll < self.call_probability + 0.06:
            length = self.rng.randint(1, 5)
            elements = tuple(self._constant() for _ in range(length))
            return A.AssignStmt(self._variable(), A.ArrayLit(elements))
        if roll < self.call_probability + 0.10:
            return A.PrintStmt(A.Var(self._variable()))
        return A.AssignStmt(self._variable(), self._arith_expression())

    def _loop_body(self) -> Tuple[A.AtomicStmt, ...]:
        counter = self._variable()
        body: List[A.AtomicStmt] = [
            self._statement() for _ in range(self.rng.randint(0, 2))]
        # Always include a counter update so that generated loops resemble
        # the bounded loops real programs contain.
        body.append(A.AssignStmt(
            counter, A.BinOp("+", A.Var(counter), A.IntLit(1))))
        return tuple(body)

    def _branch_body(self) -> Tuple[A.AtomicStmt, ...]:
        return tuple(self._statement()
                     for _ in range(self.rng.randint(1, 3)))

    # -- edits --------------------------------------------------------------------------

    def _sample_location(self) -> Loc:
        return self.rng.choice(self.cfg.insertion_points())

    def next_edit(self) -> ProgramEdit:
        """Generate one random edit against the current program."""
        location = self._sample_location()
        roll = self.rng.random()
        if roll < STATEMENT_PROBABILITY:
            return InsertStatement(location, self._statement())
        if roll < STATEMENT_PROBABILITY + CONDITIONAL_PROBABILITY:
            else_stmts = self._branch_body() if self.rng.random() < 0.5 else ()
            return InsertConditional(location, self._condition(),
                                     self._branch_body(), else_stmts)
        counter = self._variable()
        condition = A.BinOp("<", A.Var(counter), self._constant())
        return InsertLoop(location, condition, self._loop_body())

    def next_statement_only_edit(self) -> ProgramEdit:
        """A statement-only edit: relabel (or delete) an existing statement.

        These model a developer editing statement text without changing
        control flow — the workload that exercises the engine's
        zero-structure-work fast path (no dominator/loop recomputation, one
        location compared per edit).
        """
        edge = self.rng.choice(self.cfg.edges)
        if self.rng.random() < 0.2:
            return DeleteStatement(edge.src, edge.dst)
        return ReplaceStatement(edge.src, edge.dst, self._statement())

    def _sample_queries(self) -> Tuple[Loc, ...]:
        points = self.cfg.insertion_points() + [self.cfg.exit]
        return tuple(self.rng.choice(points) for _ in range(self.queries_per_edit))

    def generate(self, edits: int) -> List[WorkloadStep]:
        """Generate ``edits`` workload steps, mutating the reference program."""
        steps: List[WorkloadStep] = []
        for index in range(edits):
            edit = self.next_edit()
            edit.apply_to_cfg(self.cfg)
            queries = self._sample_queries()
            steps.append(WorkloadStep(index, edit, queries, self.cfg.size()))
        return steps

    # -- multi-procedure workloads -------------------------------------------------

    def generate_multiprocedure(
        self,
        edits: int,
        procedures: int = 5,
        recursive: bool = False,
        statement_only_fraction: float = 0.25,
        call_probability: float = 0.18,
        entry: str = "main",
    ) -> MultiProcWorkload:
        """Generate a multi-procedure edit/query stream.

        The program starts as ``procedures`` initially-empty procedures
        (``main`` plus helpers, each taking one parameter); every step picks
        a procedure, applies a random edit to it (structural, or — with
        ``statement_only_fraction`` probability — a statement relabel), and
        samples ``queries_per_edit`` (procedure, location) query sites
        across the whole program.  Generated calls have the form
        ``x = p(y)``; with ``recursive=False`` a procedure only calls
        strictly later procedures (the call graph stays a DAG), while
        ``recursive=True`` also permits self- and backward calls, producing
        direct and mutual recursion for the SCC summary fixpoint.
        """
        if procedures < 1:
            raise ValueError("need at least one procedure")
        names = [entry] + ["p%d" % i for i in range(1, procedures)]
        cfgs: dict = {}
        for name in names:
            cfg = Cfg(name, params=() if name == entry else ("a0",))
            cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
            cfgs[name] = cfg
        initial = {name: cfg.copy() for name, cfg in cfgs.items()}
        order = {name: position for position, name in enumerate(names)}
        saved = (self.cfg, self.call_targets, self.call_probability,
                 self.variables)
        # Let generated statements assign the return variable so callee
        # exits actually flow information back through ``call_return``.
        self.variables = self.variables + [A.RETURN_VARIABLE]
        steps = []
        try:
            for index in range(edits):
                procedure = self.rng.choice(names)
                cfg = cfgs[procedure]
                allowed = tuple(
                    (name, 1) for name in names
                    if name != entry
                    and (recursive or order[name] > order[procedure]))
                self.cfg = cfg
                self.call_targets = allowed
                self.call_probability = call_probability if allowed else 0.0
                if (cfg.size() > 1
                        and self.rng.random() < statement_only_fraction):
                    edit = self.next_statement_only_edit()
                else:
                    edit = self.next_edit()
                edit.apply_to_cfg(cfg)
                sites = []
                for _ in range(self.queries_per_edit):
                    query_proc = self.rng.choice(names)
                    query_cfg = cfgs[query_proc]
                    points = query_cfg.insertion_points() + [query_cfg.exit]
                    sites.append((query_proc, self.rng.choice(points)))
                steps.append(MultiProcStep(
                    index, procedure, edit, tuple(sites),
                    sum(c.size() for c in cfgs.values())))
        finally:
            (self.cfg, self.call_targets, self.call_probability,
             self.variables) = saved
        return MultiProcWorkload(initial, tuple(steps), recursive)

    def callee_programs(self) -> dict:
        """Source text for the predefined callee procedures of the grammar."""
        return {
            "helper": "function helper(x) { var y = x + 1; return y; }",
            "combine": "function combine(a, b) { if (a < b) { return b - a; } return a - b; }",
        }
