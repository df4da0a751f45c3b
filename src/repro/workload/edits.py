"""Program edits: the unit of change in the interactive workloads.

Section 7.3 exercises the analysis configurations with random edits, each of
which inserts a statement, an if-then-else conditional, or a while loop at a
randomly sampled program location.  This module defines those edits as plain
data objects that can be applied either

* to a bare :class:`~repro.lang.cfg.Cfg` (what the from-scratch
  configurations re-analyze), or
* to a :class:`~repro.daig.engine.DaigEngine` (which splices the DAIG and
  dirties affected cells, preserving everything else for reuse).

Keeping edits first-class guarantees that all four analysis configurations
see *exactly* the same program history, as in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..daig.engine import DaigEngine
from ..lang import ast as A
from ..lang.cfg import Cfg, Loc


@dataclass(frozen=True)
class ProgramEdit:
    """Base class: an edit applied immediately after ``location``."""

    location: Loc

    def apply_to_cfg(self, cfg: Cfg) -> None:
        raise NotImplementedError

    def apply_to_engine(self, engine: DaigEngine) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class InsertStatement(ProgramEdit):
    """Insert a single atomic statement (85% of workload edits)."""

    stmt: A.AtomicStmt = A.SkipStmt()

    def apply_to_cfg(self, cfg: Cfg) -> None:
        cfg.insert_statement_after(self.location, self.stmt)

    def apply_to_engine(self, engine: DaigEngine) -> None:
        engine.insert_statement_after(self.location, self.stmt)

    def describe(self) -> str:
        return "insert `%s` after ℓ%d" % (self.stmt, self.location)


@dataclass(frozen=True)
class InsertConditional(ProgramEdit):
    """Insert an if-then-else conditional (10% of workload edits)."""

    cond: A.Expr = A.BoolLit(True)
    then_stmts: Tuple[A.AtomicStmt, ...] = ()
    else_stmts: Tuple[A.AtomicStmt, ...] = ()

    def apply_to_cfg(self, cfg: Cfg) -> None:
        cfg.insert_conditional_after(
            self.location, self.cond, self.then_stmts, self.else_stmts)

    def apply_to_engine(self, engine: DaigEngine) -> None:
        engine.insert_conditional_after(
            self.location, self.cond, self.then_stmts, self.else_stmts)

    def describe(self) -> str:
        return "insert `if (%s)` after ℓ%d" % (self.cond, self.location)


@dataclass(frozen=True)
class InsertLoop(ProgramEdit):
    """Insert a while loop (5% of workload edits)."""

    cond: A.Expr = A.BoolLit(False)
    body_stmts: Tuple[A.AtomicStmt, ...] = ()

    def apply_to_cfg(self, cfg: Cfg) -> None:
        cfg.insert_loop_after(self.location, self.cond, self.body_stmts)

    def apply_to_engine(self, engine: DaigEngine) -> None:
        engine.insert_loop_after(self.location, self.cond, self.body_stmts)

    def describe(self) -> str:
        return "insert `while (%s)` after ℓ%d" % (self.cond, self.location)


def _find_edge(cfg: Cfg, src: Loc, dst: Loc):
    for edge in cfg.out_edges(src):
        if edge.dst == dst:
            return edge
    raise KeyError("no edge %d -> %d" % (src, dst))


@dataclass(frozen=True)
class ReplaceStatement(ProgramEdit):
    """Replace the statement on an existing edge.

    A *statement-only* edit: applied through the engine it takes the
    zero-structure-work fast path (the CFG patches its live analysis in
    place and the engine compares exactly one location's encoding).
    """

    dst: Loc = 0
    stmt: A.AtomicStmt = A.SkipStmt()

    def apply_to_cfg(self, cfg: Cfg) -> None:
        cfg.replace_edge_statement(_find_edge(cfg, self.location, self.dst), self.stmt)

    def apply_to_engine(self, engine: DaigEngine) -> None:
        engine.replace_statement(
            _find_edge(engine.cfg, self.location, self.dst), self.stmt)

    def describe(self) -> str:
        return "replace ℓ%d→ℓ%d with `%s`" % (self.location, self.dst, self.stmt)


def relabel_assignment(target: str, value: A.Expr):
    """An ``edit_procedure`` callback relabelling the first assignment to
    ``target`` with a new right-hand side — the statement-only edit the
    interprocedural locality tests drive in a loop."""
    def edit(engine: DaigEngine) -> None:
        edge = next(e for e in engine.cfg.edges
                    if isinstance(e.stmt, A.AssignStmt)
                    and e.stmt.target == target)
        engine.replace_statement(edge, A.AssignStmt(target, value))
    return edit


@dataclass(frozen=True)
class DeleteStatement(ProgramEdit):
    """Delete the statement on an existing edge (replace with ``skip``,
    paper Lemma B.2) — the other statement-only edit kind."""

    dst: Loc = 0

    def apply_to_cfg(self, cfg: Cfg) -> None:
        cfg.delete_edge_statement(_find_edge(cfg, self.location, self.dst))

    def apply_to_engine(self, engine: DaigEngine) -> None:
        engine.delete_statement(_find_edge(engine.cfg, self.location, self.dst))

    def describe(self) -> str:
        return "delete statement on ℓ%d→ℓ%d" % (self.location, self.dst)
