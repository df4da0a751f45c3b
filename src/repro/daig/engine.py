"""The demanded-abstract-interpretation engine for a single procedure.

:class:`DaigEngine` is the user-facing object tying everything together: it
owns a CFG, the DAIG reifying its abstract interpretation, and the auxiliary
memo table, and it exposes the two interaction modes of the paper —
*queries* ("what is the abstract state at this location?") and *edits*
("this statement was inserted / replaced / deleted") — with fine-grained
reuse across both.

Client queries are phrased in terms of program locations; the engine maps
them to cell names, forcing loop fixed points to converge (demanded
unrolling) as needed and returning the invariant the batch interpreter would
compute (Theorem 6.1).  Query evaluation is iterative (an explicit worklist
in :mod:`repro.daig.query`), so demand chains of arbitrary depth run at the
interpreter's default recursion limit.

Program edits go through the CFG's structural edit operations, which update
the CFG's derived structure *incrementally* (:mod:`repro.lang.structure`)
and report the affected region to the engine's live
:class:`~repro.daig.splice.StructureSnapshot` — captured from scratch
exactly once, at engine construction.  When the engine synchronizes (after
each edit, or once per :meth:`batch_edits` block), only the reported region
is re-signed and spliced (:func:`repro.daig.splice.splice_delta`): stale
cells are removed, dirty locations re-encoded, and everything downstream
dirtied (rules E-Commit / E-Propagate / E-Loop) for lazy recomputation.
End to end, edit latency is proportional to the edit's impacted region —
there is no O(program) pass left on the edit path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..domains.base import AbstractDomain
from ..lang import ast as A
from ..lang.cfg import Cfg, CfgEdge, Loc
from ..lang.structure import StructureListener
from .build import DaigBuilder
from .edit import write_cell
from .memo import MemoTable
from .names import Name, stmt_name
from .query import QueryEvaluator, QueryStats, StaleDemandError
from .splice import (SpliceReport, StructureSnapshot, _check_encodable,
                     splice, splice_delta)


class EditStats:
    """Counters describing the structural-edit work an engine performed.

    Besides the DAIG-side splice counters, :meth:`as_dict` folds in the
    CFG's structure-phase counters (full rebuilds vs. incremental refreshes
    vs. statement-only patches, and locations re-analyzed) and the
    snapshot-phase counters (whole-program splices vs. entries re-signed),
    so the benchmark layer can verify that no phase does O(program) work
    per edit.
    """

    def __init__(self, cfg: Cfg) -> None:
        self._cfg = cfg
        self.edits = 0
        self.splices = 0
        self.cells_removed = 0
        self.cells_added = 0
        self.cells_dirtied = 0
        self.cells_shadowed = 0
        self.snapshot_full_captures = 0
        self.snapshot_locs_resigned = 0
        self.last_report: Optional[SpliceReport] = None

    def record(self, report: SpliceReport) -> None:
        self.splices += 1
        self.cells_removed += report.cells_removed
        self.cells_added += report.cells_added
        self.cells_dirtied += report.cells_dirtied
        self.cells_shadowed = report.cells_shadowed
        self.snapshot_locs_resigned += report.locs_resigned
        if report.full_capture:
            self.snapshot_full_captures += 1
        self.last_report = report

    def as_dict(self, include_structure: bool = True) -> Dict[str, int]:
        """Counters as a flat dict.

        ``include_structure=False`` omits the CFG's structure-phase counters;
        the interprocedural engine shares one CFG (and hence one structure
        cache) among every context of a procedure and folds those counters in
        once per procedure instead of once per engine.
        """
        out = {
            "edits": self.edits,
            "splices": self.splices,
            "spliced_cells_removed": self.cells_removed,
            "spliced_cells_added": self.cells_added,
            "spliced_cells_dirtied": self.cells_dirtied,
            "cells_shadowed": self.cells_shadowed,
            "snapshot_full_captures": self.snapshot_full_captures,
            "snapshot_locs_resigned": self.snapshot_locs_resigned,
        }
        if include_structure:
            out.update(self._cfg.structure_stats())
        return out


class DaigEngine:
    """Incremental, demand-driven abstract interpretation of one procedure."""

    def __init__(
        self,
        cfg: Cfg,
        domain: AbstractDomain,
        memo: Optional[MemoTable] = None,
        entry_state: Optional[Any] = None,
        call_transfer: Optional[Callable[[A.CallStmt, Any, Name], Any]] = None,
        cutoff: bool = True,
    ) -> None:
        self.cfg = cfg
        self.domain = domain
        self.memo = memo if memo is not None else MemoTable()
        self.call_transfer = call_transfer
        self._entry_state = entry_state
        self.cutoff = cutoff
        self.builder = DaigBuilder(cfg, domain, entry_state)
        self.daig = self.builder.build()
        self.evaluator = QueryEvaluator(
            self.daig, self.memo, domain, self.builder, call_transfer,
            cutoff=cutoff)
        self.edit_stats = EditStats(cfg)
        # The live structure snapshot: captured from scratch exactly once,
        # then updated in place over each edit's affected region.
        self._snapshot = StructureSnapshot.capture(cfg)
        self._listener = StructureListener()
        cfg.add_structure_listener(self._listener)
        self._batch_depth = 0
        self._cfg_dirty = False
        self._phase = {"snapshot": 0.0, "splice": 0.0, "query": 0.0}
        #: Optional consumer of statement-cell deltas: called with
        #: ``(removed_keys, present_key_to_stmt)`` after every splice and
        #: direct statement write, so clients indexing statements (the
        #: interprocedural call-site index) stay in sync at O(affected
        #: region) cost.  Keys are ``(src, dst, index)`` triples.
        self.stmt_change_listener: Optional[
            Callable[[Any, Any], None]] = None

    def _values_equal(self, first: Any, second: Any) -> bool:
        # Interned states make the common case a pointer comparison.
        return first is second or self.domain.equal(first, second)

    # -- introspection -------------------------------------------------------------

    @property
    def stats(self) -> QueryStats:
        return self.evaluator.stats

    @property
    def edits_applied(self) -> int:
        return self.edit_stats.edits

    def size(self) -> Tuple[int, int]:
        """``(cells, computations)`` of the current DAIG."""
        return self.daig.size()

    def stmt_cells(self) -> Dict[Tuple[int, int, int], A.AtomicStmt]:
        """The DAIG's statement cells, keyed by ``(src, dst, index)``.

        A copy of the live snapshot's statement table — consumers indexing
        statements take this once at construction and then follow the
        incremental deltas delivered to ``stmt_change_listener``.
        """
        return dict(self._snapshot.stmt_cells)

    def phase_seconds(self, include_structure: bool = True) -> Dict[str, float]:
        """Cumulative wall-clock time per engine phase.

        ``structure`` — the CFG's incremental dominator/loop maintenance;
        ``snapshot`` — encoding-signature maintenance; ``splice`` — DAIG
        cell surgery and dirtying; ``query`` — demanded evaluation.

        ``include_structure=False`` omits the CFG's structure phase for
        callers that share one CFG among several engines and account for its
        time once per procedure.
        """
        out = dict(self._phase)
        if include_structure:
            out["structure"] = self.cfg.structure_seconds()
        return out

    # -- queries ---------------------------------------------------------------------

    def query_cell(self, name: Name) -> Any:
        """Query an arbitrary cell by name (the raw Fig. 8 judgment)."""
        self._sync_structure()
        started = time.perf_counter()
        try:
            return self.evaluator.query(name)
        finally:
            self._phase["query"] += time.perf_counter() - started

    def query_location(self, loc: Loc) -> Any:
        """The fixed-point invariant at ``loc`` (demanded, with reuse).

        For locations inside loops this forces the enclosing loops' demanded
        fixed points to converge and returns the abstract state computed from
        the final iterate, which equals the classical invariant.
        """
        self._sync_structure()
        started = time.perf_counter()
        try:
            if loc not in self.cfg.reachable_locations():
                return self.domain.bottom()
            # A reentrant call transfer (interprocedural summary update) can
            # roll back a loop between converging it and reading the demanded
            # iterate; the whole derivation is simply retried against the
            # post-rollback encoding.  Summary widening converges, so the
            # retry count is bounded in practice; the cap guards domain bugs.
            for _attempt in range(64):
                try:
                    heads = self.cfg.containing_loop_heads(loc)
                    overrides: Dict[Loc, int] = {}
                    for head in heads:
                        self._ensure_converged(head, overrides)
                        comp = self.daig.defining(
                            self.builder.fix_name(head, overrides))
                        overrides[head] = comp.srcs[0].iteration_of(head)
                    if self.cfg.is_loop_head(loc):
                        return self.evaluator.query(
                            self.builder.fix_name(loc, overrides))
                    return self.evaluator.query(
                        self.builder.state_name(loc, overrides))
                except StaleDemandError:
                    continue
            raise StaleDemandError(
                "query at location %d kept being invalidated" % (loc,))
        finally:
            self._phase["query"] += time.perf_counter() - started

    def query_exit(self) -> Any:
        """The invariant at the procedure's exit location."""
        return self.query_location(self.cfg.exit)

    def query_all(self) -> Dict[Loc, Any]:
        """Invariants at every reachable location (exhaustive evaluation)."""
        return {loc: self.query_location(loc)
                for loc in sorted(self.cfg.reachable_locations())}

    def _ensure_converged(self, head: Loc, overrides: Dict[Loc, int]) -> None:
        """Make sure the loop at ``head`` has converged iterates available.

        A fixed-point value carried over from before an edit is still valid,
        but the iterate cells it was derived from may have been rolled back;
        queries *inside* the loop body need those iterates, so in that case
        the cached fixed point is dropped (always sound) and recomputed.
        """
        fix_cell = self.builder.fix_name(head, overrides)
        comp = self.daig.defining(fix_cell)
        if comp is None:
            raise KeyError("no loop structure for head %d" % head)
        first, second = comp.srcs
        if (self.daig.has_value(first) and self.daig.has_value(second)
                and self._values_equal(self.daig.value(first),
                                       self.daig.value(second))):
            self.evaluator.query(fix_cell)
            return
        if self.daig.has_value(fix_cell):
            self.daig.clear_value(fix_cell)
        self.evaluator.query(fix_cell)

    # -- faithful cell-level edits (Fig. 9) ----------------------------------------------

    def write_statement(self, edge: CfgEdge, stmt: A.AtomicStmt) -> CfgEdge:
        """Replace a statement *in place* through the Fig. 9 edit judgment.

        Only supported when the edit does not re-index the destination's
        incoming edges (i.e. the destination is not a join point); the
        general case goes through :meth:`replace_statement`.
        """
        self._sync_structure()
        indexed = self.cfg.fwd_edges_to(edge.dst)
        index = 0
        for i, candidate in indexed:
            if candidate == edge:
                index = i if len(indexed) > 1 else 0
        new_edge = self.cfg.replace_edge_statement(edge, stmt)
        name = stmt_name(edge.src, edge.dst, index)
        write_cell(self.daig, self.builder, name, stmt)
        # Keep the live snapshot in step so the next structural sync does
        # not spuriously re-dirty the already-written cell.
        self._snapshot.set_stmt((edge.src, edge.dst, index), stmt)
        self.edit_stats.edits += 1
        if self.stmt_change_listener is not None:
            self.stmt_change_listener(set(), {(edge.src, edge.dst, index): stmt})
        return new_edge

    # -- structural edits -------------------------------------------------------------------

    def replace_statement(self, edge: CfgEdge, stmt: A.AtomicStmt) -> CfgEdge:
        """Replace the statement labelling ``edge`` and re-splice the DAIG.

        A statement-only edit: the CFG patches its structure cache in place
        (no dominator/loop recomputation) and the sync re-signs exactly the
        edge's destination.
        """
        new_edge = self.cfg.replace_edge_statement(edge, stmt)
        self._note_edit()
        return new_edge

    def delete_statement(self, edge: CfgEdge) -> CfgEdge:
        """Delete a statement (replace it with ``skip``), as in Lemma B.2."""
        new_edge = self.cfg.delete_edge_statement(edge)
        self._note_edit()
        return new_edge

    def insert_statement_after(self, loc: Loc, stmt: A.AtomicStmt) -> Loc:
        """Insert a single statement after ``loc``."""
        cont = self.cfg.insert_statement_after(loc, stmt)
        self._note_edit()
        return cont

    def insert_conditional_after(
        self,
        loc: Loc,
        cond: A.Expr,
        then_stmts: Sequence[A.AtomicStmt],
        else_stmts: Sequence[A.AtomicStmt] = (),
    ) -> Loc:
        """Insert an if-then-else after ``loc``."""
        cont = self.cfg.insert_conditional_after(loc, cond, then_stmts, else_stmts)
        self._note_edit()
        return cont

    def insert_loop_after(
        self,
        loc: Loc,
        cond: A.Expr,
        body_stmts: Sequence[A.AtomicStmt],
    ) -> Loc:
        """Insert a while loop after ``loc``."""
        cont = self.cfg.insert_loop_after(loc, cond, body_stmts)
        self._note_edit()
        return cont

    def set_entry_state(self, state: Any) -> None:
        """Change the procedure's entry abstract state (interprocedural use)."""
        self._sync_structure()
        self._entry_state = state
        self.builder.entry_state = state
        entry_name = self.builder.state_name(self.cfg.entry, {})
        write_cell(self.daig, self.builder, entry_name, state)

    # -- structure synchronization ---------------------------------------------------------

    @contextmanager
    def batch_edits(self) -> Iterator["DaigEngine"]:
        """Coalesce consecutive structural edits into a single splice.

        Within the ``with`` block, the structural edit methods mutate only
        the CFG; the DAIG is spliced once, over the union of the batch's
        affected regions, when the block exits.  A query (or cell-level
        edit) issued inside the block first *synchronizes* — splicing the
        edits so far — so mid-batch observations are always up to date;
        only query-free edit runs coalesce into one splice.  Re-entrant
        uses nest into the outermost batch.
        """
        if self._batch_depth > 0:
            yield self  # already inside a batch: nest into it
            return
        self._batch_depth += 1
        try:
            yield self
        except BaseException as exc:
            # The CFG edits made before the failure are real; splice so the
            # DAIG stays in sync with them, then let the caller's exception
            # propagate.  If the splice itself fails (the block died with
            # the CFG in a rejectable state), chain it onto the original
            # instead of silently replacing it.
            self._batch_depth -= 1
            try:
                self._sync_structure()
            except Exception as splice_exc:
                raise splice_exc from exc
            raise
        else:
            self._batch_depth -= 1
            self._sync_structure()

    def _note_edit(self) -> None:
        self.edit_stats.edits += 1
        self._cfg_dirty = True
        if self._batch_depth == 0:
            self._sync_structure()

    def resync(self) -> None:
        """Splice this DAIG after a *sibling* engine edited the shared CFG.

        The interprocedural engine keeps one CFG per procedure shared by
        every (procedure, context) engine; an edit is applied to the CFG
        once, through one engine, and the remaining engines catch up here —
        their structure listeners already hold the affected region, so the
        cost is one delta splice over that region, not a rebuild.
        """
        self._cfg_dirty = True
        self._sync_structure()

    def _sync_structure(self) -> None:
        """Splice the DAIG over the affected region of edits since the last
        sync.  A no-op when no structural edit is outstanding.

        Validity (reducibility, loop exits, entry outside loops) is checked
        before any snapshot or DAIG mutation: a rejected edit leaves the
        engine's caches intact and the accumulated region pending, so the
        caller can repair the CFG with further edits and re-sync.
        """
        if not self._cfg_dirty:
            return
        self.cfg.ensure_structure()
        # Must precede the listener drain: a rejected edit keeps its region
        # pending so a repairing edit can re-sync.
        _check_encodable(self.builder)
        self._cfg_dirty = False
        full, sig_suspects, head_suspects = self._listener.drain()
        if full:
            report = splice(self.daig, self.builder, self._snapshot)
        else:
            report = splice_delta(self.daig, self.builder, self._snapshot,
                                  sig_suspects, head_suspects)
        self.edit_stats.record(report)
        self._phase["snapshot"] += report.snapshot_seconds
        self._phase["splice"] += report.splice_seconds
        if self.stmt_change_listener is not None and (
                report.stmt_removed or report.stmt_present):
            self.stmt_change_listener(report.stmt_removed, report.stmt_present)

    # -- convenience -------------------------------------------------------------------------

    def find_edges(self, src: Optional[Loc] = None) -> List[CfgEdge]:
        """All CFG edges, optionally restricted to a source location."""
        if src is None:
            return list(self.cfg.edges)
        return self.cfg.out_edges(src)

    def check_consistency(self) -> None:
        """Assert DAIG well-formedness (used heavily by the test suite)."""
        self.daig.check_well_formed()
