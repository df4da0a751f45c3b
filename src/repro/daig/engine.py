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

The DAIG itself is built on first demand: constructing an engine records
the CFG, domain and entry state, and the initial DAIG (Definition A.2),
whose encodings the builder files as it writes them, and its evaluator
are built by the first query, cell write or read of the ``daig``
attribute (see :meth:`DaigEngine.materialize`).
An engine whose answers are always served from elsewhere — a callee whose
exit summary comes from the interprocedural memo or persistent store —
never builds one.

Program edits go through the CFG's structural edit operations, which update
the CFG's derived structure exactly (:mod:`repro.lang.structure`) and
report the affected locations to the engine's structure listener,
subscribed once the DAIG is built.  When the engine synchronizes (after
each edit, or once per :meth:`batch_edits` block), only the reported
locations are compared with the builder's filed encodings and spliced
(:func:`repro.daig.splice.splice_delta`): stale cells are removed, changed
locations re-encoded, and everything downstream dirtied (rules E-Commit /
E-Propagate / E-Loop) for lazy recomputation.  Before the DAIG is built an
edit only changes (and validates) the CFG.  End to end, edit latency is
proportional to the edit's impacted region.  The CFG stays the record of
the program's statements: a client that needs them (the interprocedural
call graph) reads the CFG, not the DAIG.
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
from .graph import Daig
from .memo import MemoTable
from .names import Name, stmt_name
from .query import QueryEvaluator, QueryStats, StaleDemandError
from .splice import SpliceReport, splice, splice_delta


class EditStats:
    """Counters describing the structural-edit work an engine performed.

    Besides the DAIG-side splice counters, :meth:`as_dict` folds in the
    CFG's structure-phase counters (full rebuilds vs. exact insertion
    updates vs. statement-only patches, and locations analyzed) and the
    snapshot-phase counters (whole-program splices vs. suspects compared
    with their filed encodings), so the benchmark layer can verify that no
    phase does O(program) work per edit.
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
    """Incremental, demand-driven abstract interpretation of one procedure.

    The DAIG and its :class:`QueryEvaluator` are built by the first query,
    cell write or read of :attr:`daig` (:meth:`materialize`).
    """

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
        self.cutoff = cutoff
        self.builder = DaigBuilder(cfg, domain, entry_state)
        self.edit_stats = EditStats(cfg)
        # Built on first demand by :meth:`materialize`; the query path reads
        # these plain attributes, not the building :attr:`daig` property.
        self._daig: Optional[Daig] = None
        self.evaluator: Optional[QueryEvaluator] = None
        # Collects each edit's affected region once the DAIG is built.
        self._listener = StructureListener()
        self._batch_depth = 0
        self._cfg_dirty = False
        self._phase = {"build": 0.0, "snapshot": 0.0, "splice": 0.0,
                       "query": 0.0}

    def materialize(self) -> None:
        """Build the DAIG and its evaluator, if not yet built.

        Queries and cell writes call this on first demand.  The build runs
        the same validity checks as an edit (a rejected CFG leaves the
        engine unbuilt).
        """
        if self._daig is not None:
            return
        started = time.perf_counter()
        structure = self.cfg.structure_seconds()
        try:
            daig = self.builder.build()
            # Unrollings replay recorded encodings, keyed by loop shapes.
            self.builder.shapes = {}
            self.evaluator = QueryEvaluator(
                daig, self.memo, self.domain, self.builder, self.call_transfer,
                cutoff=self.cutoff)
            self.cfg.add_structure_listener(self._listener)
            self._daig = daig
            # The build encoded the current CFG: no edit is left to splice.
            self._cfg_dirty = False
        finally:
            # The structure the build derives stays in its own phase.
            self._phase["build"] += (
                time.perf_counter() - started
                - (self.cfg.structure_seconds() - structure))

    def _values_equal(self, first: Any, second: Any) -> bool:
        # Interned states make the common case a pointer comparison.
        return first is second or self.domain.equal(first, second)

    # -- introspection -------------------------------------------------------------

    @property
    def daig(self) -> Daig:
        """The DAIG, built on first read."""
        self.materialize()
        return self._daig

    @property
    def built(self) -> bool:
        """Whether the DAIG has been built (asking never builds it)."""
        return self._daig is not None

    @property
    def stats(self) -> QueryStats:
        # An engine that was never queried has done no query work.
        if self.evaluator is None:
            return QueryStats()
        return self.evaluator.stats

    def size(self) -> Tuple[int, int]:
        """``(cells, computations)`` of the current DAIG."""
        return self.daig.size()

    def phase_seconds(self, include_structure: bool = True) -> Dict[str, float]:
        """Cumulative wall-clock time per engine phase.

        ``structure`` — the CFG's dominator/loop build and incremental
        maintenance; ``build`` — the DAIG's first build (the initial
        encoding, filed as it is written), net of the structure it derives;
        ``snapshot`` — comparing an edit's suspects with their filed
        encodings; ``splice`` — DAIG cell surgery and dirtying; ``query`` —
        demanded evaluation.

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
        self.materialize()
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
        self.materialize()
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
                        comp = self._daig.defining(
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
        comp = self._daig.defining(fix_cell)
        if comp is None:
            raise KeyError("no loop structure for head %d" % head)
        first, second = comp.srcs
        if (self._daig.has_value(first) and self._daig.has_value(second)
                and self._values_equal(self._daig.value(first),
                                       self._daig.value(second))):
            self.evaluator.query(fix_cell)
            return
        if self._daig.has_value(fix_cell):
            self._daig.clear_value(fix_cell)
        self.evaluator.query(fix_cell)

    # -- faithful cell-level edits (Fig. 9) ----------------------------------------------

    def write_statement(self, edge: CfgEdge, stmt: A.AtomicStmt) -> CfgEdge:
        """Replace a statement *in place* through the Fig. 9 edit judgment.

        Only supported when the edit does not re-index the destination's
        incoming edges (i.e. the destination is not a join point); the
        general case goes through :meth:`replace_statement`.
        """
        self.materialize()
        self._sync_structure()
        indexed = self.cfg.fwd_edges_to(edge.dst)
        index = 0
        for i, candidate in indexed:
            if candidate == edge:
                index = i if len(indexed) > 1 else 0
        new_edge = self.cfg.replace_edge_statement(edge, stmt)
        name = stmt_name(edge.src, edge.dst, index)
        # The cell now holds its edge's statement, so the next structural
        # sync finds nothing to relabel.
        write_cell(self._daig, self.builder, name, stmt)
        self.edit_stats.edits += 1
        return new_edge

    # -- structural edits -------------------------------------------------------------------

    def replace_statement(self, edge: CfgEdge, stmt: A.AtomicStmt) -> CfgEdge:
        """Replace the statement labelling ``edge`` and re-splice the DAIG.

        A statement-only edit: the CFG patches its structure cache in place
        (no dominator/loop recomputation) and the sync compares exactly the
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
        """Change the procedure's entry abstract state (interprocedural use).

        Before the DAIG is built this only records the state, which the
        build then seeds the entry cell with.
        """
        self._sync_structure()
        self.builder.entry_state = state
        if self._daig is not None:
            entry_name = self.builder.state_name(self.cfg.entry, {})
            write_cell(self._daig, self.builder, entry_name, state)

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
        cost is one delta splice over that region, not a rebuild.  An engine
        whose DAIG is not built yet only validates the edited CFG.
        """
        self._cfg_dirty = True
        self._sync_structure()

    def _sync_structure(self) -> None:
        """Splice the DAIG over the affected region of edits since the last
        sync.  A no-op when no structural edit is outstanding.

        Validity (reducibility, loop exits, entry outside loops) is checked
        before any DAIG mutation, built or not: a rejected edit leaves the
        engine's caches intact and the accumulated region pending, so the
        caller can repair the CFG with further edits and re-sync.
        """
        if not self._cfg_dirty:
            return
        self.cfg.ensure_structure()
        # Must precede the listener drain: a rejected edit keeps its region
        # pending so a repairing edit can re-sync.
        self.builder.check_encodable()
        self._cfg_dirty = False
        if self._daig is None:
            return  # the first demand builds from the current CFG
        full, sig_suspects, head_suspects = self._listener.drain()
        if full:
            report = splice(self._daig, self.builder)
        else:
            report = splice_delta(self._daig, self.builder,
                                  sig_suspects, head_suspects)
        self.edit_stats.record(report)
        self._phase["snapshot"] += report.snapshot_seconds
        self._phase["splice"] += report.splice_seconds

    # -- convenience -------------------------------------------------------------------------

    def find_edges(self, src: Optional[Loc] = None) -> List[CfgEdge]:
        """All CFG edges, optionally restricted to a source location."""
        if src is None:
            return list(self.cfg.edges)
        return self.cfg.out_edges(src)

    def check_consistency(self) -> None:
        """Assert DAIG well-formedness (used heavily by the test suite)."""
        self.daig.check_well_formed()
