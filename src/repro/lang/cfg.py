"""Control-flow graphs: the program representation analyzed by the framework.

Following Section 3 of the paper, a program is a triple ``⟨L, E, l0⟩`` of
control locations, directed statement-labelled edges, and an initial
location.  This module provides:

* :class:`Cfg` — the graph itself, with the structural analyses the DAIG
  construction of Section 4 / Appendix A needs: dominators, the partition of
  edges into *forward* and *back* edges, natural loops, loop nesting, join
  points (forward in-degree >= 2) and the per-location indexing of incoming
  forward edges (``fwd-edges-to``).
* :class:`CfgBuilder` — lowering of structured ASTs (:mod:`repro.lang.ast`)
  into CFGs, splitting branch conditions into ``assume`` edges exactly as the
  paper does for Fig. 2.
* Structural *edit* operations (insert a statement / conditional / loop after
  a location, replace an edge's statement, delete an edge) with stable
  location identity, which is what makes fine-grained incremental reuse
  possible across program versions.

Locations are small integers; fresh locations are always allocated from a
monotonically increasing counter so that edits never recycle a location name.

Derived structure lives in one :class:`~repro.lang.structure.CfgStructure`
per graph, updated per edit instead of recomputed: a statement relabel
patches it in place with zero dominator/loop work, and each
``insert_*_after`` first brings a missing or stale structure up to date,
then hands it the one insertion — the insertion point, its new locations
and the destinations of the moved edges — to apply exactly.  Raw edge
surgery (:meth:`Cfg.add_edge` / :meth:`Cfg.remove_edge` on a live graph)
and wholesale edge replacement drop the structure, and the next structural
query rebuilds it from scratch.  The graph additionally maintains adjacency
and edge-position indices so single edits are O(1) and continuation detach
is O(out-degree) instead of O(edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import ast as A
from .structure import CfgStructure, StructureListener

Loc = int


@dataclass(frozen=True)
class CfgEdge:
    """A directed control-flow edge ``src --[stmt]--> dst``.

    Immutable, and shared by every :meth:`Cfg.copy` of its graph, so
    :func:`repro.store.canonical.cfg_digest` caches the edge's canonical
    encoding in its ``__dict__`` (under ``_fragment``).
    """

    src: Loc
    stmt: A.AtomicStmt
    dst: Loc

    def __str__(self) -> str:
        return "%d --[%s]--> %d" % (self.src, self.stmt, self.dst)

    def __getstate__(self) -> Dict[str, object]:
        # Pickles leave out the cached encoding: a graph shipped to a
        # worker keeps its size, and the receiver re-derives it on demand.
        state = dict(self.__dict__)
        state.pop("_fragment", None)
        return state


class IrreducibleCfgError(Exception):
    """Raised when a CFG is not reducible (violates the paper's assumption)."""


class Cfg:
    """A statement-labelled control-flow graph for a single procedure.

    The graph is mutable (edits arrive as the developer types); all derived
    structural information (dominators, loops, join points, ...) lives in a
    live cache that each insertion updates exactly.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[str] = (),
        entry: Loc = 0,
        exit_loc: Loc = 1,
    ) -> None:
        self.name = name
        self.params: Tuple[str, ...] = tuple(params)
        self.entry: Loc = entry
        self.exit: Loc = exit_loc
        self.locations: Set[Loc] = {entry, exit_loc}
        self.edges: List[CfgEdge] = []
        self._next_loc: Loc = max(entry, exit_loc) + 1
        self._out: Dict[Loc, List[CfgEdge]] = {entry: [], exit_loc: []}
        self._in: Dict[Loc, List[CfgEdge]] = {entry: [], exit_loc: []}
        self._edge_pos: Dict[CfgEdge, List[int]] = {}
        #: The derived structure; None when missing or stale (the next
        #: structural query rebuilds it from scratch).
        self._analysis: Optional[CfgStructure] = None
        self._listeners: List[StructureListener] = []
        self._structure_stats: Dict[str, int] = {
            "structure_full_builds": 0,
            "structure_refreshes": 0,
            "structure_locs_reanalyzed": 0,
            "structure_stmt_patches": 0,
        }
        self._structure_seconds: float = 0.0

    # -- construction -------------------------------------------------------

    def fresh_loc(self) -> Loc:
        """Allocate a new, never-before-used location (edge-less, so the
        derived structure is unaffected)."""
        loc = self._next_loc
        self._next_loc += 1
        self.locations.add(loc)
        self._out[loc] = []
        self._in[loc] = []
        return loc

    def add_edge(self, src: Loc, stmt: A.AtomicStmt, dst: Loc) -> CfgEdge:
        """Add the edge ``src --[stmt]--> dst`` (locations must exist).

        Raw surgery: the derived structure is rebuilt from scratch on the
        next structural query.
        """
        edge = self._link(src, stmt, dst)
        self._invalidate()
        return edge

    def remove_edge(self, edge: CfgEdge) -> None:
        """Remove ``edge`` (raw surgery, like :meth:`add_edge`)."""
        self._remove_edge_object(edge)
        self._invalidate()

    def copy(self) -> "Cfg":
        """Return an independent copy sharing no mutable state."""
        dup = Cfg(self.name, self.params, self.entry, self.exit)
        dup.locations = set(self.locations)
        dup.edges = list(self.edges)
        dup._next_loc = self._next_loc
        dup._rebuild_indices()
        return dup

    def __getstate__(self) -> Dict[str, object]:
        # The derived structure reaches its graph through a weak proxy,
        # which would pickle as a second copy of the graph; an unpickled
        # graph rebuilds its own structure on first demand.
        state = dict(self.__dict__)
        state["_analysis"] = None
        return state

    def _invalidate(self) -> None:
        """Discard all derived structure (raw or wholesale mutation)."""
        self._analysis = None
        for listener in self._listeners:
            listener.note_full()

    def _rebuild_indices(self) -> None:
        """Recompute adjacency and position indices from ``self.edges``."""
        self._out = {loc: [] for loc in self.locations}
        self._in = {loc: [] for loc in self.locations}
        self._edge_pos = {}
        for position, edge in enumerate(self.edges):
            self._out[edge.src].append(edge)
            self._in[edge.dst].append(edge)
            self._edge_pos.setdefault(edge, []).append(position)

    def _reset_edges(self, edges: List[CfgEdge], locations: Set[Loc]) -> None:
        """Replace the edge/location sets wholesale (used by pruning)."""
        self.edges = list(edges)
        self.locations = set(locations)
        self._rebuild_indices()
        self._invalidate()

    # -- structure listeners -------------------------------------------------

    def add_structure_listener(self, listener: StructureListener) -> None:
        """Subscribe a consumer (e.g. a DAIG engine's structure listener)
        to the affected regions of future edits."""
        self._listeners.append(listener)

    def remove_structure_listener(self, listener: StructureListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _record_stmt_patch(self, old: CfgEdge, new: CfgEdge) -> None:
        self._structure_stats["structure_stmt_patches"] += 1
        if self._analysis is not None:
            self._analysis.patch_stmt(old, new)
        for listener in self._listeners:
            listener.note_region({new.dst}, set())

    # -- low-level edge surgery (O(degree), via the position index) ----------

    def _link(self, src: Loc, stmt: A.AtomicStmt, dst: Loc) -> CfgEdge:
        if src not in self.locations or dst not in self.locations:
            raise ValueError("edge endpoints must be existing locations")
        edge = CfgEdge(src, stmt, dst)
        self._edge_pos.setdefault(edge, []).append(len(self.edges))
        self.edges.append(edge)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        return edge

    def _positions_of(self, edge: CfgEdge) -> List[int]:
        positions = self._edge_pos.get(edge)
        if not positions:
            raise ValueError("edge not in CFG: %s" % (edge,))
        return positions

    def _remove_edge_object(self, edge: CfgEdge) -> None:
        positions = self._positions_of(edge)
        position = positions.pop()
        if not positions:
            del self._edge_pos[edge]
        last = self.edges.pop()
        if position < len(self.edges):
            self.edges[position] = last
            moved = self._edge_pos[last]
            moved.remove(len(self.edges))
            moved.append(position)
        self._out[edge.src].remove(edge)
        self._in[edge.dst].remove(edge)

    def _replace_edge_object(self, edge: CfgEdge, new_edge: CfgEdge) -> None:
        positions = self._positions_of(edge)
        position = positions.pop()
        if not positions:
            del self._edge_pos[edge]
        self.edges[position] = new_edge
        self._edge_pos.setdefault(new_edge, []).append(position)
        out = self._out[edge.src]
        if edge.src == new_edge.src:
            out[out.index(edge)] = new_edge
        else:
            out.remove(edge)
            self._out[new_edge.src].append(new_edge)
        incoming = self._in[edge.dst]
        if edge.dst == new_edge.dst:
            incoming[incoming.index(edge)] = new_edge
        else:
            incoming.remove(edge)
            self._in[new_edge.dst].append(new_edge)

    # -- basic queries -------------------------------------------------------

    def out_edges(self, loc: Loc) -> List[CfgEdge]:
        return list(self._out.get(loc, ()))

    def in_edges(self, loc: Loc) -> List[CfgEdge]:
        return list(self._in.get(loc, ()))

    def successors(self, loc: Loc) -> List[Loc]:
        return [e.dst for e in self._out.get(loc, ())]

    def predecessors(self, loc: Loc) -> List[Loc]:
        return [e.src for e in self._in.get(loc, ())]

    def statements(self) -> List[A.AtomicStmt]:
        return [e.stmt for e in self.edges]

    def size(self) -> int:
        """Number of statement edges — the "program size" axis of Fig. 10."""
        return len(self.edges)

    def variables(self) -> Set[str]:
        """All variable names mentioned anywhere in the procedure."""
        out: Set[str] = set(self.params)
        out.add(A.RETURN_VARIABLE)
        for edge in self.edges:
            out |= set(edge.stmt.variables())
        return out

    # -- structural analyses -------------------------------------------------

    def _analyze(self) -> CfgStructure:
        if self._analysis is None:
            self._analysis = CfgStructure(self)
            for listener in self._listeners:
                listener.note_full()
        return self._analysis

    def ensure_structure(self) -> None:
        """Rebuild a missing or stale structure now."""
        self._analyze()

    def structure_stats(self) -> Dict[str, int]:
        """Cumulative structure-phase work counters for this program."""
        return dict(self._structure_stats)

    def structure_seconds(self) -> float:
        """Cumulative wall-clock time spent maintaining derived structure."""
        return self._structure_seconds

    def reachable_locations(self) -> Set[Loc]:
        """The set of locations reachable from the entry (live view —
        callers must not mutate it)."""
        return self._analyze().reachable

    def dominators(self) -> Dict[Loc, Set[Loc]]:
        """Map each reachable location to the set of its dominators.

        Derived on each call from the immediate-dominator tree, in
        O(locations × tree depth): the structure keeps no per-location
        sets, and only tests ask for them.
        """
        analysis = self._analyze()
        out: Dict[Loc, Set[Loc]] = {}
        for loc in analysis.reverse_postorder():  # parents come first
            parent = analysis.idom[loc]
            out[loc] = {loc} if parent == loc else out[parent] | {loc}
        return out

    def dominates(self, a: Loc, b: Loc) -> bool:
        """Whether every entry path to ``b`` passes ``a`` (False when ``b``
        is unreachable): a walk up the immediate-dominator tree."""
        return self._analyze().dominates(a, b)

    def back_edges(self) -> List[CfgEdge]:
        """Edges ``u --> v`` where ``v`` dominates ``u`` (loop back edges)."""
        return self._analyze().back_edges()

    def forward_edges(self) -> List[CfgEdge]:
        return self._analyze().forward_edges()

    def is_back_edge(self, edge: CfgEdge) -> bool:
        return self._analyze().is_back_edge(edge)

    def loop_heads(self) -> List[Loc]:
        """Destinations of back edges, in a deterministic order."""
        return self._analyze().loop_heads

    def is_loop_head(self, loc: Loc) -> bool:
        """O(1) loop-head membership (the list scan is O(#loops))."""
        return loc in self._analyze().natural_loops

    def natural_loop(self, head: Loc) -> Set[Loc]:
        """The natural loop (body location set, including ``head``) of a head."""
        return self._analyze().natural_loops.get(head, set())

    def containing_loop_heads(self, loc: Loc) -> Tuple[Loc, ...]:
        """Loop heads whose natural loop contains ``loc``, outermost first."""
        return self._analyze().containing.get(loc, ())

    def in_any_loop(self, loc: Loc) -> bool:
        return bool(self.containing_loop_heads(loc))

    def join_points(self) -> Set[Loc]:
        """Locations with forward in-degree >= 2 (the paper's ``L⊔``)."""
        return self._analyze().join_points

    def fwd_edges_to(self, loc: Loc) -> List[Tuple[int, CfgEdge]]:
        """Incoming *forward* edges of ``loc``, paired with 1-based indices.

        The indices are what disambiguate the pre-join reference cells
        ``i·n_ℓ`` in the DAIG encoding of control-flow joins.
        """
        return self._analyze().fwd_edges_to.get(loc, [])

    def back_edges_to(self, loc: Loc) -> List[CfgEdge]:
        return self._analyze().back_edges_to(loc)

    def reverse_postorder(self) -> List[Loc]:
        """Reverse postorder over forward edges (a topological order)."""
        return self._analyze().reverse_postorder()

    def loop_exit_violations(self) -> List[Tuple[CfgEdge, Loc]]:
        """Forward edges leaving a natural loop from a non-head location,
        paired with the violated loop head (maintained incrementally)."""
        analysis = self._analyze()
        return sorted(
            analysis.bad_loop_exits.items(),
            key=lambda item: (item[0].src, item[0].dst, str(item[0].stmt)))

    def check_reducible(self) -> None:
        """Raise :class:`IrreducibleCfgError` if the graph is irreducible."""
        if self._analyze().has_forward_cycle:
            raise IrreducibleCfgError(
                "forward edges of %s contain a cycle" % (self.name,))

    def is_reducible(self) -> bool:
        try:
            self.check_reducible()
            return True
        except IrreducibleCfgError:
            return False

    # -- edits ----------------------------------------------------------------

    def replace_edge_statement(self, edge: CfgEdge, stmt: A.AtomicStmt) -> CfgEdge:
        """Replace the statement labelling an existing edge (in-place edit).

        This is a *statement-only* edit: the edge's endpoints are unchanged,
        so no dominator, loop, or reachability recomputation happens at all.
        """
        new_edge = CfgEdge(edge.src, stmt, edge.dst)
        if new_edge == edge:
            self._positions_of(edge)  # raises when the edge is unknown
            return edge
        self._replace_edge_object(edge, new_edge)
        self._record_stmt_patch(edge, new_edge)
        return new_edge

    def delete_edge_statement(self, edge: CfgEdge) -> CfgEdge:
        """Delete a statement by replacing it with ``skip`` (paper, Lemma B.2)."""
        return self.replace_edge_statement(edge, A.SkipStmt())

    def _insert_after(self, loc: Loc, fill: Callable[[Loc], None]) -> Loc:
        """Move ``loc``'s out-edges to a fresh continuation location, let
        ``fill`` link ``loc`` to it through fresh locations, and hand the
        insertion to the structure; returns the continuation.

        When ``loc`` is a loop head, only the edges that stay inside its
        natural loop are moved: the loop-exit edge keeps originating at the
        head, preserving the invariant — relied upon by the DAIG encoding of
        back edges (Fig. 7) — that control leaves a loop only through its
        head.  The inserted code therefore runs on every iteration, which is
        what "inserting just inside the loop" means.
        """
        self._require_insertion_point(loc)
        analysis = self._analyze()
        moved = list(self._out[loc])
        loop = analysis.natural_loops.get(loc)
        if loop is not None:
            moved = [edge for edge in moved if edge.dst in loop]
        first = self._next_loc
        cont = self.fresh_loc()
        for edge in moved:
            self._replace_edge_object(edge, CfgEdge(cont, edge.stmt, edge.dst))
        fill(cont)
        full, sig_suspects, head_suspects = analysis.refresh(
            loc, range(first, self._next_loc), {edge.dst for edge in moved})
        for listener in self._listeners:
            if full:
                listener.note_full()
            else:
                listener.note_region(sig_suspects, head_suspects)
        return cont

    def insert_statement_after(self, loc: Loc, stmt: A.AtomicStmt) -> Loc:
        """Insert a single atomic statement immediately after ``loc``.

        Returns the newly created continuation location.
        """
        return self._insert_after(loc, lambda cont: self._link(loc, stmt, cont))

    def insert_conditional_after(
        self,
        loc: Loc,
        cond: A.Expr,
        then_stmts: Sequence[A.AtomicStmt],
        else_stmts: Sequence[A.AtomicStmt] = (),
    ) -> Loc:
        """Insert ``if (cond) { then } else { else }`` after ``loc``."""
        def fill(cont: Loc) -> None:
            self._build_branch(loc, A.AssumeStmt(cond), then_stmts, cont)
            self._build_branch(loc, A.AssumeStmt(A.negate(cond)), else_stmts, cont)
        return self._insert_after(loc, fill)

    def insert_loop_after(
        self,
        loc: Loc,
        cond: A.Expr,
        body_stmts: Sequence[A.AtomicStmt],
    ) -> Loc:
        """Insert ``while (cond) { body }`` after ``loc``.

        A fresh loop head is always created so that no location ever becomes
        the head of two distinct loops (keeping one back edge per head, as the
        paper assumes for reducible CFGs).
        """
        def fill(cont: Loc) -> None:
            head = self.fresh_loc()
            self._link(loc, A.SkipStmt(), head)
            self._link(head, A.AssumeStmt(A.negate(cond)), cont)
            # Loop body: head --assume(cond)--> ... --last--> head (back edge).
            body = list(body_stmts) if body_stmts else [A.SkipStmt()]
            current = head
            current_stmt: A.AtomicStmt = A.AssumeStmt(cond)
            for stmt in body:
                nxt = self.fresh_loc()
                self._link(current, current_stmt, nxt)
                current, current_stmt = nxt, stmt
            self._link(current, current_stmt, head)
        return self._insert_after(loc, fill)

    def _build_branch(
        self,
        src: Loc,
        first: A.AtomicStmt,
        stmts: Sequence[A.AtomicStmt],
        join: Loc,
    ) -> None:
        current = src
        current_stmt = first
        for stmt in stmts:
            nxt = self.fresh_loc()
            self._link(current, current_stmt, nxt)
            current, current_stmt = nxt, stmt
        self._link(current, current_stmt, join)

    def _require_insertion_point(self, loc: Loc) -> None:
        if loc not in self.locations:
            raise ValueError("unknown location %r" % (loc,))
        if loc == self.exit:
            raise ValueError("cannot insert code after the exit location")

    def insertion_points(self) -> List[Loc]:
        """Locations where the edit workload may insert code."""
        reachable = self.reachable_locations()
        return sorted(loc for loc in reachable if loc != self.exit)

    # -- misc -----------------------------------------------------------------

    def pretty(self) -> str:
        """A readable multi-line rendering of the graph."""
        lines = ["cfg %s(%s)  entry=%d exit=%d" % (
            self.name, ", ".join(self.params), self.entry, self.exit)]
        for edge in sorted(self.edges, key=lambda e: (e.src, e.dst, str(e.stmt))):
            lines.append("  %s" % (edge,))
        return "\n".join(lines)

    def __str__(self) -> str:
        return "Cfg(%s, %d locations, %d edges)" % (
            self.name, len(self.locations), len(self.edges))


# ---------------------------------------------------------------------------
# Lowering structured ASTs to CFGs
# ---------------------------------------------------------------------------


class CfgBuilder:
    """Lowers a structured :class:`~repro.lang.ast.Procedure` into a CFG."""

    def __init__(self, procedure: A.Procedure) -> None:
        self.procedure = procedure
        self.cfg = Cfg(procedure.name, procedure.params)

    def build(self) -> Cfg:
        """Build and return the CFG for the procedure."""
        end = self._lower_block(self.procedure.body, self.cfg.entry)
        if end is not None:
            # Implicit `return null;` when control falls off the end.
            self.cfg.add_edge(
                end,
                A.AssignStmt(A.RETURN_VARIABLE, A.NullLit()),
                self.cfg.exit,
            )
        self._prune_unreachable()
        return self.cfg

    # The lowering functions thread the "current location" through the block;
    # a return value of None means control cannot fall through (a `return`
    # was emitted on every path).

    def _lower_block(
        self, stmts: Sequence[A.Stmt], current: Loc
    ) -> Optional[Loc]:
        for index, stmt in enumerate(stmts):
            nxt = self._lower_stmt(stmt, current)
            if nxt is None:
                return None
            current = nxt
        return current

    def _lower_stmt(self, stmt: A.Stmt, current: Loc) -> Optional[Loc]:
        if isinstance(stmt, A.Assign):
            return self._chain(current, A.AssignStmt(stmt.target, stmt.value))
        if isinstance(stmt, A.ArrayAssign):
            return self._chain(
                current, A.ArrayWriteStmt(stmt.array, stmt.index, stmt.value))
        if isinstance(stmt, A.FieldAssign):
            return self._chain(
                current, A.FieldWriteStmt(stmt.base, stmt.fieldname, stmt.value))
        if isinstance(stmt, A.Print):
            return self._chain(current, A.PrintStmt(stmt.value))
        if isinstance(stmt, A.Skip):
            return self._chain(current, A.SkipStmt())
        if isinstance(stmt, A.Call):
            return self._chain(
                current, A.CallStmt(stmt.target, stmt.function, stmt.args))
        if isinstance(stmt, A.Return):
            value: A.Expr = stmt.value if stmt.value is not None else A.NullLit()
            self.cfg.add_edge(
                current, A.AssignStmt(A.RETURN_VARIABLE, value), self.cfg.exit)
            return None
        if isinstance(stmt, A.If):
            return self._lower_if(stmt, current)
        if isinstance(stmt, A.While):
            return self._lower_while(stmt, current)
        raise TypeError("cannot lower statement of type %s" % type(stmt).__name__)

    def _chain(self, current: Loc, stmt: A.AtomicStmt) -> Loc:
        nxt = self.cfg.fresh_loc()
        self.cfg.add_edge(current, stmt, nxt)
        return nxt

    def _lower_if(self, stmt: A.If, current: Loc) -> Optional[Loc]:
        join = self.cfg.fresh_loc()
        then_entry = self._chain(current, A.AssumeStmt(stmt.cond))
        then_end = self._lower_block(stmt.then_body, then_entry)
        if then_end is not None:
            self.cfg.add_edge(then_end, A.SkipStmt(), join)
        else_entry = self._chain(current, A.AssumeStmt(A.negate(stmt.cond)))
        else_end = self._lower_block(stmt.else_body, else_entry)
        if else_end is not None:
            self.cfg.add_edge(else_end, A.SkipStmt(), join)
        if then_end is None and else_end is None:
            return None
        return join

    def _lower_while(self, stmt: A.While, current: Loc) -> Loc:
        head = self._chain(current, A.SkipStmt())
        after = self.cfg.fresh_loc()
        self.cfg.add_edge(head, A.AssumeStmt(A.negate(stmt.cond)), after)
        body_entry = self._chain(head, A.AssumeStmt(stmt.cond))
        body_end = self._lower_block(stmt.body, body_entry)
        if body_end is not None:
            self.cfg.add_edge(body_end, A.SkipStmt(), head)
        return after

    def _prune_unreachable(self) -> None:
        reachable = set(self.cfg.reachable_locations())
        reachable.add(self.cfg.exit)
        edges = [
            e for e in self.cfg.edges
            if e.src in reachable and e.dst in reachable
        ]
        locations = {loc for loc in self.cfg.locations if loc in reachable}
        locations.add(self.cfg.entry)
        locations.add(self.cfg.exit)
        self.cfg._reset_edges(edges, locations)


def build_cfg(procedure: A.Procedure) -> Cfg:
    """Lower ``procedure`` into a control-flow graph."""
    return CfgBuilder(procedure).build()


def build_program_cfgs(program: A.Program) -> Dict[str, Cfg]:
    """Lower every procedure in ``program`` into its own CFG."""
    return {proc.name: build_cfg(proc) for proc in program.procedures}
