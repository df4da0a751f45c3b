"""The live CFG structure, updated exactly on insertions.

The DAIG encoding (Section 4 / Appendix A) reads a CFG's reachability,
dominators, forward/back edge partition, natural loops, loop nesting, join
points and per-location ``fwd-edges-to`` index.  :class:`CfgStructure`
holds all of them for one CFG and keeps them current as the CFG is edited:

* **Statement-only edits** (relabelling an existing edge in place) do
  *zero* dominator/loop work: the only derived fact that can change is the
  ``fwd-edges-to`` index of the edge's destination (the pre-join indices
  sort on statement text), which is re-sorted in O(in-degree).
* **Insertions** are the only structural edits the engine makes.
  ``Cfg.insert_*_after(loc)`` moves ``loc``'s out-edges to a fresh
  continuation ``cont`` (only the in-loop edges when ``loc`` is a loop
  head) and fills ``loc → cont`` with a single-entry fragment of new
  locations.  :meth:`CfgStructure.refresh` applies exactly that change.
* **Raw edge surgery** (``Cfg.add_edge`` / ``remove_edge`` on a live CFG,
  or the wholesale replacement ``Cfg._reset_edges``), and an insertion
  into a graph that is irreducible or has a loop-exit violation, take a
  from-scratch rebuild, and the counters say so.

Why the insertion update is exact.  The fragment is entered only from
``loc`` and left only through ``cont``, so every entry path that used a
moved edge ``loc → d`` now runs ``loc → … → cont → d`` and no other path
changes.  Hence the new locations take ``loc``'s reachability; their
dominators are ``dom(loc)`` plus the fragment's own, from a local pass
over its few locations, which also finds the fragment's back edge and
natural loop; moved edges keep their forward or back class; old
locations keep their loop membership, and every loop that contains
``loc`` gains the whole fragment.  Loop nesting keeps its order, because
the loops of a reducible graph are nested or disjoint and all loops that
contain ``loc`` grow by the same locations.  The one fact of old
locations that changes is dominance: a location all of whose entry paths
use a moved edge gains ``dom(cont) − dom(loc)``.  These are the
locations ``loc`` strictly dominates (the loop body, when ``loc`` is a
loop head: its exit edges stay put), found by a forward walk from the
moved edges' destinations through locations ``loc`` dominates.  That
union, one set union per location and no fixpoint, is the one
per-insertion term that grows with the code downstream of ``loc``: an
insertion right after the entry adds to every dominator set.  (An
immediate-dominator tree would remove it.)

Listeners (the DAIG engine's live :class:`~repro.daig.splice.StructureSnapshot`)
receive, per insertion, the locations whose encoding signature may have
changed (the fragment and the moved edges' destinations) and the loop
heads whose loop signature may have changed (the fragment's own and every
loop that contains ``loc``, which includes the head of any moved back
edge); a rebuild tells them to resynchronize from scratch.
"""

from __future__ import annotations

import bisect
import time
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cfg import Cfg, CfgEdge

Loc = int
EdgePair = Tuple[Loc, Loc]


class StructureListener:
    """A mailbox accumulating refresh regions between consumer syncs.

    The DAIG engine registers one of these on its CFG; each analysis
    refresh (or statement patch) deposits the affected region, and the
    engine drains the union when it synchronizes its structure snapshot.
    """

    def __init__(self) -> None:
        self.full = False
        self.sig_suspects: Set[Loc] = set()
        self.head_suspects: Set[Loc] = set()

    def note_full(self) -> None:
        self.full = True
        self.sig_suspects.clear()
        self.head_suspects.clear()

    def note_region(self, sig_suspects: Set[Loc], head_suspects: Set[Loc]) -> None:
        if self.full:
            return
        self.sig_suspects |= sig_suspects
        self.head_suspects |= head_suspects

    def drain(self) -> Tuple[bool, Set[Loc], Set[Loc]]:
        out = (self.full, self.sig_suspects, self.head_suspects)
        self.full = False
        self.sig_suspects = set()
        self.head_suspects = set()
        return out


class CfgStructure:
    """Live derived structural facts about a CFG, updated per insertion.

    Exposes ``reachable``, ``dominators``, loop structure, ``fwd_edges_to``
    and ``join_points``, plus O(1) reducibility and loop-exit validity,
    flat forward/back edge lists (derived lazily from the per-edge
    classification), and work counters for the benchmark layer.
    """

    def __init__(self, cfg: "Cfg") -> None:
        # The CFG owns its structure, so the structure refers back weakly
        # and a dropped CFG is freed by reference counting.
        self.cfg = weakref.proxy(cfg)
        # Work counters and time live on the CFG so they survive the
        # rebuild after raw edge surgery (a new object) and report
        # cumulatively per program, not per cache.
        self.stats = cfg._structure_stats
        self.reachable: Set[Loc] = set()
        self.dominators: Dict[Loc, Set[Loc]] = {}
        self.back_pairs: Set[EdgePair] = set()
        self.natural_loops: Dict[Loc, Set[Loc]] = {}
        self.loop_heads: List[Loc] = []
        self.heads_by_loc: Dict[Loc, Set[Loc]] = {}
        self.containing: Dict[Loc, Tuple[Loc, ...]] = {}
        self.fwd_edges_to: Dict[Loc, List[Tuple[int, "CfgEdge"]]] = {}
        self.join_points: Set[Loc] = set()
        self.bad_loop_exits: Dict["CfgEdge", Loc] = {}
        self.has_forward_cycle = False
        self._rpo: Optional[List[Loc]] = None
        self._flat_back: Optional[List["CfgEdge"]] = None
        self._flat_forward: Optional[List["CfgEdge"]] = None
        started = time.perf_counter()
        self._rebuild()
        cfg._structure_seconds += time.perf_counter() - started

    # -- queries the CFG delegates to ----------------------------------------

    def is_back_edge(self, edge: "CfgEdge") -> bool:
        return (edge.src, edge.dst) in self.back_pairs

    def back_edges_to(self, loc: Loc) -> List["CfgEdge"]:
        return [e for e in self.cfg._in.get(loc, ())
                if (e.src, e.dst) in self.back_pairs and e.src in self.reachable]

    def back_edges(self) -> List["CfgEdge"]:
        if self._flat_back is None:
            self._partition_flat()
        return self._flat_back

    def forward_edges(self) -> List["CfgEdge"]:
        if self._flat_forward is None:
            self._partition_flat()
        return self._flat_forward

    def _partition_flat(self) -> None:
        back: List["CfgEdge"] = []
        forward: List["CfgEdge"] = []
        for edge in self.cfg.edges:
            if edge.src not in self.reachable:
                continue
            if (edge.src, edge.dst) in self.back_pairs:
                back.append(edge)
            else:
                forward.append(edge)
        self._flat_back, self._flat_forward = back, forward

    def reverse_postorder(self) -> List[Loc]:
        """Reverse postorder over forward edges (recomputed lazily).

        Maintaining a global order per insertion would reintroduce an
        O(program) term per edit; instead the order is derived on demand
        (batch consumers that need it pay O(program) for an O(program)
        result anyway).
        """
        if self._rpo is None:
            self._rpo = self._dfs_order(self.cfg.entry)
        return self._rpo

    # -- full rebuild ---------------------------------------------------------

    def _rebuild(self) -> None:
        cfg = self.cfg
        self.stats["structure_full_builds"] += 1
        self._rpo = self._dfs_order(cfg.entry)
        self.reachable = set(self._rpo)
        self.dominators = self._full_dominators(self._rpo)
        self.back_pairs = {
            (e.src, e.dst) for e in cfg.edges
            if e.src in self.reachable
            and e.dst in self.dominators.get(e.src, ())
        }
        self._flat_back = self._flat_forward = None
        heads = sorted({dst for (_src, dst) in self.back_pairs})
        self.natural_loops = {h: self._natural_loop(h) for h in heads}
        self.loop_heads = heads
        self.heads_by_loc = {}
        for head, body in self.natural_loops.items():
            for loc in body:
                self.heads_by_loc.setdefault(loc, set()).add(head)
        self.containing = {
            loc: self._containing_of(loc) for loc in self.reachable
        }
        self.fwd_edges_to = {}
        for loc in self.reachable:
            self._refresh_fwd_edges_to(loc)
        self.join_points = {
            loc for loc, edges in self.fwd_edges_to.items() if len(edges) >= 2
        }
        self.bad_loop_exits = {}
        for loc in self.reachable:
            self._refresh_bad_exits(loc)
        self.has_forward_cycle = self._has_forward_cycle()

    # -- exact insertion update ----------------------------------------------

    def refresh(self, loc: Loc, fragment: Sequence[Loc],
                moved: Set[Loc]) -> Tuple[bool, Set[Loc], Set[Loc]]:
        """Apply one insertion after ``loc``; returns
        ``(full, sig_suspects, head_suspects)``.

        ``fragment`` lists the insertion's new locations, continuation
        first; ``moved`` holds the destinations of the edges that moved
        from ``loc`` to the continuation.  ``sig_suspects`` covers the
        locations whose DAIG encoding signature may have changed and
        ``head_suspects`` the loop heads whose loop signature may have
        changed.  When ``full`` is True the analysis was rebuilt from
        scratch and the suspect sets are empty (consumers must
        resynchronize from scratch).
        """
        started = time.perf_counter()
        try:
            if self.has_forward_cycle or self.bad_loop_exits:
                self._rebuild()
                return True, set(), set()
            sig_suspects, head_suspects = self._insert(loc, fragment, moved)
            return False, sig_suspects, head_suspects
        finally:
            self.cfg._structure_seconds += time.perf_counter() - started

    def _insert(self, loc: Loc, fragment: Sequence[Loc],
                moved: Set[Loc]) -> Tuple[Set[Loc], Set[Loc]]:
        cfg = self.cfg
        self.stats["structure_refreshes"] += 1
        self.stats["structure_locs_reanalyzed"] += len(fragment)
        self._rpo = None
        self._flat_back = self._flat_forward = None
        sig_suspects = set(fragment) | moved
        if loc not in self.reachable:
            return sig_suspects, set()  # nothing reachable changed
        cont = fragment[0]
        new = set(fragment)
        self.reachable |= new

        # The fragment's dominators: dom(loc) plus a local pass rooted at
        # loc (its only way in).  ⊤ is represented by absence.
        local: Dict[Loc, Set[Loc]] = {loc: {loc}}
        order = self._dfs_order(loc, within=new)[1:]
        changed = True
        while changed:
            changed = False
            for node in order:
                doms = set.intersection(*[
                    local[e.src] for e in cfg._in[node] if e.src in local])
                doms.add(node)
                if local.get(node) != doms:
                    local[node] = doms
                    changed = True
        base = self.dominators[loc]
        for node in fragment:
            self.dominators[node] = base | local[node]

        # Moved edges keep their class; the fragment classifies its own.
        for dst in moved:
            if (loc, dst) in self.back_pairs:
                self.back_pairs.discard((loc, dst))
                self.back_pairs.add((cont, dst))
        new_heads: Set[Loc] = set()
        for node in fragment:
            for edge in cfg._out[node]:
                if edge.dst in new and edge.dst in self.dominators[node]:
                    self.back_pairs.add((node, edge.dst))
                    new_heads.add(edge.dst)

        # Locations whose every entry path uses a moved edge gain the
        # fragment's dominators of cont.
        gained = self.dominators[cont] - base
        for node in self._strictly_dominated(loc, moved):
            self.dominators[node] |= gained

        # Loops: every loop containing loc gains the fragment; the
        # fragment's own loop is local.
        outer = self.containing[loc]
        for head in outer:
            self.natural_loops[head] |= new
        if outer:
            for node in fragment:
                self.heads_by_loc[node] = set(outer)
        for head in sorted(new_heads):
            body = self._natural_loop(head)
            self.natural_loops[head] = body
            bisect.insort(self.loop_heads, head)
            for node in body:
                self.heads_by_loc.setdefault(node, set()).add(head)
        for node in fragment:
            self.containing[node] = self._containing_of(node)

        # Forward-edge indices: the fragment's, and the re-sourced ones of
        # the moved edges' destinations.  (The fragment leaves its loop only
        # through its head and the moved edges keep their loops, so the
        # graph stays reducible and free of loop-exit violations.)
        for node in fragment:
            self._refresh_fwd_edges_to(node)
            if len(self.fwd_edges_to.get(node, ())) >= 2:
                self.join_points.add(node)
        for dst in moved:
            self._refresh_fwd_edges_to(dst)
        return sig_suspects, set(outer) | new_heads

    def _strictly_dominated(self, loc: Loc, moved: Set[Loc]) -> Set[Loc]:
        """The locations ``loc`` strictly dominates that its moved edges
        lead to: all of them, or the loop body when ``loc`` is a loop head
        (a forward walk that never passes ``loc`` again)."""
        seen: Set[Loc] = set()
        stack = list(moved)
        while stack:
            node = stack.pop()
            if node in seen or node == loc:
                continue
            if loc not in self.dominators.get(node, ()):
                continue
            seen.add(node)
            stack.extend(edge.dst for edge in self.cfg._out[node])
        return seen

    # -- statement-only patches ----------------------------------------------

    def patch_stmt(self, old: "CfgEdge", new: "CfgEdge") -> None:
        """Relabel an edge in place: zero dominator/loop recomputation.

        Only the destination's forward-edge index (which sorts on statement
        text) and edge-keyed auxiliary entries are touched.
        """
        self._flat_back = self._flat_forward = None
        if (new.src, new.dst) not in self.back_pairs and new.dst in self.reachable:
            self._refresh_fwd_edges_to(new.dst)
        if old in self.bad_loop_exits:
            self.bad_loop_exits[new] = self.bad_loop_exits.pop(old)

    # -- helpers --------------------------------------------------------------

    def _ordered_successors(self, loc: Loc) -> List[Loc]:
        return sorted({e.dst for e in self.cfg._out.get(loc, ())})

    def _dfs_order(self, start: Loc,
                   within: Optional[Set[Loc]] = None) -> List[Loc]:
        """Reverse postorder of a DFS from ``start`` (over successors in
        ``within``, when given)."""
        visited: Set[Loc] = {start}
        order: List[Loc] = []
        stack: List[Tuple[Loc, List[Loc]]] = [(start, self._ordered_successors(start))]
        while stack:
            node, succs = stack[-1]
            advanced = False
            while succs:
                nxt = succs.pop(0)
                if nxt not in visited and (within is None or nxt in within):
                    visited.add(nxt)
                    stack.append((nxt, self._ordered_successors(nxt)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def _full_dominators(self, order: List[Loc]) -> Dict[Loc, Set[Loc]]:
        cfg = self.cfg
        reachable = self.reachable
        all_locs = set(reachable)
        dom: Dict[Loc, Set[Loc]] = {loc: set(all_locs) for loc in reachable}
        dom[cfg.entry] = {cfg.entry}
        changed = True
        while changed:
            changed = False
            for loc in order:
                if loc == cfg.entry:
                    continue
                preds = [e.src for e in cfg._in.get(loc, ())
                         if e.src in reachable]
                if not preds:
                    new = {loc}
                else:
                    new = set(all_locs)
                    for pred in preds:
                        new &= dom[pred]
                    new.add(loc)
                if new != dom[loc]:
                    dom[loc] = new
                    changed = True
        return dom

    def _natural_loop(self, head: Loc) -> Set[Loc]:
        cfg = self.cfg
        loop: Set[Loc] = {head}
        stack: List[Loc] = []
        for edge in cfg._in.get(head, ()):
            if ((edge.src, head) in self.back_pairs
                    and edge.src in self.reachable and edge.src not in loop):
                loop.add(edge.src)
                stack.append(edge.src)
        while stack:
            loc = stack.pop()
            for edge in cfg._in.get(loc, ()):
                pred = edge.src
                if pred not in loop and pred in self.reachable:
                    loop.add(pred)
                    stack.append(pred)
        return loop

    def _containing_of(self, loc: Loc) -> Tuple[Loc, ...]:
        heads = sorted(
            self.heads_by_loc.get(loc, ()),
            key=lambda h: (-len(self.natural_loops[h]), h))
        return tuple(heads)

    def _refresh_fwd_edges_to(self, loc: Loc) -> None:
        incoming = [
            e for e in self.cfg._in.get(loc, ())
            if e.src in self.reachable and (e.src, e.dst) not in self.back_pairs
        ]
        if not incoming or loc not in self.reachable:
            self.fwd_edges_to.pop(loc, None)
            return
        incoming.sort(key=lambda e: (e.src, str(e.stmt)))
        self.fwd_edges_to[loc] = [(i + 1, e) for i, e in enumerate(incoming)]

    def _refresh_bad_exits(self, loc: Loc) -> None:
        """Recheck the loop-exit rule for ``loc``'s outgoing forward edges."""
        out = self.cfg._out.get(loc, ())
        for edge in out:
            self.bad_loop_exits.pop(edge, None)
        if loc not in self.reachable:
            return
        heads = self.containing.get(loc, ())
        if not heads:
            return
        for edge in out:
            if (edge.src, edge.dst) in self.back_pairs:
                continue
            for head in heads:
                if edge.dst not in self.natural_loops[head] and edge.src != head:
                    self.bad_loop_exits[edge] = head
                    break

    def _has_forward_cycle(self) -> bool:
        """DFS cycle check over the reachable forward edges."""
        succ: Dict[Loc, List[Loc]] = {}
        for loc in self.reachable:
            succ[loc] = [
                e.dst for e in self.cfg._out.get(loc, ())
                if (e.src, e.dst) not in self.back_pairs
            ]
        state: Dict[Loc, int] = {}
        for start in self.reachable:
            if state.get(start, 0) != 0:
                continue
            stack: List[Tuple[Loc, List[Loc]]] = [(start, list(succ[start]))]
            state[start] = 1
            while stack:
                node, succs = stack[-1]
                if succs:
                    nxt = succs.pop(0)
                    if state.get(nxt, 0) == 1:
                        return True
                    if state.get(nxt, 0) == 0:
                        state[nxt] = 1
                        stack.append((nxt, list(succ[nxt])))
                else:
                    state[node] = 2
                    stack.pop()
        return False
