"""The live CFG structure, updated exactly on insertions.

The DAIG encoding (Section 4 / Appendix A) reads a CFG's reachability,
dominators, forward/back edge partition, natural loops, loop nesting, join
points and per-location ``fwd-edges-to`` index.  :class:`CfgStructure`
holds all of them for one CFG and keeps them current as the CFG is edited:

* **The full build** walks the graph once from the entry.  Cooper, Harvey
  and Kennedy's iteration ("A Simple, Fast Dominance Algorithm", 2001)
  over that walk's reverse postorder gives the immediate-dominator tree
  ``idom``, and the walk's retreating edges (into a location no later in
  the order) give the back edges: those whose target dominates their
  source.  Any other retreating edge closes a cycle of forward edges, so
  the graph is irreducible (Hecht and Ullman, 1974).  No location keeps a
  dominator set; dominance is a walk up the tree.
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
changes.  Hence the new locations take ``loc``'s reachability, and their
immediate dominators come from the same iteration run over the fragment
alone, rooted at ``loc``, which also finds the fragment's back edge and
natural loop; moved edges keep their forward or back class; old
locations keep their loop membership, and every loop that contains
``loc`` gains the whole fragment.  Loop nesting keeps its order, because
the loops of a reducible graph are nested or disjoint and all loops that
contain ``loc`` grow by the same locations.  The one fact of old
locations that changes is dominance, and only for those all of whose
entry paths use a moved edge: the locations ``loc`` strictly dominates,
or its loop body when ``loc`` is a loop head (its exit edges stay put).
Each of them gains the fragment's dominators of ``cont``, which sit
between ``loc`` and it, so in the tree exactly the children of ``loc``
among them change parent, to ``cont``, and their subtrees move with
them.  The update costs O(fragment + children of ``loc``); no term grows
with the code downstream of ``loc``.

Listeners (one per built DAIG engine) receive, per insertion, the
locations whose DAIG encoding may have changed (the fragment and the
moved edges' destinations) and the loop heads whose loop encoding may
have changed (the fragment's own and every loop that contains ``loc``,
which includes the head of any moved back edge); a rebuild tells them to
resynchronize from scratch.
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
    engine drains the union when it splices its DAIG.
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

    Exposes ``reachable``, the immediate-dominator tree (``idom``, the
    entry its own parent, and ``dom_children``), loop structure,
    ``fwd_edges_to`` and ``join_points``, plus O(1) reducibility and
    loop-exit validity, flat forward/back edge lists (derived lazily from
    the per-edge classification), and work counters for the benchmark
    layer.
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
        self.idom: Dict[Loc, Loc] = {}
        self.dom_children: Dict[Loc, Set[Loc]] = {}
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

    def dominates(self, a: Loc, b: Loc) -> bool:
        """Whether ``a`` dominates ``b`` (never, when ``b`` is
        unreachable): a walk up the tree from ``b``."""
        return b in self.idom and _in_subtree(self.idom, a, b)

    def is_back_edge(self, edge: "CfgEdge") -> bool:
        return (edge.src, edge.dst) in self.back_pairs

    def back_edges_to(self, loc: Loc) -> List["CfgEdge"]:
        if loc not in self.natural_loops:
            return []
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
        self._rpo = order = self._dfs_order(cfg.entry)
        self.reachable = set(order)
        self.idom = idom = self._immediate_dominators(order)
        self.dom_children = {loc: set() for loc in order}
        for loc in order[1:]:
            self.dom_children[idom[loc]].add(loc)
        # A retreating edge of the walk is a back edge when its target
        # dominates its source, and otherwise closes a forward cycle.
        position = {loc: i for i, loc in enumerate(order)}
        self.back_pairs = set()
        self.has_forward_cycle = False
        for src in order:
            for edge in cfg._out[src]:
                if position[edge.dst] <= position[src]:
                    if _in_subtree(idom, edge.dst, src):
                        self.back_pairs.add((src, edge.dst))
                    else:
                        self.has_forward_cycle = True
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

        # The children of loc whose every entry path now runs through cont
        # (all of them, or the loop body's when loc is a loop head) move
        # under cont, their subtrees with them; the fragment's own tree
        # comes from a pass rooted at loc, its only way in.
        loop = self.natural_loops.get(loc)
        adopted = {node for node in self.dom_children[loc]
                   if loop is None or node in loop}
        self.dom_children[loc] -= adopted
        for node in adopted:
            self.idom[node] = cont
        for node in fragment:
            self.dom_children[node] = set()
        self.dom_children[cont] = adopted
        order = self._dfs_order(loc, within=new)
        local = self._immediate_dominators(order)
        for node in order[1:]:
            self.idom[node] = local[node]
            self.dom_children[local[node]].add(node)

        # Moved edges keep their class; the fragment classifies its own.
        for dst in moved:
            if (loc, dst) in self.back_pairs:
                self.back_pairs.discard((loc, dst))
                self.back_pairs.add((cont, dst))
        new_heads: Set[Loc] = set()
        for node in fragment:
            for edge in cfg._out[node]:
                if edge.dst in new and _in_subtree(local, edge.dst, node):
                    self.back_pairs.add((node, edge.dst))
                    new_heads.add(edge.dst)

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

    def _dfs_order(self, start: Loc,
                   within: Optional[Set[Loc]] = None) -> List[Loc]:
        """Reverse postorder of a DFS from ``start`` (over successors in
        ``within``, when given), visiting successors in location order."""
        out = self.cfg._out
        visited: Set[Loc] = {start}
        order: List[Loc] = []
        stack = [(start, iter(sorted({e.dst for e in out[start]})))]
        while stack:
            node, succs = stack[-1]
            for nxt in succs:
                if nxt not in visited and (within is None or nxt in within):
                    visited.add(nxt)
                    stack.append((nxt, iter(sorted({e.dst for e in out[nxt]}))))
                    break
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def _immediate_dominators(self, order: List[Loc]) -> Dict[Loc, Loc]:
        """Cooper, Harvey and Kennedy's iteration over ``order``, a reverse
        postorder from ``order[0]``; the root is its own parent, and a
        predecessor outside ``order`` is not a way in."""
        index = {loc: i for i, loc in enumerate(order)}
        idom = {order[0]: order[0]}
        preds = self.cfg._in
        changed = True
        while changed:
            changed = False
            for node in order[1:]:
                new: Optional[Loc] = None
                for edge in preds[node]:
                    pred = edge.src
                    if pred not in idom:
                        continue  # outside order, or not yet reached
                    if new is None:
                        new = pred
                        continue
                    # The nearest common ancestor: climb from whichever
                    # finger is later in the order.
                    while pred != new:
                        while index[pred] > index[new]:
                            pred = idom[pred]
                        while index[new] > index[pred]:
                            new = idom[new]
                if idom.get(node) != new:
                    idom[node] = new
                    changed = True
        return idom

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
        if len(incoming) > 1:  # a join point's pre-join indices
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


def _in_subtree(idom: Dict[Loc, Loc], a: Loc, b: Loc) -> bool:
    """Whether ``a`` is ``b`` or an ancestor of ``b`` in the tree ``idom``
    (``b`` in it; the root is its own parent)."""
    while b != a:
        parent = idom[b]
        if parent == b:
            return False
        b = parent
    return True
