"""Static call graphs for the statically-dispatched language.

Call targets are syntactic (no virtual dispatch or higher-order functions,
as in the paper's prototype).  This module builds the call graph from the
CFGs and maintains it *incrementally*: :meth:`CallGraph.update_procedure`
re-derives one procedure's edges after an edit, patching both the forward
edge set and the reverse-edge index, so :meth:`callers` is a dictionary
lookup instead of an O(all-procedures) scan.

The paper's implementation restricts itself to non-recursive programs;
the engine now analyzes (mutually) recursive programs through a summary
fixpoint over call-graph SCCs, so :meth:`check_nonrecursive` is an *opt-in*
validation rather than a construction-time requirement.  SCC membership
(:meth:`recursive_procedures`, :meth:`scc_of`) is computed lazily and
invalidated by edits.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..lang import ast as A
from ..lang.cfg import Cfg


class RecursionError_(Exception):
    """Raised by the opt-in validation when the call graph has a cycle."""


class CallGraph:
    """Caller → callee edges derived syntactically from call statements."""

    def __init__(self, cfgs: Dict[str, Cfg]) -> None:
        self.cfgs = cfgs
        self.edges: Dict[str, Set[str]] = {}
        #: Reverse-edge index: callee → callers.  Kept in sync by
        #: :meth:`update_procedure` so ``callers()`` never scans the program.
        self.rev_edges: Dict[str, Set[str]] = {name: set() for name in cfgs}
        self.call_sites: Dict[str, List[Tuple[int, A.CallStmt]]] = {}
        self._sccs: Optional[List[FrozenSet[str]]] = None
        self._scc_index: Dict[str, FrozenSet[str]] = {}
        for name, cfg in cfgs.items():
            self._scan_procedure(name, cfg)

    def _scan_procedure(self, name: str, cfg: Cfg) -> None:
        """(Re-)derive one procedure's call edges and call sites."""
        for callee in self.edges.get(name, ()):
            self.rev_edges.get(callee, set()).discard(name)
        self.edges[name] = set()
        self.call_sites[name] = []
        for edge in cfg.edges:
            if isinstance(edge.stmt, A.CallStmt):
                self.call_sites[name].append((edge.src, edge.stmt))
                if edge.stmt.function in self.cfgs:
                    self.edges[name].add(edge.stmt.function)
                    self.rev_edges.setdefault(edge.stmt.function, set()).add(name)

    def update_procedure(self, name: str, cfg: Cfg) -> None:
        """Recompute one procedure's call edges after an edit.

        Rebuilding the whole call graph is O(total program); a structural
        edit touches one procedure, so only its edge set, call sites, and
        reverse-index entries are re-derived (O(procedure size)).  SCC
        membership is invalidated only when the procedure's *call edge set*
        actually changed — statement edits that leave the calls alone (the
        common case) keep the cached condensation, so they never pay a
        Tarjan pass.
        """
        self.cfgs[name] = cfg
        self.rev_edges.setdefault(name, set())
        before = self.edges.get(name, set())
        self._scan_procedure(name, cfg)
        if self.edges[name] != before:
            self._sccs = None  # membership may have changed; recompute lazily

    def callees(self, name: str) -> Set[str]:
        return set(self.edges.get(name, set()))

    def callers(self, name: str) -> Set[str]:
        """Procedures with a call site targeting ``name`` (O(1) via the
        reverse-edge index, not a scan over every procedure)."""
        return set(self.rev_edges.get(name, set()))

    def transitive_callers(self, name: str) -> Set[str]:
        """Procedures from which ``name`` is reachable (excluding ``name``
        itself unless it participates in a cycle).  O(dependent subgraph)."""
        seen: Set[str] = set()
        frontier = list(self.rev_edges.get(name, set()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.rev_edges.get(current, set()))
        return seen

    def reachable_from(self, entry: str) -> Set[str]:
        """Procedures transitively reachable from ``entry`` (including it)."""
        seen: Set[str] = set()
        frontier = [entry]
        while frontier:
            current = frontier.pop()
            if current in seen or current not in self.cfgs:
                continue
            seen.add(current)
            frontier.extend(self.edges.get(current, set()))
        return seen

    # -- strongly connected components -------------------------------------------

    def sccs(self) -> List[FrozenSet[str]]:
        """Strongly connected components, callees-before-callers.

        Iterative Tarjan; the condensation order returned has every
        component after all components it calls into, which is the
        evaluation order bottom-up summary computations want.
        """
        if self._sccs is not None:
            return self._sccs
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[FrozenSet[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(self.edges.get(root, set()))))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index:
                        index[child] = lowlink[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append(
                            (child, iter(sorted(self.edges.get(child, set())))))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: Set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(frozenset(component))

        for name in sorted(self.cfgs):
            if name not in index:
                strongconnect(name)
        self._sccs = components
        self._scc_index = {member: component
                           for component in components for member in component}
        return components

    def scc_of(self, name: str) -> FrozenSet[str]:
        """The strongly connected component containing ``name``."""
        self.sccs()
        return self._scc_index.get(name, frozenset({name}))

    def is_recursive(self, name: str) -> bool:
        """Whether ``name`` participates in a call cycle (including a
        direct self-call)."""
        component = self.scc_of(name)
        return len(component) > 1 or name in self.edges.get(name, set())

    def recursive_procedures(self) -> Set[str]:
        """All procedures participating in some call cycle."""
        return {name for name in self.cfgs if self.is_recursive(name)}

    def check_nonrecursive(self) -> None:
        """Opt-in validation: raise :class:`RecursionError_` on any cycle.

        The engine analyzes recursive programs via the SCC summary fixpoint;
        clients that want the paper's original restriction (e.g. to
        guarantee no widening on summaries) call this explicitly.
        """
        for component in self.sccs():
            members = sorted(component)
            if len(component) > 1:
                raise RecursionError_(
                    "recursive call cycle: %s" % (" -> ".join(members),))
            name = members[0]
            if name in self.edges.get(name, set()):
                raise RecursionError_("recursive call cycle: %s -> %s"
                                      % (name, name))

    def condensation_waves(self) -> List[List[FrozenSet[str]]]:
        """Antichains of the SCC condensation, callees-first.

        Wave ``i`` holds every component whose longest call chain down to a
        leaf component has length ``i``: all components in one wave are
        pairwise independent, so their summary computations can run
        concurrently once every earlier wave has finished.  This is the
        schedule the parallel coordinator dispatches.
        """
        components = self.sccs()
        component_of = {member: component
                        for component in components for member in component}
        depth: Dict[FrozenSet[str], int] = {}
        # ``sccs()`` is callees-before-callers, so each component's callee
        # components already have a depth when it is reached.
        for component in components:
            best = 0
            for member in component:
                for callee in self.edges.get(member, set()):
                    target = component_of.get(callee)
                    if target is None or target is component:
                        continue
                    best = max(best, depth[target] + 1)
            depth[component] = best
        waves: List[List[FrozenSet[str]]] = []
        for component in components:
            level = depth[component]
            while len(waves) <= level:
                waves.append([])
            waves[level].append(component)
        for wave in waves:
            wave.sort(key=lambda component: sorted(component))
        return waves

    def topological_order(self) -> List[str]:
        """Callees-before-callers order over the SCC condensation.

        Members of one (recursive) component appear consecutively, in
        name-sorted order; for non-recursive programs this is exactly the
        classical topological order.
        """
        order: List[str] = []
        for component in self.sccs():
            order.extend(sorted(component))
        return order
