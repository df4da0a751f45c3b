"""The DAIG data structure: reference cells and computation hyper-edges.

A DAIG ``D = ⟨R, C⟩`` (Fig. 6) is a set of uniquely-named reference cells
``R``, each holding a statement, an abstract state, or nothing (ε), plus a
set of computations ``C`` — labelled hyper-edges ``n ← f(n1, ..., nk)``
connecting the cells holding ``f``'s inputs to the cell receiving its
output.  The well-formedness conditions of Definition 4.1 (unique names,
unique destinations, acyclicity, well-typedness, and "empty cells have a
defining computation") are checked by :meth:`Daig.check_well_formed`, which
the property-based tests run after every query and edit (Lemma 6.1).

Beyond the paper's mathematical structure, this implementation maintains
two auxiliary indices that make incremental edits O(affected region)
instead of O(graph):

* ``dependents`` — the reverse-dependency index (src name → destinations of
  computations reading it), used by forward dirtying;
* ``iterated`` — cells grouped by the loop heads for which they carry a
  nonzero unrolling iteration (their name's ``heads``), used by loop
  roll-back (rule E-Loop) and by splicing to discard a loop's demanded
  unrollings in one sweep.

A third group of side tables supports change propagation with early
cutoff: when an edit dirties a cell, its prior value is retained as a
*shadow*; during re-demand, a recomputed cell whose new value is pointer
equal to its shadow proves that everything dirtied only through it is
unchanged, so those consumers are restored from their own shadows instead
of recomputed (:mod:`repro.daig.query`).  Shadows from different edits may
coexist, so each is validated by *epochs*: ``epoch`` counts dirtying
waves, ``shadow_caps[n]`` records the epoch at which ``n``'s shadow was
captured (the cell and its inputs were mutually consistent then), and
``stamps[n]`` records the epoch of the last pointer-*change* of ``n``'s
value.  A shadow may restore its cell only when every input's last change
predates the shadow's capture — then recomputation would provably
reproduce the shadow.  A shadow with no capture epoch (a re-encoded
cell's prior value) never restores its cell; it is only the baseline its
own recomputation is compared with.

:meth:`Daig.remove_region` removes a whole cell-and-computation subregion
(the counterpart of re-encoding one via
:meth:`repro.daig.build.DaigBuilder.encode_incoming`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .names import Name, TYPE_STATE, TYPE_STMT

#: Function symbols labelling computations (the ``f`` of Fig. 6).
TRANSFER = "transfer"  # ⟦·⟧♯
JOIN = "join"          # ⊔
WIDEN = "widen"        # ∇
FIX = "fix"            # the distinguished fixed-point marker

#: Sentinel distinguishing "no value" from any held value.
_ABSENT = object()


class Computation:
    """A computation edge ``dest ← func(srcs...)``."""

    __slots__ = ("dest", "func", "srcs")

    def __init__(self, dest: Name, func: str, srcs: Tuple[Name, ...]) -> None:
        self.dest = dest
        self.func = func
        self.srcs = srcs

    def __repr__(self) -> str:
        return "%s ← %s(%s)" % (self.dest, self.func,
                                ", ".join(str(s) for s in self.srcs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Computation):
            return NotImplemented
        return (self.dest == other.dest and self.func == other.func
                and self.srcs == other.srcs)

    def __hash__(self) -> int:
        return hash((self.dest, self.func, self.srcs))


class IllFormedDaigError(Exception):
    """Raised when a DAIG violates Definition 4.1."""


class Daig:
    """A demanded abstract interpretation graph.

    ``refs`` is the set of declared reference-cell names; ``values`` holds
    the contents of the non-empty cells; ``computations`` maps each
    destination name to its (unique) defining computation; ``dependents`` is
    the reverse index used for forward dirtying; ``iterated`` indexes cells
    by unrolled loop head, so splicing and roll-back touch only the
    affected region.
    """

    def __init__(self) -> None:
        self.refs: Set[Name] = set()
        self.values: Dict[Name, Any] = {}
        self.computations: Dict[Name, Computation] = {}
        self.dependents: Dict[Name, Set[Name]] = {}
        self.iterated: Dict[int, Set[Name]] = {}
        #: Prior values of dirtied cells (early cutoff, see module docstring).
        self.shadows: Dict[Name, Any] = {}
        #: Epoch at which each shadow was captured (none for a re-encoded
        #: cell's shadow, a cutoff baseline that never restores the cell).
        self.shadow_caps: Dict[Name, int] = {}
        #: Epoch of the last pointer-change of each cell's value (absent = 0:
        #: never changed since the initial encoding).
        self.stamps: Dict[Name, int] = {}
        #: The dirtying-wave counter (bumped by ``dirty_forward``).
        self.epoch: int = 0

    # -- construction ------------------------------------------------------------

    def add_ref(self, name: Name) -> None:
        if name in self.refs:
            return
        self.refs.add(name)
        for head in name.heads:
            self.iterated.setdefault(head, set()).add(name)

    def add_computation(self, dest: Name, func: str, srcs: Tuple[Name, ...]) -> None:
        existing = self.computations.get(dest)
        if existing is not None:
            if existing.func == func and existing.srcs == srcs:
                return
            raise IllFormedDaigError(
                "cell %s already has a defining computation" % (dest,))
        comp = Computation(dest, func, srcs)
        self.computations[dest] = comp
        self.add_ref(dest)
        for src in srcs:
            self.add_ref(src)
            self.dependents.setdefault(src, set()).add(dest)

    def hold(self, name: Name, value: Any) -> None:
        """Make ``name`` a source cell holding ``value`` (a statement cell
        labelled by its edge's statement); a no-op when it already holds
        that very object."""
        if self.values.get(name) is not value:
            self.add_ref(name)
            self.set_value(name, value)

    def replace_computation(self, dest: Name, func: str, srcs: Tuple[Name, ...]) -> None:
        """Replace the defining computation of ``dest`` (used by unroll/roll)."""
        self.remove_computation(dest)
        self.add_computation(dest, func, srcs)

    def remove_computation(self, dest: Name) -> None:
        comp = self.computations.pop(dest, None)
        if comp is None:
            return
        for src in comp.srcs:
            dependents = self.dependents.get(src)
            if dependents is not None:
                dependents.discard(dest)
                if not dependents:
                    del self.dependents[src]

    def remove_ref(self, name: Name) -> None:
        """Remove a reference cell, its value, and its defining computation."""
        self.remove_computation(name)
        self.refs.discard(name)
        self.values.pop(name, None)
        self.shadows.pop(name, None)
        self.shadow_caps.pop(name, None)
        self.stamps.pop(name, None)
        for head in name.heads:
            iterated = self.iterated.get(head)
            if iterated is not None:
                iterated.discard(name)
                if not iterated:
                    del self.iterated[head]
        # Dependents of this name keep their computations; callers removing a
        # region are responsible for removing those too (remove_region does).

    def remove_region(self, names: Iterable[Name]) -> int:
        """Remove a cell-and-computation subregion in one sweep.

        All computations are detached first so that the reverse-dependency
        index never points at a vanished destination, then the cells
        themselves are dropped.  Names not present are ignored, which lets
        splicing pass speculative regions.  Returns the number of cells
        actually removed.
        """
        region = [name for name in names if name in self.refs]
        for name in region:
            self.remove_computation(name)
        for name in region:
            self.remove_ref(name)
        return len(region)

    # -- cell access ---------------------------------------------------------------

    def has_value(self, name: Name) -> bool:
        return name in self.values

    def value(self, name: Name) -> Any:
        return self.values[name]

    def set_value(self, name: Name, value: Any) -> None:
        if name not in self.refs:
            raise KeyError("unknown reference cell %s" % (name,))
        # Stamp pointer-*changes* only: the last known value is the held one,
        # or the shadow while the cell is dirty.  Writing a different value
        # also retires the shadow — it is no longer a valid restore payload
        # or cutoff baseline for this cell.
        if name in self.values:
            prev = self.values[name]
        elif name in self.shadows:
            prev = self.shadows[name]
        else:
            prev = _ABSENT
        if prev is not value:
            self.stamps[name] = self.epoch
            if prev is not _ABSENT and name in self.shadows:
                del self.shadows[name]
                self.shadow_caps.pop(name, None)
        self.values[name] = value

    def clear_value(self, name: Name) -> None:
        """Empty a cell, retaining its value (if any) as an early-cutoff
        shadow captured at the current epoch: the cell and its inputs are
        mutually consistent at the moment of dirtying."""
        value = self.values.pop(name, _ABSENT)
        if value is not _ABSENT:
            self.shadows[name] = value
            self.shadow_caps[name] = self.epoch

    def defining(self, name: Name) -> Optional[Computation]:
        return self.computations.get(name)

    def dependents_of(self, name: Name) -> Set[Name]:
        return self.dependents.get(name, set())

    def iterated_cells(self, head: int, minimum: int = 1) -> List[Name]:
        """Cells belonging to iteration >= ``minimum`` of loop ``head``."""
        return [name for name in self.iterated.get(head, ())
                if name.mentions_head_iteration(head, minimum)]

    # -- structural queries ------------------------------------------------------------

    def forward_reachable(self, seeds: Iterable[Name]) -> Set[Name]:
        """All cells transitively depending on any seed (seeds excluded)."""
        reached: Set[Name] = set()
        frontier: List[Name] = list(seeds)
        while frontier:
            name = frontier.pop()
            for dependent in self.dependents_of(name):
                if dependent not in reached:
                    reached.add(dependent)
                    frontier.append(dependent)
        return reached

    def reaches(self, source: Name, target: Name) -> bool:
        """Name reachability ``source ⇝ target`` through computations."""
        return target in self.forward_reachable([source])

    def size(self) -> Tuple[int, int]:
        """``(number of cells, number of computations)``."""
        return len(self.refs), len(self.computations)

    def state_cells(self) -> List[Name]:
        return [name for name in self.refs if name.cell_type() == TYPE_STATE]

    # -- well-formedness (Definition 4.1) ------------------------------------------------

    def check_well_formed(self) -> None:
        """Raise :class:`IllFormedDaigError` on any violation of Def. 4.1."""
        # (1) unique names: guaranteed by using a set of names.
        # (2) unique destinations: guaranteed by the computations dict.
        # (3) acyclicity.
        self._check_acyclic()
        # (4) well-typedness of computations.
        for comp in self.computations.values():
            self._check_types(comp)
        # (5) every empty reference has a defining computation.
        for name in self.refs:
            if name not in self.values and name not in self.computations:
                raise IllFormedDaigError(
                    "empty cell %s has no defining computation" % (name,))
        # All computation endpoints must be declared references.
        for comp in self.computations.values():
            for name in (comp.dest,) + comp.srcs:
                if name not in self.refs:
                    raise IllFormedDaigError(
                        "computation mentions undeclared cell %s" % (name,))

    def _check_acyclic(self) -> None:
        state: Dict[Name, int] = {}

        def successors(name: Name) -> Set[Name]:
            return self.dependents_of(name)

        for start in self.refs:
            if state.get(start, 0):
                continue
            stack: List[Tuple[Name, List[Name]]] = [(start, list(successors(start)))]
            state[start] = 1
            while stack:
                node, succs = stack[-1]
                if succs:
                    nxt = succs.pop()
                    status = state.get(nxt, 0)
                    if status == 1:
                        raise IllFormedDaigError(
                            "dependency cycle through %s" % (nxt,))
                    if status == 0:
                        state[nxt] = 1
                        stack.append((nxt, list(successors(nxt))))
                else:
                    state[node] = 2
                    stack.pop()

    def _check_types(self, comp: Computation) -> None:
        if comp.dest.cell_type() != TYPE_STATE:
            raise IllFormedDaigError(
                "computation writes to a statement cell %s" % (comp.dest,))
        if comp.func == TRANSFER:
            if len(comp.srcs) != 2 or comp.srcs[0].cell_type() != TYPE_STMT \
                    or comp.srcs[1].cell_type() != TYPE_STATE:
                raise IllFormedDaigError("ill-typed transfer %r" % (comp,))
        elif comp.func in (JOIN, WIDEN, FIX):
            if not comp.srcs or any(s.cell_type() != TYPE_STATE for s in comp.srcs):
                raise IllFormedDaigError("ill-typed %s %r" % (comp.func, comp))
            if comp.func in (WIDEN, FIX) and len(comp.srcs) != 2:
                raise IllFormedDaigError("%s must have two inputs: %r"
                                         % (comp.func, comp))
        else:
            raise IllFormedDaigError("unknown function symbol %r" % (comp.func,))

    # -- display --------------------------------------------------------------------------

    def pretty(self, max_cells: int = 200) -> str:
        lines = ["DAIG with %d cells / %d computations" % self.size()]
        for index, name in enumerate(sorted(self.refs, key=str)):
            if index >= max_cells:
                lines.append("  ...")
                break
            value = self.values.get(name, "ε")
            lines.append("  %s = %s" % (name, value))
        return "\n".join(lines)
