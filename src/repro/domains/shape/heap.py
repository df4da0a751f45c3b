"""Symbolic heaps: the building block of the separation-logic shape domain.

Following Section 7.2 of the paper, an abstract state of the shape domain is
built from three components:

* a separation-logic formula over points-to (``α.f ↦ α'``) and list-segment
  (``lseg(α, α')``) atomic propositions,
* pure constraints: equalities and disequalities over symbolic addresses,
* an environment mapping program variables to symbolic addresses.

A :class:`SymbolicHeap` is one such triple (one disjunct).  The full domain
(:mod:`repro.domains.shape.domain`) manages finite disjunctions of symbolic
heaps; this module provides the per-disjunct machinery: equality saturation
over the pure constraints (a small union-find), materialization of ``next``
fields (unfolding ``lseg``), canonical abstraction (folding points-to chains
back into ``lseg``), canonical renaming (so that structurally equal heaps
compare equal), and the entailment checks the verification client uses
(``lseg(x, null)`` reachability, i.e. list well-formedness).

``lseg(α, α')`` is interpreted as a *possibly empty* list segment: zero or
more ``next`` dereferences lead from ``α`` to ``α'``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: The distinguished symbolic value for ``null``.
NIL = 0

Sym = int


@dataclass(frozen=True)
class PointsTo:
    """The atom ``src.next ↦ dst`` (a single materialized list cell)."""

    src: Sym
    dst: Sym

    def __str__(self) -> str:
        return "%s.next↦%s" % (_sym_name(self.src), _sym_name(self.dst))


@dataclass(frozen=True)
class ListSeg:
    """The atom ``lseg(src, dst)``: a possibly-empty list segment."""

    src: Sym
    dst: Sym

    def __str__(self) -> str:
        return "lseg(%s, %s)" % (_sym_name(self.src), _sym_name(self.dst))


Atom = object  # PointsTo | ListSeg


def _sym_name(sym: Sym) -> str:
    return "null" if sym == NIL else "α%d" % sym


class SymbolicHeap:
    """One separation-logic disjunct: env + heap atoms + pure constraints.

    Instances are immutable in spirit: every operation returns a new heap.
    ``inconsistent`` marks a disjunct whose pure constraints are
    contradictory (it denotes no concrete states and is dropped by the
    domain); ``faults`` accumulates descriptions of possible memory-safety
    violations (null dereferences) encountered on the way to this state.
    """

    __slots__ = ("env", "points_to", "lsegs", "equalities", "disequalities",
                 "faults", "next_sym")

    def __init__(
        self,
        env: Optional[Dict[str, Sym]] = None,
        points_to: Iterable[PointsTo] = (),
        lsegs: Iterable[ListSeg] = (),
        equalities: Iterable[Tuple[Sym, Sym]] = (),
        disequalities: Iterable[Tuple[Sym, Sym]] = (),
        faults: Iterable[str] = (),
        next_sym: int = 1,
    ) -> None:
        self.env: Dict[str, Sym] = dict(env) if env else {}
        self.points_to: Set[PointsTo] = set(points_to)
        self.lsegs: Set[ListSeg] = set(lsegs)
        self.equalities: Set[Tuple[Sym, Sym]] = set(equalities)
        self.disequalities: Set[Tuple[Sym, Sym]] = set(disequalities)
        self.faults: Set[str] = set(faults)
        self.next_sym = max(
            [next_sym, NIL + 1]
            + [s + 1 for s in self._all_syms()]
        )

    # -- basic plumbing ----------------------------------------------------------

    def _all_syms(self) -> Set[Sym]:
        syms = set(self.env.values()) | {NIL}
        for atom in self.points_to:
            syms |= {atom.src, atom.dst}
        for atom in self.lsegs:
            syms |= {atom.src, atom.dst}
        for a, b in self.equalities | self.disequalities:
            syms |= {a, b}
        return syms

    def copy(self) -> "SymbolicHeap":
        return SymbolicHeap(self.env, self.points_to, self.lsegs,
                            self.equalities, self.disequalities, self.faults,
                            self.next_sym)

    def fresh(self) -> Sym:
        sym = self.next_sym
        self.next_sym += 1
        return sym

    # -- pure constraints ----------------------------------------------------------

    def _union_find(self) -> Dict[Sym, Sym]:
        """Representatives of the equality classes over all symbols."""
        parent: Dict[Sym, Sym] = {s: s for s in self._all_syms()}

        def find(x: Sym) -> Sym:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.equalities:
            ra, rb = find(a), find(b)
            if ra != rb:
                # Prefer NIL (and otherwise the smaller id) as representative.
                if rb == NIL or (ra != NIL and rb < ra):
                    ra, rb = rb, ra
                parent[rb] = ra
        return {s: find(s) for s in parent}

    def rep(self, sym: Sym) -> Sym:
        """The representative of ``sym``'s equality class."""
        return self._union_find().get(sym, sym)

    def must_equal(self, a: Sym, b: Sym) -> bool:
        reps = self._union_find()
        return reps.get(a, a) == reps.get(b, b)

    def must_differ(self, a: Sym, b: Sym) -> bool:
        reps = self._union_find()
        ra, rb = reps.get(a, a), reps.get(b, b)
        if ra == rb:
            return False
        for x, y in self.disequalities:
            if {reps.get(x, x), reps.get(y, y)} == {ra, rb}:
                return True
        # Separation: two distinct points-to atoms have distinct sources, and
        # any points-to source is an allocated (hence non-null) address.
        sources = {reps.get(p.src, p.src) for p in self.points_to}
        if NIL in (ra, rb) and (ra in sources or rb in sources):
            return True
        if ra in sources and rb in sources:
            return True
        return False

    def is_inconsistent(self) -> bool:
        """Whether the pure constraints (plus separation) are contradictory."""
        reps = self._union_find()
        for a, b in self.disequalities:
            if reps.get(a, a) == reps.get(b, b):
                return True
        # A points-to whose source is null is impossible.
        for atom in self.points_to:
            if reps.get(atom.src, atom.src) == NIL:
                return True
        # Separation: the same address cannot be the source of two distinct
        # points-to facts.
        seen: Dict[Sym, Sym] = {}
        for atom in self.points_to:
            src = reps.get(atom.src, atom.src)
            dst = reps.get(atom.dst, atom.dst)
            if src in seen and seen[src] != dst:
                return True
            seen[src] = dst
        return False

    # -- normalization ----------------------------------------------------------------

    def normalize(self) -> "SymbolicHeap":
        """Apply equalities everywhere and drop trivial atoms.

        After normalization every symbol that appears is the representative
        of its equality class, empty segments ``lseg(a, a)`` are removed, and
        duplicate atoms collapse.
        """
        reps = self._union_find()

        def r(sym: Sym) -> Sym:
            return reps.get(sym, sym)

        out = SymbolicHeap(next_sym=self.next_sym)
        out.env = {name: r(sym) for name, sym in self.env.items()}
        for atom in self.points_to:
            out.points_to.add(PointsTo(r(atom.src), r(atom.dst)))
        for atom in self.lsegs:
            src, dst = r(atom.src), r(atom.dst)
            if src != dst:
                out.lsegs.add(ListSeg(src, dst))
        out.disequalities = {
            (min(r(a), r(b)), max(r(a), r(b)))
            for a, b in self.disequalities
            if r(a) != r(b) or True  # keep even if now equal: inconsistency check
        }
        out.faults = set(self.faults)
        out.next_sym = self.next_sym
        return out

    # -- abstraction (folding) ------------------------------------------------------------

    def abstract(self, aggressive: bool = False) -> "SymbolicHeap":
        """Canonical abstraction: fold chains through anonymous symbols.

        Two rewrite rules (from the Chang-Rival-Necula style checker rules,
        specialized to list segments):

        * a points-to atom entails a (possibly-empty) segment, so exact cells
          may be weakened: ``x.next ↦ y`` becomes ``lseg(x, y)``.  In the
          default mode this happens only when the cell is not pinned at both
          ends by program variables (exact cells still directly reachable may
          matter to later dereferences); in ``aggressive`` mode — used by the
          widening at loop heads — every points-to atom is folded, which is
          what makes loop invariants stabilize after a single abstract
          iteration on list-traversal loops;
        * adjacent segments through an anonymous, otherwise-unreferenced
          symbol compose: ``lseg(x, y) * lseg(y, z)`` becomes ``lseg(x, z)``.

        Abstraction is what bounds the heap size at loop heads and makes
        widening convergent.
        """
        heap = self.normalize()
        named = set(heap.env.values()) | {NIL}

        changed = True
        while changed:
            changed = False
            for atom in list(heap.points_to):
                if not aggressive and atom.dst in named and atom.src in named:
                    continue
                heap.points_to.discard(atom)
                if atom.src != atom.dst:
                    heap.lsegs.add(ListSeg(atom.src, atom.dst))
                changed = True
            # Compose segments through anonymous middle symbols.
            by_src: Dict[Sym, List[ListSeg]] = {}
            for seg in heap.lsegs:
                by_src.setdefault(seg.src, []).append(seg)
            incoming: Dict[Sym, int] = {}
            for seg in heap.lsegs:
                incoming[seg.dst] = incoming.get(seg.dst, 0) + 1
            for seg in list(heap.lsegs):
                middle = seg.dst
                if middle in named or middle == NIL:
                    continue
                if incoming.get(middle, 0) != 1:
                    continue
                if any(p.src == middle or p.dst == middle for p in heap.points_to):
                    continue
                onward = [s for s in heap.lsegs if s.src == middle]
                if len(onward) != 1:
                    continue
                nxt = onward[0]
                heap.lsegs.discard(seg)
                heap.lsegs.discard(nxt)
                if seg.src != nxt.dst:
                    heap.lsegs.add(ListSeg(seg.src, nxt.dst))
                changed = True
                break
        # Drop pure constraints that mention symbols no longer used anywhere;
        # they cannot influence later analysis and keeping them would defeat
        # convergence of widening.
        used = set(heap.env.values()) | {NIL}
        for atom in heap.points_to:
            used |= {atom.src, atom.dst}
        for atom in heap.lsegs:
            used |= {atom.src, atom.dst}
        heap.disequalities = {
            (a, b) for a, b in heap.disequalities if a in used and b in used}
        return heap

    # -- canonical renaming -----------------------------------------------------------------

    def canonical(self) -> "CanonicalHeap":
        """A canonical, hashable rendering used for equality and subsumption.

        Symbols are renamed in a deterministic traversal order starting from
        the program variables (sorted by name) and following heap atoms, so
        two alpha-equivalent heaps produce identical canonical forms.
        """
        heap = self.normalize()
        order: Dict[Sym, int] = {NIL: 0}
        counter = 1

        def visit(sym: Sym) -> None:
            nonlocal counter
            if sym not in order:
                order[sym] = counter
                counter += 1

        for name in sorted(heap.env):
            visit(heap.env[name])
        # Follow next-chains deterministically.
        frontier = [heap.env[name] for name in sorted(heap.env)]
        seen: Set[Sym] = set()
        while frontier:
            sym = frontier.pop(0)
            if sym in seen:
                continue
            seen.add(sym)
            successors = sorted(
                [p.dst for p in heap.points_to if p.src == sym]
                + [s.dst for s in heap.lsegs if s.src == sym])
            for succ in successors:
                visit(succ)
                frontier.append(succ)
        for atom in sorted(heap.points_to, key=lambda a: (a.src, a.dst)):
            visit(atom.src)
            visit(atom.dst)
        for atom in sorted(heap.lsegs, key=lambda a: (a.src, a.dst)):
            visit(atom.src)
            visit(atom.dst)
        for a, b in sorted(heap.disequalities):
            visit(a)
            visit(b)

        def r(sym: Sym) -> int:
            return order.get(sym, -1)

        env = tuple(sorted((name, r(sym)) for name, sym in heap.env.items()))
        points_to = tuple(sorted((r(a.src), r(a.dst)) for a in heap.points_to))
        lsegs = tuple(sorted((r(a.src), r(a.dst)) for a in heap.lsegs))
        diseq = tuple(sorted((min(r(a), r(b)), max(r(a), r(b)))
                             for a, b in heap.disequalities))
        return CanonicalHeap(env, points_to, lsegs, diseq,
                             tuple(sorted(heap.faults)))

    # -- materialization ---------------------------------------------------------------------

    def next_of(self, sym: Sym) -> Optional[Sym]:
        """The ``next`` field of ``sym`` if already materialized, else None."""
        reps = self._union_find()
        target = reps.get(sym, sym)
        for atom in self.points_to:
            if reps.get(atom.src, atom.src) == target:
                return atom.dst
        return None

    def materialize_next(self, sym: Sym) -> List[Tuple["SymbolicHeap", Optional[Sym]]]:
        """Materialize ``sym.next``, unfolding a segment if necessary.

        Returns a list of ``(heap, next_sym)`` cases.  ``next_sym is None``
        indicates a case in which the dereference faults (``sym`` may be
        null or dangling); callers record the fault and usually continue
        with the non-faulting cases.
        """
        heap = self.normalize()
        rep = heap.rep(sym)
        if rep == NIL:
            return [(heap, None)]
        existing = heap.next_of(rep)
        if existing is not None:
            return [(heap, existing)]
        # A segment starting at `rep` can be unfolded.
        for seg in list(heap.lsegs):
            if heap.rep(seg.src) != rep:
                continue
            cases: List[Tuple[SymbolicHeap, Optional[Sym]]] = []
            # Case 1: the segment is empty, i.e. rep == seg.dst; sym then
            # aliases the segment end and its `next` is whatever lies beyond
            # (unknown here): recurse on the end symbol.
            if not heap.must_differ(rep, seg.dst):
                empty = heap.copy()
                empty.lsegs.discard(seg)
                empty.equalities.add((rep, seg.dst))
                empty = empty.normalize()
                if not empty.is_inconsistent():
                    cases.extend(empty.materialize_next(seg.dst))
            # Case 2: the segment is non-empty: rep.next ↦ fresh * lseg(fresh, dst).
            nonempty = heap.copy()
            nonempty.lsegs.discard(seg)
            fresh = nonempty.fresh()
            nonempty.points_to.add(PointsTo(rep, fresh))
            if seg.dst != fresh:
                nonempty.lsegs.add(ListSeg(fresh, seg.dst))
            nonempty.disequalities.add((min(rep, NIL), max(rep, NIL)))
            if not nonempty.is_inconsistent():
                cases.append((nonempty, fresh))
            if cases:
                return cases
        # Nothing is known about `rep`: it may be null (fault) or point to an
        # unknown cell.  Materialize a fresh cell in the non-faulting case.
        cases = []
        if not heap.must_differ(rep, NIL):
            faulting = heap.copy()
            cases.append((faulting, None))
        unknown = heap.copy()
        fresh = unknown.fresh()
        unknown.points_to.add(PointsTo(rep, fresh))
        unknown.disequalities.add((min(rep, NIL), max(rep, NIL)))
        if not unknown.is_inconsistent():
            cases.append((unknown, fresh))
        return cases

    # -- entailment ----------------------------------------------------------------------------

    def entails_lseg(self, start: Sym, end: Sym) -> bool:
        """Whether this heap entails ``lseg(start, end)`` (well-formedness).

        A simple syntactic proof search: follow points-to and lseg atoms from
        ``start``, using each at most once, until ``end`` is reached (or
        ``start`` and ``end`` are already equal).
        """
        heap = self.normalize()
        reps = heap._union_find()

        def r(sym: Sym) -> Sym:
            return reps.get(sym, sym)

        target = r(end)
        current = r(start)
        used_pt: Set[PointsTo] = set()
        used_seg: Set[ListSeg] = set()
        for _ in range(len(heap.points_to) + len(heap.lsegs) + 1):
            if current == target:
                return True
            advanced = False
            for atom in heap.points_to:
                if atom not in used_pt and r(atom.src) == current:
                    used_pt.add(atom)
                    current = r(atom.dst)
                    advanced = True
                    break
            if advanced:
                continue
            for seg in heap.lsegs:
                if seg not in used_seg and r(seg.src) == current:
                    used_seg.add(seg)
                    current = r(seg.dst)
                    advanced = True
                    break
            if not advanced:
                return False
        return current == target

    def __str__(self) -> str:
        parts = []
        env = ", ".join("%s=%s" % (name, _sym_name(sym))
                        for name, sym in sorted(self.env.items()))
        atoms = " * ".join(
            [str(a) for a in sorted(self.points_to, key=lambda a: (a.src, a.dst))]
            + [str(a) for a in sorted(self.lsegs, key=lambda a: (a.src, a.dst))])
        pure = ", ".join("%s≠%s" % (_sym_name(a), _sym_name(b))
                         for a, b in sorted(self.disequalities))
        parts.append("[%s]" % env)
        parts.append(atoms if atoms else "emp")
        if pure:
            parts.append(pure)
        if self.faults:
            parts.append("faults=%s" % sorted(self.faults))
        return " | ".join(parts)


@dataclass(frozen=True)
class CanonicalHeap:
    """A hashable canonical form of a symbolic heap (used for equality)."""

    env: Tuple[Tuple[str, int], ...]
    points_to: Tuple[Tuple[int, int], ...]
    lsegs: Tuple[Tuple[int, int], ...]
    disequalities: Tuple[Tuple[int, int], ...]
    faults: Tuple[str, ...]
