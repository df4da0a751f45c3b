"""Initial DAIG construction (``Dinit``, Definition A.2) and demanded unrolling.

:class:`DaigBuilder` translates a CFG plus an abstract-interpreter interface
into the initial DAIG of Lemma 4.1 and provides the ``unroll`` operation used
by the Q-Loop-Unroll rule: materializing the next abstract iteration of a
loop body while keeping the graph acyclic.

The construction follows the three cases of Fig. 7:

1. a forward CFG edge to a non-join location becomes a single transfer
   computation,
2. forward edges into a join location go through indexed pre-join cells and
   a single join computation,
3. a back edge becomes the ``k``-iterate widening chain: a transfer from the
   loop body's last location into a pre-widening cell, a widening
   computation producing the next loop-head iterate, and a ``fix``
   computation from the two greatest iterates into the loop head's
   fixed-point cell.  Initially ``k = 1``; ``unroll`` extends the chain on
   demand.

Nested loops are supported by giving every cell an iteration index *per
enclosing loop head* (see :mod:`repro.daig.names`); unrolling an outer loop
rebuilds the inner loops' initial (two-iterate) structure inside the new
outer iteration, which preserves acyclicity and all consistency invariants.

The builder files the computations it writes at iteration 0, per location
and per loop head (:attr:`DaigBuilder.encodings`, ``loop_encodings``).
Each filed computation is the very tuple the DAIG holds.  That record is
the only description of the encoding: a structural splice
(:mod:`repro.daig.splice`) compares an edit's suspects against it, and
unrolling keys its memo by it.

Unrolling re-encodes the same loop body at a new iteration index every
time, and that encoding is a pure function of the loop's filed iteration-0
writes (its :class:`LoopShape`), its ``fix`` cell and the iteration ``k``.
So the encoder is memoized the way Q-Match memoizes transfers: a builder
whose engine turned replay on (``shapes``) records the computations of the
first unrolling of each *(shape, fix cell, k)* in :data:`UNROLL_TABLE`,
one bounded table per process, and every later unrolling under that key
inserts those very computations instead of deriving each name from the
CFG again.  A record
is keyed by its own content, so it never goes stale: a copy, a restarted
engine, a sibling procedure with an identical loop and a pool worker
(which starts with its parent's table) all replay it.  A replay adds
exactly the computations a derivation adds, in the same order, and every
statement cell already holds its edge's statement (the splice keeps it
so), so no cell, computation, value or work count depends on whether an
unrolling was replayed.  A standalone builder (``shapes`` None) always
derives, and :meth:`DaigBuilder.build` and :meth:`DaigBuilder.roll` never
consult the table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..domains.base import AbstractDomain
from ..intern import InternTable
from ..lang.cfg import Cfg, CfgEdge, Loc
from . import names as N
from .graph import Computation, Daig, FIX, JOIN, TRANSFER, WIDEN

#: Capacity of :data:`UNROLL_TABLE`, in recorded computations.  Records
#: hold their names alive, so this also bounds the names the table
#: retains.  The benchmark's wide call graph records 360 computations.
UNROLL_TABLE_CAPACITY = 2048


class LoopShape:
    """The iteration-0 encoding an unrolling of one loop reads.

    ``sig`` holds the filed writes of every body location but the head,
    then those of every loop head in the body (the loop's own included),
    each in location order: all that ``DaigBuilder.unroll`` derives a new
    iteration from, besides the iteration indices.  Shapes are interned,
    so equal encodings yield the same object, and the unrolling table
    hashes and compares them by identity.
    """

    __slots__ = ("sig", "__weakref__")

    _intern = InternTable("daig.LoopShape")

    sig: Tuple

    def __new__(cls, sig: Tuple) -> "LoopShape":
        table = cls._intern
        canonical = table.get(sig)
        if canonical is not None:
            return canonical
        self = object.__new__(cls)
        self.sig = sig
        return table.insert(sig, self)


class UnrollRecord:
    """The computations one derived unrolling added, and the two iterates
    its ``fix`` edge slides to.  ``weight``, the unit of the table's
    capacity, counts the computations."""

    __slots__ = ("writes", "fix_srcs", "weight")

    def __init__(self, writes: Tuple[Computation, ...],
                 fix_srcs: Tuple[N.Name, N.Name]) -> None:
        self.writes = writes
        self.fix_srcs = fix_srcs
        self.weight = len(writes)


class UnrollTable:
    """A bounded LRU table: *(loop shape, fix cell, k)* → the
    :class:`UnrollRecord` of that unrolling.

    Holds at most ``capacity`` recorded computations; a record larger than
    that is not kept.  Only the analysis thread unrolls, so the table
    takes no lock.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._records: "OrderedDict[Tuple[Any, N.Name, int], UnrollRecord]" = \
            OrderedDict()
        self.computations = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple[Any, N.Name, int]) -> Optional[UnrollRecord]:
        record = self._records.get(key)
        if record is None:
            self.misses += 1
            return None
        self._records.move_to_end(key)
        self.hits += 1
        return record

    def put(self, key: Tuple[Any, N.Name, int], record: UnrollRecord) -> None:
        """Record ``key``'s unrolling (after its :meth:`get` missed)."""
        if record.weight > self.capacity:
            return
        self._records[key] = record
        self.computations += record.weight
        while self.computations > self.capacity:
            _key, evicted = self._records.popitem(last=False)
            self.computations -= evicted.weight
            self.evictions += 1

    def clear(self) -> None:
        """Drop every record (the counters are left alone)."""
        self._records.clear()
        self.computations = 0

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._records),
                "computations": self.computations,
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions}


#: The process's unrolling table, filled and read by every engine's builder.
UNROLL_TABLE = UnrollTable(UNROLL_TABLE_CAPACITY)


def unroll_table_stats() -> Dict[str, int]:
    """The unrolling table's ``{entries, computations, capacity, hits,
    misses, evictions}``."""
    return UNROLL_TABLE.stats()


def reset_unroll_table_stats() -> None:
    """Zero the unrolling table's hit, miss and eviction counters (its
    records are left alone)."""
    UNROLL_TABLE.hits = UNROLL_TABLE.misses = UNROLL_TABLE.evictions = 0


class _Recorder:
    """Stands in for the DAIG while the builder encodes: records each
    computation the encoder adds, in order, and passes that very tuple on
    to ``daig``.  A detached recorder (``daig`` None) only records, the
    statement cells it holds included, for a later insertion as it is."""

    __slots__ = ("daig", "writes", "holds")

    def __init__(self, daig: Optional[Daig]) -> None:
        self.daig = daig
        self.writes: Sequence[Computation] = []
        self.holds: List[Tuple[N.Name, Any]] = []

    def hold(self, name: N.Name, value: Any) -> None:
        if self.daig is None:
            self.holds.append((name, value))
        else:
            self.daig.hold(name, value)

    def add_computation(self, comp: Computation) -> None:
        self.writes.append(comp)
        if self.daig is not None:
            self.daig.add_computation(comp)


class DaigBuilder:
    """Builds and extends DAIGs for one CFG and one abstract domain.

    ``entry_state`` overrides the initial abstract state φ0 (the default is
    ``domain.initial(cfg.params)``); the interprocedural engine uses this to
    seed callee DAIGs with context-specific entry states.

    ``encodings[loc]`` files the computations ``encode_incoming(loc, {})``
    wrote, for every reachable location but the entry, and
    ``loop_encodings[head]`` those of ``build_loop_structures(head, {})``,
    for every reachable loop head.  :meth:`build` files them, and a splice
    re-files each location and loop it re-encodes.  ``shapes`` holds the
    :class:`LoopShape` of each unrolled loop head, read off those files;
    it is None on a standalone builder, and an engine sets it once it has
    built its DAIG: with it, :meth:`unroll` records and replays through
    :data:`UNROLL_TABLE`.
    """

    def __init__(self, cfg: Cfg, domain: AbstractDomain,
                 entry_state: Optional[object] = None) -> None:
        self.cfg = cfg
        self.domain = domain
        self.entry_state = (entry_state if entry_state is not None
                            else domain.initial(cfg.params))
        self.encodings: Dict[Loc, Tuple[Computation, ...]] = {}
        self.loop_encodings: Dict[Loc, Tuple[Computation, ...]] = {}
        self.shapes: Optional[Dict[Loc, LoopShape]] = None

    # -- naming helpers -----------------------------------------------------------

    def state_name(self, loc: Loc, overrides: Dict[Loc, int]) -> N.Name:
        return N.state_name(loc, self.cfg.containing_loop_heads(loc), overrides)

    def fix_name(self, head: Loc, overrides: Dict[Loc, int]) -> N.Name:
        return N.fix_name(head, self.cfg.containing_loop_heads(head), overrides)

    def prewiden_name(self, head: Loc, step: int, overrides: Dict[Loc, int]) -> N.Name:
        return N.prewiden_name(head, step, self.cfg.containing_loop_heads(head),
                               overrides)

    def source_name(self, src: Loc, dst: Loc, overrides: Dict[Loc, int],
                    dst_heads: Optional[Tuple[Loc, ...]] = None,
                    dst_iters: N.Iterations = ()) -> N.Name:
        """The cell a transfer over ``src → dst`` reads its input state from.

        Following footnote 5 of the paper: when the source is a loop head and
        the edge leaves the loop, the input is the loop's fixed point;
        otherwise it is the source's (possibly iteration-indexed) state cell.
        A source in the destination's loops (``dst_heads``) reuses the
        destination's ``dst_iters``.
        """
        cfg = self.cfg
        heads = cfg.containing_loop_heads(src)
        if cfg.is_loop_head(src) and dst not in cfg.natural_loop(src):
            return N.fix_name(src, heads, overrides)
        if heads == dst_heads:
            return N.Name(N.STATE, src, iters=dst_iters)
        return N.state_name(src, heads, overrides)

    # -- initial construction ---------------------------------------------------------

    def check_encodable(self) -> None:
        """The validity preconditions of the encoding, checked before any
        DAIG mutation, so a rejected CFG leaves the DAIG untouched (and
        recoverable).

        The CFG must be reducible, and its entry outside every loop.  Every
        loop must exit through its head: the Fig. 7 encoding of back edges
        indexes every loop-body cell by an iteration count and lets only
        the loop head's fixed-point cell feed the code after the loop, so
        an edge that leaves a natural loop from a non-head location (e.g. a
        ``return`` in the middle of a loop body) has no sound source cell.
        The CFG's structure layer maintains reducibility and the loop-exit
        violations incrementally, so the check is O(1) after a refresh.
        """
        cfg = self.cfg
        cfg.check_reducible()
        for edge, head in cfg.loop_exit_violations():
            raise ValueError(
                "edge %s exits the loop headed at %d from a non-head "
                "location; the DAIG encoding requires loops to exit "
                "through their head" % (edge, head))
        if cfg.is_loop_head(cfg.entry) or cfg.in_any_loop(cfg.entry):
            raise ValueError("the entry location may not belong to a loop")

    def build(self) -> Daig:
        """Construct the initial DAIG ``Dinit`` (Definition A.2), filing its
        encodings."""
        self.check_encodable()
        cfg = self.cfg
        daig = Daig()
        daig.hold(self.state_name(cfg.entry, {}), self.entry_state)
        self.encodings = {}
        self.loop_encodings = {}
        reachable = cfg.reachable_locations()
        for loc in sorted(reachable):
            if loc != cfg.entry:
                self.encode(daig, loc)
        for head in cfg.loop_heads():
            if head in reachable:
                self.encode_loop(daig, head)
        return daig

    def encode(self, daig: Optional[Daig], loc: Loc,
               derived: Optional[_Recorder] = None) -> _Recorder:
        """``encode_incoming(daig, loc, {})``, filed under
        ``encodings[loc]``; with no DAIG, the derivation, filed nowhere.
        ``derived``, such a derivation made since the CFG last changed, is
        inserted as it is instead of deriving ``loc`` again."""
        return self._filed(daig, self.encode_incoming, loc, self.encodings,
                           derived)

    def encode_loop(self, daig: Optional[Daig], head: Loc,
                    derived: Optional[_Recorder] = None) -> _Recorder:
        """``build_loop_structures(daig, head, {})``, filed under
        ``loop_encodings[head]``; with no DAIG, filed nowhere."""
        return self._filed(daig, self.build_loop_structures, head,
                           self.loop_encodings, derived)

    @staticmethod
    def _filed(daig: Optional[Daig], encode: Any, loc: Loc,
               files: Dict[Loc, Tuple[Computation, ...]],
               derived: Optional[_Recorder]) -> _Recorder:
        if derived is None:
            derived = _Recorder(daig)
            encode(derived, loc, {})
            derived.writes = tuple(derived.writes)
        else:
            for name, value in derived.holds:
                daig.hold(name, value)
            for comp in derived.writes:
                daig.add_computation(comp)
        if daig is not None:
            files[loc] = derived.writes
        return derived

    def encode_incoming(self, daig: Daig, loc: Loc, overrides: Dict[Loc, int]) -> None:
        """Encode all incoming *forward* edges of ``loc`` (Fig. 7, cases 1-2)."""
        cfg = self.cfg
        edges = cfg.fwd_edges_to(loc)
        if not edges:
            return
        # The destination's loops index its state cell, its pre-join cells
        # and the state cells of sources at the same nesting.
        heads = cfg.containing_loop_heads(loc)
        iters = N.iterations(heads, overrides)
        dest = N.Name(N.STATE, loc, iters=iters)
        if len(edges) == 1:
            edge = edges[0][1]
            daig.add_computation((dest, TRANSFER, (
                self._stmt_cell(daig, edge, 0),
                self.source_name(edge.src, loc, overrides, heads, iters))))
            return
        prejoins = []
        for index, edge in edges:
            prejoin = N.Name(N.PREJOIN, loc, index, iters=iters)
            daig.add_computation((prejoin, TRANSFER, (
                self._stmt_cell(daig, edge, index),
                self.source_name(edge.src, loc, overrides, heads, iters))))
            prejoins.append(prejoin)
        daig.add_computation((dest, JOIN, tuple(prejoins)))

    def _stmt_cell(self, daig: Daig, edge: CfgEdge, index: int) -> N.Name:
        name = N.stmt_name(edge.src, edge.dst, index)
        # Re-encoding (an unrolling, a splice) mostly finds the statement in
        # place already.
        daig.hold(name, edge.stmt)
        return name

    def build_loop_structures(
        self, daig: Daig, head: Loc, overrides: Dict[Loc, int]
    ) -> None:
        """Encode a back edge as the initial two-iterate chain (Fig. 7, case 3)."""
        back_edges = self.cfg.back_edges_to(head)
        if len(back_edges) != 1:
            raise ValueError(
                "loop head %d has %d back edges; exactly one is supported"
                % (head, len(back_edges)))
        back = back_edges[0]
        body_overrides = dict(overrides)
        body_overrides[head] = 0
        iterate0 = self.state_name(head, body_overrides)
        iterate1 = self.state_name(head, {**overrides, head: 1})
        prewiden1 = self.prewiden_name(head, 1, overrides)
        fix_cell = self.fix_name(head, overrides)
        stmt_cell = self._stmt_cell(daig, back, 0)
        source = self.source_name(back.src, head, body_overrides)
        daig.add_computation((prewiden1, TRANSFER, (stmt_cell, source)))
        daig.add_computation((iterate1, WIDEN, (iterate0, prewiden1)))
        daig.add_computation((fix_cell, FIX, (iterate0, iterate1)))

    # -- demanded unrolling -----------------------------------------------------------------

    def current_unrolling(self, daig: Daig, head: Loc, overrides: Dict[Loc, int]) -> int:
        """The greatest abstract iterate currently encoded for ``head``."""
        return self._greatest_iterate(daig, self.fix_name(head, overrides))

    @staticmethod
    def _greatest_iterate(daig: Daig, fix_cell: N.Name) -> int:
        comp = daig.defining(fix_cell)
        if comp is None or comp[1] != FIX:
            raise KeyError("no fix computation for loop head %d"
                           % fix_cell.loc)
        return comp[2][1].iteration_of(fix_cell.loc)

    def unroll(self, daig: Daig, head: Loc, overrides: Dict[Loc, int]) -> int:
        """Unroll the abstract interpretation of ``head``'s loop by one step.

        Creates the loop-body cells for the current greatest iterate ``k``,
        the pre-widening and widening chain producing iterate ``k+1``, and
        slides the ``fix`` edge forward to ``(k, k+1)``.  Returns ``k+1``.

        With ``shapes`` set, and ``overrides`` naming exactly the
        enclosing loops' iterations (as the query evaluator passes them),
        the computations come from :data:`UNROLL_TABLE` when it holds this
        *(loop shape, fix cell, k)*, and are derived and recorded there
        otherwise.
        """
        fix_cell = self.fix_name(head, overrides)
        k = self._greatest_iterate(daig, fix_cell)
        if self.shapes is None or dict(fix_cell.iters) != overrides:
            fix_srcs = self._encode_iteration(daig, head, overrides, k)
        else:
            table = UNROLL_TABLE
            key = (self.loop_shape(head), fix_cell, k)
            record = table.get(key)
            if record is None:
                recorder = _Recorder(daig)
                fix_srcs = self._encode_iteration(recorder, head, overrides, k)
                table.put(key, UnrollRecord(tuple(recorder.writes), fix_srcs))
            else:
                # The same computations in the same order; the statement
                # cells they read already hold their edges' statements.
                for comp in record.writes:
                    daig.add_computation(comp)
                fix_srcs = record.fix_srcs
        daig.replace_computation((fix_cell, FIX, fix_srcs))
        return k + 1

    def loop_shape(self, head: Loc) -> LoopShape:
        """The shape of ``head``'s loop, read off the filed encodings once
        per head (a splice that compares a location of the loop drops
        it)."""
        shape = self.shapes.get(head)
        if shape is None:
            encodings = self.encodings
            loops = self.loop_encodings
            body = sorted(self.cfg.natural_loop(head))
            shape = self.shapes[head] = LoopShape((
                tuple([encodings[loc] for loc in body if loc != head]),
                tuple([loops[loc] for loc in body if loc in loops])))
        return shape

    def _encode_iteration(self, daig: Any, head: Loc,
                          overrides: Dict[Loc, int],
                          k: int) -> Tuple[N.Name, N.Name]:
        """Encode iteration ``k`` of ``head``'s loop body and the widening
        producing iterate ``k+1``; returns the iterates ``(k, k+1)``."""
        body_overrides = dict(overrides)
        body_overrides[head] = k
        loop = self.cfg.natural_loop(head)
        for loc in sorted(loop):
            if loc == head:
                continue
            self.encode_incoming(daig, loc, body_overrides)
        for inner in self.cfg.loop_heads():
            if inner != head and inner in loop:
                # Every loop nested in `head` gets its initial two-iterate
                # chain inside the new iteration (loops between it and
                # `head` at iteration 0); deeper iterations are unrolled on
                # demand.
                self.build_loop_structures(daig, inner, body_overrides)
        back = self.cfg.back_edges_to(head)[0]
        stmt_cell = N.stmt_name(back.src, back.dst, 0)
        prewiden_next = self.prewiden_name(head, k + 1, overrides)
        iterate_k = self.state_name(head, {**overrides, head: k})
        iterate_next = self.state_name(head, {**overrides, head: k + 1})
        source = self.source_name(back.src, head, body_overrides)
        daig.add_computation((prewiden_next, TRANSFER, (stmt_cell, source)))
        daig.add_computation((iterate_next, WIDEN, (iterate_k, prewiden_next)))
        return iterate_k, iterate_next

    def roll(self, daig: Daig, head: Loc, overrides: Dict[Loc, int]) -> None:
        """Roll a loop back to its initial two-iterate form (edit semantics).

        Removes every cell and computation belonging to iteration >= 2 of
        ``head`` (within the given outer-loop context) and resets the ``fix``
        computation to depend on iterates 0 and 1, as rule E-Loop requires.
        """
        fix_cell = self.fix_name(head, overrides)
        if daig.defining(fix_cell) is None:
            return
        context = tuple(sorted(
            (h, overrides.get(h, 0))
            for h in self.cfg.containing_loop_heads(head) if h != head))
        to_remove = [
            name for name in daig.iterated_cells(head, 2)
            if not context
            or all(item in name.iters or item[0] == head for item in context)
        ]
        daig.remove_region(to_remove)
        iterate0 = self.state_name(head, {**overrides, head: 0})
        iterate1 = self.state_name(head, {**overrides, head: 1})
        daig.replace_computation((fix_cell, FIX, (iterate0, iterate1)))
