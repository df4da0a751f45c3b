"""Incremental DAIG splicing: structural edits without a full rebuild.

A structural CFG edit (insert / delete / re-label edges) invalidates only
the DAIG sub-regions whose *encoding* changed — everything else keeps both
its structure and its previously computed values (rules E-Commit /
E-Propagate / E-Loop applied at the granularity of whole regions).

The engine owns a single *live* :class:`StructureSnapshot`, captured once
when it builds its DAIG.  The CFG's structure layer
(:mod:`repro.lang.structure`) reports, per edit, the set of locations and
loop heads whose encoding signature may have changed, and
:func:`splice_delta` re-signs, diffs and updates only those entries in
place.  A statement-only edit re-signs exactly one location; an insertion
re-signs its new locations, the destinations of the edges it moved, and
the heads of the loops that contain it or are new — a handful of
locations, at any program size.  The snapshot also keeps each unrolled
loop's :class:`LoopShape`, the key under which
:meth:`~repro.daig.build.DaigBuilder.unroll` records and replays its
encodings; a splice drops the shapes of the loops around every location
it re-signs.  Only when the structure was rebuilt from
scratch (raw edge surgery on the CFG, or a wholesale edge replacement)
does :func:`splice` run the same algorithm with every old and new location
as a suspect; that is the only whole-program snapshot walk after the DAIG
is built.

The splice actions remove exactly the stale cell regions (via the
:class:`~repro.daig.graph.Daig` region indices), re-encode the dirty
locations and affected loops with the ordinary
:class:`~repro.daig.build.DaigBuilder` encoding rules, then dirty the cells
downstream of every seed through the reverse-dependency index
(:func:`repro.daig.edit.dirty_forward`).  The result is bit-identical to
rebuilding the DAIG from scratch and copying over unchanged values, with
*all* per-edit work — structure refresh, snapshot re-signing, cell removal,
re-encoding, dirtying, and the abstract recomputation a later query
performs — proportional to the edit's impacted region.  A splice reports
only its work counts: a client that needs a procedure's statement cells
(the interprocedural call graph's call cells) derives them from the CFG
with the same keying rule, :func:`stmt_cells_at`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..intern import InternTable
from ..lang.cfg import Cfg
from . import names as N
from .build import DaigBuilder
from .edit import dirty_forward
from .graph import Daig

#: A per-location encoding signature: how `encode_incoming` would encode the
#: location's incoming forward edges, as a tuple of primitive data.  Two
#: equal signatures produce identical cell names and computations.
LocSig = Tuple
#: A per-head loop signature: how `build_loop_structures` would encode the
#: loop's back edge.
LoopSig = Tuple
#: Identifies a statement cell: (edge src, edge dst, pre-join index or 0).
StmtKey = Tuple[int, int, int]


def _source_key(cfg: Cfg, src: int, dst: int) -> Tuple:
    """Signature of ``DaigBuilder.source_name(src, dst, ...)``.

    The source cell's name is determined by whether the edge leaves a loop
    through its head (footnote 5: read the fixed point) and by the source's
    enclosing loop heads (which index its state cell).
    """
    if cfg.is_loop_head(src) and dst not in cfg.natural_loop(src):
        return ("fix", src, cfg.containing_loop_heads(src))
    return ("state", src, cfg.containing_loop_heads(src))


def _loc_signature(cfg: Cfg, loc: int) -> Optional[LocSig]:
    """Signature of ``encode_incoming(loc)``; None when there is nothing to
    encode (only the entry location, which holds φ0 directly)."""
    edges = cfg.fwd_edges_to(loc)
    if not edges:
        return None
    return (
        cfg.containing_loop_heads(loc),
        tuple((index, edge.src, edge.dst) for index, edge in edges),
        tuple(_source_key(cfg, edge.src, loc) for _index, edge in edges),
    )


def _loop_signature(cfg: Cfg, head: int) -> LoopSig:
    """Signature of ``build_loop_structures(head)``."""
    back = cfg.back_edges_to(head)
    return (
        cfg.containing_loop_heads(head),
        tuple((edge.src, edge.dst) for edge in back),
        tuple(_source_key(cfg, edge.src, head) for edge in back),
    )


class LoopShape:
    """The encoding signatures an unrolling of one loop reads.

    ``sig`` pairs every body location but the head with its location
    signature, and every loop head in the body (the loop's own included)
    with its loop signature, both in location order: all that
    ``DaigBuilder.unroll`` derives a new iteration from, besides the
    iteration indices.  Shapes are interned, so equal signatures yield the
    same object, and the unrolling table hashes and compares them by
    identity.
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


def stmt_cells_at(cfg: Cfg, loc: int) -> Dict[StmtKey, Any]:
    """The statement cells anchored at ``loc`` (incoming forward edges plus,
    when ``loc`` is a loop head, its back edges), keyed as the DAIG names
    them: the pre-join index at a join point, else 0; back edges take 0."""
    cells: Dict[StmtKey, Any] = {}
    edges = cfg.fwd_edges_to(loc)
    for index, edge in edges:
        cells[(edge.src, edge.dst, index if len(edges) > 1 else 0)] = edge.stmt
    for edge in cfg.back_edges_to(loc):
        cells[(edge.src, edge.dst, 0)] = edge.stmt
    return cells


@dataclass
class StructureSnapshot:
    """The structural encoding of a CFG.

    Captured from scratch once, when the engine builds its DAIG, and
    thereafter updated *in place* over the affected region of each edit by
    :func:`splice_delta`.
    """

    reachable: Set[int]
    loc_sigs: Dict[int, Optional[LocSig]]
    loop_sigs: Dict[int, LoopSig]
    stmt_cells: Dict[StmtKey, Any]
    natural_loops: Dict[int, frozenset]
    #: Statement-cell keys grouped by the location they are anchored at
    #: (``key[1]``), so a region update can diff one location's cells
    #: without scanning the whole table.
    stmt_keys_by_loc: Dict[int, Set[StmtKey]] = field(default_factory=dict)
    #: Each unrolled loop head's :class:`LoopShape`, computed on its first
    #: unrolling (:meth:`loop_shape`) and dropped by a splice that re-signs
    #: a location of that loop.  Derived from the fields above, so it is
    #: left out of equality with a fresh capture.
    shapes: Dict[int, LoopShape] = field(default_factory=dict, compare=False,
                                         repr=False)

    @classmethod
    def capture(cls, cfg: Cfg) -> "StructureSnapshot":
        reachable = set(cfg.reachable_locations())
        heads = [h for h in cfg.loop_heads() if h in reachable]
        stmt_cells: Dict[StmtKey, Any] = {}
        stmt_keys_by_loc: Dict[int, Set[StmtKey]] = {}
        for loc in reachable:
            cells = stmt_cells_at(cfg, loc)
            if cells:
                stmt_cells.update(cells)
                stmt_keys_by_loc[loc] = set(cells)
        return cls(
            reachable=reachable,
            loc_sigs={loc: _loc_signature(cfg, loc) for loc in reachable},
            loop_sigs={h: _loop_signature(cfg, h) for h in heads},
            stmt_cells=stmt_cells,
            natural_loops={h: frozenset(cfg.natural_loop(h)) for h in heads},
            stmt_keys_by_loc=stmt_keys_by_loc,
        )

    def loop_shape(self, head: int) -> LoopShape:
        """The shape of ``head``'s loop, computed once per head."""
        shape = self.shapes.get(head)
        if shape is None:
            loc_sigs = self.loc_sigs
            loop_sigs = self.loop_sigs
            body = sorted(self.natural_loops[head])
            shape = self.shapes[head] = LoopShape((
                tuple([(loc, loc_sigs[loc]) for loc in body if loc != head]),
                tuple([(loc, loop_sigs[loc]) for loc in body
                       if loc in loop_sigs])))
        return shape

    def set_stmt(self, key: StmtKey, stmt: Any) -> None:
        """Record a statement-cell write applied directly to the DAIG."""
        self.stmt_cells[key] = stmt
        self.stmt_keys_by_loc.setdefault(key[1], set()).add(key)


@dataclass
class SpliceReport:
    """What one splice did, for the engine's edit statistics."""

    dirty_locations: int = 0
    cells_removed: int = 0
    cells_added: int = 0
    cells_dirtied: int = 0
    values_retained: int = 0
    #: Cells whose prior value survived the splice as an early-cutoff
    #: shadow (dirtied cells, re-encoded cells, relabelled statements).
    cells_shadowed: int = 0
    seeds: List[N.Name] = field(default_factory=list)
    #: Snapshot entries re-signed by this splice (the suspect region; every
    #: old and new location for a whole-program splice).
    locs_resigned: int = 0
    #: True when this splice re-signed the whole program (:func:`splice`).
    full_capture: bool = False
    #: Wall-clock split: signature/snapshot maintenance vs. DAIG surgery.
    snapshot_seconds: float = 0.0
    splice_seconds: float = 0.0


def _check_encodable(builder: DaigBuilder) -> None:
    """The validity preconditions, checked before any snapshot/DAIG mutation
    so a rejected edit leaves both untouched (and recoverable)."""
    cfg = builder.cfg
    cfg.check_reducible()
    builder.check_loop_exits()
    if cfg.is_loop_head(cfg.entry) or cfg.in_any_loop(cfg.entry):
        raise ValueError("the entry location may not belong to a loop")


def splice(daig: Daig, builder: DaigBuilder,
           snapshot: StructureSnapshot) -> SpliceReport:
    """Splice ``daig`` after the structure layer rebuilt from scratch (raw
    edge surgery on the CFG, or a wholesale edge replacement).

    The whole-program case of :func:`splice_delta`: every location and loop
    head of the old or the new CFG is a suspect, so ``snapshot`` is re-signed
    everywhere and updated in place.
    """
    cfg = builder.cfg
    report = splice_delta(daig, builder, snapshot,
                          snapshot.reachable | cfg.reachable_locations(),
                          set(snapshot.loop_sigs) | set(cfg.loop_heads()))
    report.full_capture = True
    return report


def splice_delta(daig: Daig, builder: DaigBuilder, snapshot: StructureSnapshot,
                 sig_suspects: Iterable[int],
                 head_suspects: Iterable[int]) -> SpliceReport:
    """Splice ``daig`` after an edit, re-signing only the suspect region.

    ``snapshot`` is the engine's live snapshot (in sync with the CFG as of
    the previous splice); ``sig_suspects`` / ``head_suspects`` come from the
    CFG's structure layer and over-approximate the locations and
    loop heads whose encoding may have changed.  The snapshot is updated in
    place; everything outside the suspect sets is untouched by construction.
    """
    cfg = builder.cfg
    _check_encodable(builder)
    started = time.perf_counter()
    head_suspects = set(head_suspects)
    suspects = set(sig_suspects) | head_suspects
    reachable = cfg.reachable_locations()
    report = SpliceReport(locs_resigned=len(suspects))

    # Drop the shape of every loop, before or after the edit, around a
    # re-signed location (a location signature leads with the location's
    # containing loop heads).
    shapes = snapshot.shapes
    if shapes:
        for loc in suspects:
            sig = snapshot.loc_sigs.get(loc)
            heads = sig[0] if sig is not None else ()
            if loc in reachable:
                heads += cfg.containing_loop_heads(loc)
            for head in heads:
                shapes.pop(head, None)

    removed_locs: Set[int] = set()
    added_locs: Set[int] = set()
    changed_locs: Set[int] = set()
    for loc in suspects:
        was = loc in snapshot.reachable
        now = loc in reachable
        if was and not now:
            removed_locs.add(loc)
            snapshot.reachable.discard(loc)
            snapshot.loc_sigs.pop(loc, None)
        elif now:
            sig = _loc_signature(cfg, loc)
            if not was:
                added_locs.add(loc)
                snapshot.reachable.add(loc)
                snapshot.loc_sigs[loc] = sig
            elif snapshot.loc_sigs.get(loc) != sig:
                changed_locs.add(loc)
                snapshot.loc_sigs[loc] = sig
    dirty_locs = added_locs | changed_locs

    removed_heads: Set[int] = set()
    affected_heads: Set[int] = set()
    for head in head_suspects:
        was_head = head in snapshot.loop_sigs
        is_head = head in reachable and cfg.is_loop_head(head)
        if was_head and not is_head:
            removed_heads.add(head)
            snapshot.loop_sigs.pop(head, None)
            snapshot.natural_loops.pop(head, None)
        elif is_head:
            sig = _loop_signature(cfg, head)
            old_body = snapshot.natural_loops.get(head, frozenset())
            if not was_head or snapshot.loop_sigs.get(head) != sig:
                affected_heads.add(head)
            elif old_body & removed_locs:
                affected_heads.add(head)
            snapshot.loop_sigs[head] = sig
            snapshot.natural_loops[head] = frozenset(cfg.natural_loop(head))
    # A loop whose body contains a re-encoded location must reset its
    # demanded iterates (E-Loop) even when its own signature is unchanged.
    for loc in dirty_locs:
        affected_heads.update(cfg.containing_loop_heads(loc))
    affected_heads -= removed_heads

    stale_stmts: Set[StmtKey] = set()
    relabelled_stmts: List[StmtKey] = []
    for loc in suspects:
        old_keys = snapshot.stmt_keys_by_loc.get(loc, set())
        new_cells = stmt_cells_at(cfg, loc) if loc in reachable else {}
        for key in old_keys - set(new_cells):
            stale_stmts.add(key)
            snapshot.stmt_cells.pop(key, None)
        for key, stmt in new_cells.items():
            if key in old_keys and snapshot.stmt_cells.get(key) != stmt:
                relabelled_stmts.append(key)
            snapshot.stmt_cells[key] = stmt
        if new_cells:
            snapshot.stmt_keys_by_loc[loc] = set(new_cells)
        else:
            snapshot.stmt_keys_by_loc.pop(loc, None)
    report.snapshot_seconds = time.perf_counter() - started
    return _apply_splice(
        daig, builder, report,
        removed_locs=removed_locs,
        changed_locs=changed_locs,
        dirty_locs=dirty_locs,
        removed_heads=removed_heads,
        affected_heads=affected_heads,
        stale_stmts=stale_stmts,
        relabelled_stmts=relabelled_stmts,
        stmt_values=snapshot.stmt_cells,
    )


def _apply_splice(
    daig: Daig,
    builder: DaigBuilder,
    report: SpliceReport,
    *,
    removed_locs: Set[int],
    changed_locs: Set[int],
    dirty_locs: Set[int],
    removed_heads: Set[int],
    affected_heads: Set[int],
    stale_stmts: Set[StmtKey],
    relabelled_stmts: List[StmtKey],
    stmt_values: Dict[StmtKey, Any],
) -> SpliceReport:
    """The splice actions: remove stale regions, re-encode, dirty."""
    cfg = builder.cfg
    started = time.perf_counter()
    if not (dirty_locs or removed_locs or affected_heads or removed_heads
            or stale_stmts or relabelled_stmts):
        report.values_retained = len(daig.values)
        report.splice_seconds = time.perf_counter() - started
        return report

    # -- remove stale regions ------------------------------------------------
    to_remove: Set[N.Name] = set()
    for loc in removed_locs | changed_locs:
        for name in daig.cells_at(loc):
            if name.kind in (N.STATE, N.PREJOIN) and name.is_base_copy():
                to_remove.add(name)
    for head in removed_heads | affected_heads:
        for name in daig.cells_at(head):
            if name.kind in (N.FIX, N.PREWIDEN) and name.is_base_copy():
                to_remove.add(name)
        # Every demanded unrolling of an affected loop is stale (E-Loop),
        # including the initial iterate-1 chain, which is rebuilt below.
        to_remove.update(daig.iterated_cells(head, 1))
    for src, dst, index in stale_stmts:
        to_remove.add(N.stmt_name(src, dst, index))
    # Keep the prior values (and change stamps) of cells about to be
    # removed: any re-encoded under the same name below becomes an
    # early-cutoff shadow — if its recomputed value comes back
    # pointer-equal, the cone dirtied through it is restored, not
    # recomputed.  The stamps must survive the remove/re-add round trip,
    # or a re-encoded cell would look "never changed" to the restore walk.
    prior_values = {name: (daig.values[name], daig.stamps.get(name, 0))
                    for name in to_remove if name in daig.values}
    report.cells_removed = daig.remove_region(to_remove)

    # -- re-encode the dirty regions ----------------------------------------
    cells_before = len(daig.refs)
    for loc in sorted(dirty_locs):
        if loc != cfg.entry:
            builder.encode_incoming(daig, loc, {})
    for head in sorted(affected_heads):
        builder.build_loop_structures(daig, head, {})
    report.cells_added = len(daig.refs) - cells_before
    report.dirty_locations = len(dirty_locs)

    # -- update re-labelled statement cells and dirty downstream -------------
    seeds: List[N.Name] = []
    relabels: List[Tuple[N.Name, StmtKey]] = []
    for key in relabelled_stmts:
        name = N.stmt_name(*key)
        if name in daig.refs:
            relabels.append((name, key))
            seeds.append(name)
    for loc in sorted(dirty_locs):
        if loc != cfg.entry:
            seeds.append(builder.state_name(loc, {}))
    for head in sorted(affected_heads):
        seeds.append(builder.fix_name(head, {}))
    report.seeds = seeds
    report.cells_dirtied = len(dirty_forward(daig, builder, seeds))
    # Write the re-labelled statements only *after* dirty_forward captured
    # the downstream shadows: the shadows were computed from the old
    # statement values, so a statement that really changes must be stamped
    # at (not before) the capture epoch to veto restoring through it.
    for name, key in relabels:
        daig.set_value(name, stmt_values[key])
    # Re-encoded cells that came back under their old names: re-holding
    # source cells get their stamps fixed up (the rebuild reset them), and
    # empty computed cells adopt their prior values as shadows.  A
    # re-encoded computation changed, so such a shadow is usable only as a
    # cutoff baseline at its own commit, never as a restore payload.
    epoch = daig.epoch
    for name, (value, stamp) in prior_values.items():
        if name not in daig.refs:
            continue
        if name in daig.values:
            if daig.values[name] is value:
                if stamp:
                    daig.stamps[name] = stamp
                else:
                    daig.stamps.pop(name, None)
            else:
                daig.stamps[name] = epoch
        elif name not in daig.shadows:
            daig.shadows[name] = value
            daig.shadow_caps[name] = epoch
            if stamp:
                daig.stamps[name] = stamp
            else:
                daig.stamps.pop(name, None)
            daig.baseline_only.add(name)
    report.cells_shadowed = len(daig.shadows)
    report.values_retained = len(daig.values)
    report.splice_seconds = time.perf_counter() - started
    return report
